"""Exact character tables of small finite groups and character-value
invariants."""

from .chartab import (
    CharTable, Character, EigensplitFailure, OrthogonalityFailure,
    PrimeSearchExhausted, character_table, choose_dixon_prime, codegree,
)
from .cyclo import Cyc
from .invariants import InvariantReport, report, root_of_unity_elements
from .permcore import (
    ClassData, InvariantViolation, OrderBoundExceeded, ParseError, PermGroup,
    Permutation, conjugacy_classes, derived_length, direct_product,
    normal_subgroups, parse_cycle_text, parse_group_file, perm_from_cycles,
    quotient_group, structure_flags,
)
from .symchar import SizeMismatch, hook_degree, mn_value, partitions
from .verify import Verdict, check_group, scan, verify_names

__version__ = "0.1.0"

__all__ = [
    "CharTable", "Character", "ClassData", "Cyc", "EigensplitFailure",
    "InvariantReport", "InvariantViolation", "OrderBoundExceeded",
    "OrthogonalityFailure", "ParseError", "PermGroup", "Permutation",
    "PrimeSearchExhausted", "SizeMismatch", "Verdict", "character_table",
    "check_group", "choose_dixon_prime", "codegree", "conjugacy_classes",
    "derived_length", "direct_product", "hook_degree", "mn_value",
    "normal_subgroups", "parse_cycle_text", "parse_group_file",
    "partitions", "perm_from_cycles", "quotient_group", "report",
    "root_of_unity_elements", "scan", "structure_flags", "verify_names",
    "__version__",
]
