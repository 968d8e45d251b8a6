"""The limits the README states are the ones the code enforces."""

import inspect
import re
from pathlib import Path

import pytest

from charval import cli, cyclo, permcore, symchar
from charval.chartab import character_table

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("pattern,value", [
    (r"more than (\d+) conjugacy classes",
     inspect.signature(character_table).parameters["max_classes"].default),
    (r"tables are built only up to (\d+) classes",
     inspect.signature(character_table).parameters["max_classes"].default),
    (r"above (\d+) \(`permcore\.MAX_DEGREE`\)", permcore.MAX_DEGREE),
    (r"up to (\d+) \(`symchar\.MAX_N`\)", symchar.MAX_N),
    (r"above (\d+) \(`cyclo\.PARSE_CONDUCTOR_BOUND`\)", cyclo.PARSE_CONDUCTOR_BOUND),
    (r"`--max-order` \(default (\d+)\)",
     cli.build_parser().parse_args(["table", "--group", "sym_4"]).max_order),
], ids=["class_guard", "class_guard_again", "max_degree", "max_n",
        "parse_conductor_bound", "max_order"])
def test_readme_states_the_limits_of_the_code(pattern, value):
    # the README wraps its lines, so the text is matched with its
    # whitespace collapsed
    text = " ".join(README.read_text().split())
    stated = [int(n) for n in re.findall(pattern, text)]
    assert stated == [value]
