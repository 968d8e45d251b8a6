"""Source-level rules for the library package."""

import ast
import subprocess
import sys
from pathlib import Path

import charval

PACKAGE = Path(charval.__file__).parent


def test_library_has_no_assert_statements():
    """Invariants raise typed exceptions; assert vanishes under python -O."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_function_defined_in_two_modules():
    """One definition per helper: a second copy of a name is a duplicate."""
    owners: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.setdefault(node.name, []).append(path.name)
    dupes = {name: files for name, files in owners.items() if len(files) > 1}
    assert not dupes, dupes


def test_module_imports_are_acyclic():
    """Top-level relative imports form a DAG (imports under
    TYPE_CHECKING are not top-level and do not count)."""
    deps: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        targets = deps.setdefault(path.stem, set())
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for target in sorted(deps.get(module, ())):
            visit(target, path + [module])
        done.add(module)

    for module in sorted(deps):
        visit(module, [])


def test_every_private_function_has_a_caller():
    """A module-level _name function is used somewhere in the package
    outside its own body; an orphan (a converter nothing calls any more,
    a helper only the tests reach) is dead code."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = stmt.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined[owner] = path.name
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != owner:
                    used.add(name)
    assert defined, "no private functions found"
    orphans = {name: module for name, module in defined.items() if name not in used}
    assert not orphans, orphans


# Public functions with no caller in the package and not exported from
# charval, each kept for a reason the package's own code does not show.
UNCALLED_PUBLIC_FUNCTIONS = {
    "catalog.clear_caches": "perfbench/capture.py empties the catalog's "
                            "caches after capturing each seed",
    "catalog.check_expected": "the README documents it as the check of an "
                              "entry against its recorded fingerprint",
    "symchar.clear_memo": "frees the Murnaghan-Nakayama memo, which "
                          "otherwise lives as long as the process",
    "symchar.is_self_conjugate": "tells which S_n characters split on the "
                                 "alternating group; the tests read A_n rows by it",
}


def test_every_public_function_has_a_caller_or_is_exported():
    """A module-level public function is used somewhere in the package
    outside its own body, is exported in charval.__all__, or is listed
    in UNCALLED_PUBLIC_FUNCTIONS with a reason; a wrapper only the tests
    call is dead code."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined[owner] = f"{path.stem}.{owner}"
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != owner:
                    used.add(name)
    assert defined, "no public functions found"
    uncalled = {qualified for name, qualified in defined.items()
                if name not in used and name not in charval.__all__}
    assert uncalled == set(UNCALLED_PUBLIC_FUNCTIONS), \
        uncalled ^ set(UNCALLED_PUBLIC_FUNCTIONS)


def test_only_cyclo_reads_the_cyclotomic_polynomial():
    """One remainder by Phi_n: cyclo.power_basis.  Any other module that
    needs a value's power-basis coordinates, or to know that a sum of
    roots of unity vanishes, calls it instead of dividing by Phi_n itself."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cyclo":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "cyclotomic_polynomial" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_only_permcore_multiplies_by_a_class_representative():
    """One builder of class products: ClassData.class_matrix reads them
    off PermGroup.left_mult and keeps them, and the split and the proof
    both call it.  No other module reaches left_mult, so none can count
    its own copy of a class matrix, nor mult_index, the one other element
    product: every product of group elements is made in permcore."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "permcore":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("left_mult", "mult_index"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


ITERATING_CALLS = {"list", "tuple", "sorted", "set", "frozenset", "iter",
                   "enumerate", "zip", "map"}


def test_no_module_walks_every_element():
    """PermGroup.elements is a view that wraps one Permutation per access,
    over the image tuples the closure keeps.  A pass over the whole view
    (a loop, a comprehension, `in`, unpacking, or handing it to list,
    tuple, sorted, set or iter) would rebuild every wrapper, so the
    library reads elements by index only, and permcore reads the tuples."""
    def whole(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "elements"

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                walked = [node.iter]
            elif isinstance(node, (ast.Starred, ast.YieldFrom)):
                walked = [node.value]
            elif isinstance(node, ast.Compare):
                walked = [c for op, c in zip(node.ops, node.comparators)
                          if isinstance(op, (ast.In, ast.NotIn))]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ITERATING_CALLS:
                walked = node.args
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in walked if whole(n)]
    assert not found, found


def test_chartab_reaches_no_remainder_by_phi_n():
    """The table proof decides its relations mod a power of the Dixon
    prime, at one root of unity, so chartab neither imports nor calls
    cyclo.power_basis."""
    path = PACKAGE / "chartab.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.Attribute, ast.Name)):
            names = [node.attr if isinstance(node, ast.Attribute) else node.id]
        else:
            continue
        if "power_basis" in names:
            found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_chartab_imports_only_the_standard_library():
    """Class matrices are applied to vectors packed into Python ints, and
    the proof's residues are Python ints, so chartab needs no numeric
    library: each of its absolute imports is a standard-library module."""
    path = PACKAGE / "chartab.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{module}:{node.lineno}" for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names]
    assert not found, found


def test_no_module_imports_array_or_struct():
    """array and struct each load a lib-dynload extension at import:
    `import array` alone raised the benchmark's set-up time about 5 %
    (the CHANGES.md line on PermGroup._replay).  Packed data is
    kept as bytes, bytearray or memoryview, which need no import."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for module in modules
                      if module.split(".")[0] in ("array", "struct")]
    assert not found, found


def test_import_loads_no_introspection_modules():
    """Records are NamedTuples, not dataclasses, so `import charval` does
    not load dataclasses and the inspect, ast and dis chain behind it."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import charval; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
