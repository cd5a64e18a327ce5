import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import orbicyclic

PACKAGE = Path(orbicyclic.__file__).parent
# __init__.py only re-exports, so its imports are used by its importers
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never mentions again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_an_import_left_behind():
    source = "from typing import Callable\nimport os.path\nimport sys\nsys.exit()\n"
    assert unused_imports(source) == ["Callable (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def bool_checks(source: str) -> list[str | None]:
    """The innermost function around each isinstance(..., bool) call, in order."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(
                isinstance(n, ast.Name) and n.id == "bool"
                for n in ast.walk(node.args[-1])
            )
        ):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_finds_a_bool_check():
    source = (
        "isinstance(0, bool)\n"
        "def f(x):\n"
        "    def g(y):\n"
        "        return isinstance(y, (int, bool))\n"
        "    return isinstance(x, int)\n"
    )
    assert bool_checks(source) == [None, "g"]


def test_integer_check_has_one_implementation():
    # the congruence oracle takes the rule through orbicyclic, as it does its guard
    sites = [
        (path.name, func) for path in MODULES for func in bool_checks(path.read_text())
    ]
    assert sites == [("arith.py", "_require_int")]


def raise_sites(source: str, text: str) -> list[str | None]:
    """The innermost function around each raise statement whose source contains text."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and text in ast.unparse(node):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_finds_a_raise():
    source = (
        "raise ValueError('past the print limit')\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise ArithmeticError(f'{x} past the print limit')\n"
        "    raise ArithmeticError\n"
    )
    assert raise_sites(source, "print limit") == [None, "f"]
    assert raise_sites(source, "raise ArithmeticError") == ["f", "f"]


def test_print_limit_and_exact_division_have_one_implementation():
    # every bound on printed digits goes through one rule, and every division
    # the mathematics makes exact through one check; the census keeps its own
    # ArithmeticError for an orbifold admitted at two group orders
    def sites(text):
        return [
            (path.name, func)
            for path in MODULES
            for func in raise_sites(path.read_text(), text)
        ]

    assert sites("print limit") == [("arith.py", "_require_printable")]
    assert sites("raise ArithmeticError") == [
        ("arith.py", "_exact_quotient"),
        ("orbifold.py", "census"),
    ]


def require_int_args(source: str) -> list[tuple[str | None, str]]:
    """(innermost function, first argument) for each _require_int call, in order."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_require_int"
        ):
            found.append((func, ast.unparse(node.args[0])))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_finds_a_require_int_call():
    source = "_require_int(n, 'n')\ndef f(x, y):\n    _require_int(x, 'x', 1)\n"
    assert require_int_args(source) == [(None, "n"), ("f", "x")]


def test_every_integer_domain_goes_through_one_rule():
    # an integer argument outside its range is refused by one _require_int
    # call, in the rule's one message shape; a hand-written ValueError is left
    # only for what no integer range states
    sites = [
        (path.name, func)
        for path in MODULES
        for func in raise_sites(path.read_text(), "raise ValueError")
    ]
    assert sites == [
        ("arith.py", "_require_int"),
        ("arith.py", "von_sterneck"),  # k: any int, a bool included
        ("arith.py", "periodic_average"),  # a period that does not divide the modulus
        ("congruence.py", "count_congruence_solutions"),  # the same for the oracle
        ("orbicyclic.py", "local_profile"),  # p is not a prime
        ("orbicyclic.py", "_local_profile"),  # p divides no value
        ("orbicyclic.py", "h_poly"),  # h_s is indeterminate at x = 0
        ("orbifold.py", "census"),  # the census is infinite at gamma 0 and 1
    ]
    # and one call checks one argument, its type and its least value together
    calls = Counter(
        (path.name, func, arg)
        for path in MODULES
        for func, arg in require_int_args(path.read_text())
    )
    assert [call for call, n in calls.items() if n > 1] == []


def guard_raises(source: str) -> list[tuple[str | None, str, bool]]:
    """(function, raised name, whether its text names a guard) for each raise.

    Only the message's literal text counts, so a bound merely printed in it
    (gamma in [2, GAMMA_GUARD]) does not; the print limit counts as a guard.
    """
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            text = "".join(
                n.value
                for n in ast.walk(node.exc)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
            names = "guard" in text or "print limit" in text
            found.append((func, ast.unparse(exc), names))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_finds_a_guard_raise():
    source = (
        "def f(x):\n"
        "    if x > G:\n"
        "        raise GuardError(f'{x} exceeds the guard {G}')\n"
        "    raise ValueError(f'x must be in [0, {G}]')\n"
    )
    assert guard_raises(source) == [("f", "GuardError", True), ("f", "ValueError", False)]


def loads(source: str, names: set[str]) -> list[str | None]:
    """The innermost function around each read of one of names, in order."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_finds_a_load():
    source = "from m import G\nG = 1\ndef f(x):\n    return x > G\nprint(G)\n"
    assert loads(source, {"G"}) == ["f", None]


def test_every_guard_raises_guard_error():
    # GuardError marks a valid input refused by a bound the library set, so
    # the CLI can tell an oracle past its guard from a domain error; it is
    # defined once, raised by the two refusal rules alone, and a raise names
    # a guard exactly when it raises it
    found = [
        (path.name, func, raised, names)
        for path in MODULES
        for func, raised, names in guard_raises(path.read_text())
    ]
    assert all((raised == "GuardError") == names for _, _, raised, names in found), [
        site for site in found if (site[2] == "GuardError") != site[3]
    ]
    assert [(name, func) for name, func, raised, _ in found if raised == "GuardError"] == [
        ("arith.py", "_require_printable"),
        ("arith.py", "_require_within"),
    ]
    defined = [
        (path.name, node.name)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "GuardError"
    ]
    assert defined == [("arith.py", "GuardError")]
    # theta and the rooted counts share the enumerators' domain, checked in one place
    mapcount = (PACKAGE / "mapcount.py").read_text()
    assert loads(mapcount, {"GAMMA_GUARD", "ELL_GUARD"}) == ["_require_guarded"] * 2


def test_cli_catches_guard_error_in_one_place():
    # main turns an oracle's guard into a skipped check; nothing else does
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "GuardError" in ast.unparse(node.type)
    ]
    assert len(handlers) == 1


def test_cli_binds_no_library_knowledge():
    # Bounds, formulas and oracles live beside the code they bound or check;
    # the CLI only parses and renders, so its one module constant is COMMANDS.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    statements = [
        node
        for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.Import, ast.ImportFrom))
    ]
    assigned = [
        name.id
        for node in statements
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
    ]
    assert assigned == ["COMMANDS"]
    imported = {
        alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert not imported & {"math", "itertools"}
    # nor does it import a library constant, such as an oracle's guard
    constants = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.isupper()
    ]
    assert constants == []


def test_import_loads_only_what_the_package_uses():
    # Fraction is imported inside periodic_average, its one user; rho's walks
    # need no RNG, and the records and annotations come from collections, so
    # typing (and the re and enum it loads) stays out; -S keeps site's own
    # imports out of the probe
    unused = "{'fractions', 'decimal', 'random', 'typing', 're', 'enum'}"
    probe = f"import sys, orbicyclic; print(*sorted({unused} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "\n"


def test_import_fills_no_cache():
    # a cache filled at import would be paid again by every process start; the
    # budgeted stores are dicts, which the cache_info probe cannot see, so they
    # are found by type: a module-level dict with a budget attribute
    probe = (
        "import sys, orbicyclic\n"
        "modules = [m for name, m in list(sys.modules.items()) if name.startswith('orbicyclic')]\n"
        "caches = {f'{m.__name__}.{k}': v.cache_info().currsize\n"
        "          for m in modules for k, v in vars(m).items() if hasattr(v, 'cache_info')}\n"
        "stores = {id(v): (f'{m.__name__}.{k}', len(v)) for m in modules\n"
        "          for k, v in vars(m).items() if isinstance(v, dict) and hasattr(v, 'budget')}\n"
        "caches.update(stores.values())\n"
        "print(len(stores), len(caches), *sorted(k for k, n in caches.items() if n))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "3" and int(out[1]) > 3 and out[2:] == []
