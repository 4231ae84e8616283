import ast
import importlib
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "conechoice"


def test_no_bare_assert_in_the_engine():
    # python -O strips asserts, so a check the engine relies on must be an
    # explicit raise or lp.verified.
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_the_engine_imports_only_the_standard_library():
    # The runtime is standard-library only: every import is relative or names
    # a standard-library module.
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, found


def test_no_engine_module_reaches_into_another_ones_private_names():
    # A module reaches another engine module only through its public names:
    # no `module._name` on a module bound by `from . import module [as alias]`,
    # and no `from .module import _name`.
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        found += [
            f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ]
        found += [
            f"{path.name}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")
        ]
    assert not found, found


def test_every_traced_function_exists_in_its_home_module():
    # perfbench/tracing.py wraps engine functions by name in a traced run;
    # a renamed or moved function would only show there, in CI's traced
    # smokes.  Read its WRAPPED list (without importing perfbench) and
    # check that each conechoice.<home>.<func> exists.
    tracing = SOURCE.parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    wrapped = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )
    assert wrapped
    missing = [
        f"{home}.{func}"
        for home, func in wrapped
        if not callable(getattr(importlib.import_module(f"conechoice.{home}"), func, None))
    ]
    assert not missing, missing


def test_only_the_listed_functions_call_the_lp_solver():
    # Every LP the engine solves is one of these call sites; a new one fails
    # here until it is listed on purpose.  A call is `<alias>.solve(...)`
    # with <alias> bound by `from . import lp [as alias]`, a name bound by
    # `from .lp import solve [as name]`, or, inside lp.py, a bare
    # `solve(...)`, and it counts for the module-level function or method it
    # sits in.  Every positive combination the engine looks for goes through
    # lp.positive_combination.
    expected = {
        "lp.positive_combination",
        "cone._solve_separation",
        "cone._open_dual_mixing",
        "cone._hull_lambda_o_lp",
    }
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        aliases = {
            alias.asname or alias.name
            for node in imports
            if node.level == 1 and node.module is None
            for alias in node.names
            if alias.name == "lp"
        }
        names = {
            alias.asname or alias.name
            for node in imports
            if node.level == 1 and node.module == "lp"
            for alias in node.names
            if alias.name == "solve"
        }
        if path.stem == "lp":
            names.add("solve")
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [
            item
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        ]
        for function in functions:
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                call = node.func
                if (
                    isinstance(call, ast.Attribute)
                    and call.attr == "solve"
                    and isinstance(call.value, ast.Name)
                    and call.value.id in aliases
                ) or (isinstance(call, ast.Name) and call.id in names):
                    found.add(f"{path.stem}.{function.name}")
    assert found == expected, (sorted(found - expected), sorted(expected - found))
