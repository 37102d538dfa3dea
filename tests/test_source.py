"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import vkg


def _nodes():
    sources = sorted(Path(vkg.__file__).parent.glob("*.py"))
    assert any(p.name == "linalg.py" for p in sources)
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements():
    """Correctness checks in the package must survive ``python -O``."""
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_assert_statements_in_test_helpers():
    """pytest rewrites the asserts of test modules only, so a bare
    ``assert`` in ``tests/helpers.py`` compiles away under ``python -O``."""
    path = Path(__file__).parent / "helpers.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [f"helpers.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_float_literals():
    """Arithmetic in the package is exact: no float constants or float()."""
    found = [
        f"{name}:{node.lineno}" for name, node in _nodes()
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")
    ]
    assert not found, found


def test_traced_entry_points_exist():
    """Every function the benchmark's tracer wraps is still a callable of its
    module, and every cached one still has ``cache_info``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{module}.{name}"
               for module, names in layers.ENTRY_POINTS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"vkg.{module}"),
                                       name, None))]
    assert not missing, missing
    for dotted in layers.CACHED:
        module, name = dotted.split(".")
        fn = getattr(importlib.import_module(f"vkg.{module}"), name)
        assert hasattr(fn, "cache_info"), dotted


def test_every_export_is_named_in_the_tests():
    """Each name that ``vkg/__init__.py`` imports is imported by some test
    (from ``vkg`` or one of its modules) or read there as ``vkg.<name>``:
    an export that no test names is dead or untested."""
    init = Path(vkg.__file__)
    exports = [alias.asname or alias.name
               for node in ast.parse(init.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    named = set()
    for path in Path(__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "vkg"):
                named.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "vkg"):
                named.add(node.attr)
    missing = [name for name in exports if name not in named]
    assert exports and not missing, missing


def test_no_indented_json_dumps():
    """Indented JSON goes through ``cli._write_json`` alone, which writes it
    a batch at a time: no ``json.dump``/``json.dumps`` call with ``indent``,
    no ``JSONEncoder`` and no ``iterencode`` is left in the package."""
    found = [
        f"{name}:{node.lineno}" for name, node in _nodes()
        if (isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("json.dump", "json.dumps")
            and any(kw.arg == "indent" for kw in node.keywords))
        or (isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "JSONEncoder")
        or (isinstance(node, ast.Attribute) and node.attr == "iterencode")
    ]
    assert not found, found


def test_no_dataclasses_import():
    """Records are ``NamedTuple`` classes; ``dataclasses`` would bring
    ``inspect`` into every process's start-up."""
    found = [
        f"{name}:{node.lineno}" for name, node in _nodes()
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert not found, found


def test_only_cli_touches_the_collector():
    """The collector policy lives in one place: ``cli`` alone imports
    ``gc``, under its own name, and calls only ``gc.freeze`` (at process
    entry)."""
    imports, uses = [], set()
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            imports += [f"{name} as {a.asname}" if a.asname else name
                        for a in node.names if a.name == "gc"]
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            imports.append(f"{name}:{node.lineno}")
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "gc"):
            uses.add(f"{name}:gc.{node.attr}")
    assert imports == ["cli.py"], imports
    assert uses == {"cli.py:gc.freeze"}, uses


def test_engine_has_one_public_method():
    """The straightening engine has one product path: ``pbw._Engine``
    defines ``act_string`` and no other public method."""
    engines = [node for name, node in _nodes() if name == "pbw.py"
               and isinstance(node, ast.ClassDef) and node.name == "_Engine"]
    assert len(engines) == 1
    public = [node.name for node in engines[0].body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    assert public == ["act_string"], public


def test_only_pbw_straightens_or_solves():
    """The engine, its partner rows and the raising-constraint solve stay in
    ``pbw``: no module but ``pbw`` (and ``linalg``, which defines
    ``nullspace``) names ``_Engine``, ``_rows``, ``_row``,
    ``constraint_rows`` or ``nullspace``."""
    private = {"_Engine", "_rows", "_row", "constraint_rows", "nullspace"}
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if name not in ("pbw.py", "linalg.py")
             and ((isinstance(node, ast.Name) and node.id in private)
                  or (isinstance(node, ast.Attribute) and node.attr in private)
                  or (isinstance(node, ast.alias) and node.name in private))]
    assert not found, found


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter, ``import vkg.cli`` adds neither module to
    those that start-up (``site`` included) has already loaded."""
    code = ("import sys; before = set(sys.modules); import vkg.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(vkg.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "vkg.cli" in out
    assert not {"dataclasses", "inspect"} & set(out), out


# Top-level definitions that no package code names, each kept for a reason.
UNREACHED_BY_DESIGN = {
    "rootdata.vec": "the tests' exact-vector constructor, at about 116 call "
                    "sites",
    "vectors.e7_d6_a1_subalgebra": "the conformal embedding in V_{-4}(E7) "
                                   "will call it (ROADMAP item 7)",
}


def test_every_definition_is_reached():
    """Each top-level function and class of the package is named (as a
    ``Name`` or an ``Attribute``) somewhere in the package outside its own
    definition, or exported by ``vkg/__init__.py``: code that only the tests
    reach belongs in ``tests/helpers.py``."""
    pkg = Path(vkg.__file__).parent
    init = ast.parse((pkg / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, named = [], {}  # named: name -> {(module, top-level index)}
    for path in sorted(pkg.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        for i, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, i, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    named.setdefault(node.id, set()).add((path.stem, i))
                elif isinstance(node, ast.Attribute):
                    named.setdefault(node.attr, set()).add((path.stem, i))
    unreached = [f"{module}.{name}" for module, i, name in defined
                 if not named.get(name, set()) - {(module, i)}
                 and name not in exports]
    assert sorted(unreached) == sorted(UNREACHED_BY_DESIGN), unreached
