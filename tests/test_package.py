import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import kummerlat

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TESTS = pathlib.Path(__file__).resolve().parent

# what a fresh ``import kummerlat`` loads: the Kummer engine and nothing of
# the lattice side, which loads on first use of one of its names
EAGER = {"kummerlat", "kummerlat.matrix", "kummerlat.lefschetz"}

# the decided module set: adding or dropping a module is an edit here
MODULES = {"__init__", "classification", "cli", "isometries", "lattices", "lefschetz", "matrix",
           "pool"}


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the decided public surface: adding or dropping an export is an edit here
EXPORTS = {
    "FiniteQuadraticForm", "IsometryInvariants", "Lattice", "LatticeIsometry", "LaurentPoly",
    "LefschetzResult", "Matrix", "Sublattice", "TorusAutomorphism", "catalog",
    "check_square_theorem", "check_unimodular_corollary", "compute_invariants",
    "corollary_value", "direct_sum", "discriminant_form", "discriminant_group",
    "fqf_from_diagonal", "fqf_isomorphic", "integer_kernel", "is_p_elementary",
    "lefschetz_poly_surface", "lefschetz_q", "make_standard", "moebius",
    "orthogonal_complement", "run_catalog_table", "signature", "smith_normal_form",
    "torus_automorphism",
}


def test_exports_are_the_decided_set():
    assert len(kummerlat.__all__) == len(EXPORTS) == 30
    assert set(kummerlat.__all__) == EXPORTS


def test_modules_are_the_decided_set():
    assert {path.stem for path in (SRC / "kummerlat").glob("*.py")} == MODULES


def test_exports_resolve():
    assert [name for name in kummerlat.__all__ if not hasattr(kummerlat, name)] == []


def test_cyclotomic_reference_is_not_exported():
    # the cyclotomic field arithmetic lives in tests/cyclotomic_reference.py
    for name in ("CyclotomicNumber", "euler_phi", "cyclotomic_polynomial"):
        assert not hasattr(kummerlat, name)
        assert name not in kummerlat.__all__


def test_import_loads_the_kummer_engine_only():
    out = _fresh("import json, sys, kummerlat\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kummerlat'))))")
    assert set(json.loads(out)) == EAGER


# the value classes are plain __slots__ classes, so no import of the
# package pulls in dataclasses, nor inspect, which dataclasses imports
HEAVY = ("dataclasses", "inspect")
SUBMODULES = sorted(f"kummerlat.{path.stem}" for path in (SRC / "kummerlat").glob("*.py")
                    if path.stem != "__init__")


@pytest.mark.parametrize("modules", [["kummerlat"], ["kummerlat.cli"], SUBMODULES],
                         ids=["package", "cli", "every-submodule"])
def test_imports_leave_dataclasses_and_inspect_unloaded(modules):
    assert len(SUBMODULES) > 5
    out = _fresh("import importlib, json, sys\n"
                 f"for name in {modules!r}:\n"
                 "    importlib.import_module(name)\n"
                 f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    assert json.loads(out) == []


def test_star_import_resolves_every_export():
    out = _fresh("from kummerlat import *\n"
                 "import kummerlat\n"
                 "print(all(name in globals() for name in kummerlat.__all__))")
    assert out == "True\n"


def test_exports_are_the_objects_of_their_submodules():
    for name in kummerlat.__all__:
        value = getattr(kummerlat, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value, name


def test_user_built_sublattices_go_through_the_package():
    # Sublattice(...) validates a user's basis and orthogonal_complement
    # returns the saturated complement: the public entry for sublattices
    u = kummerlat.make_standard("U")
    uu = kummerlat.direct_sum(u, u)
    first = kummerlat.Sublattice(uu, kummerlat.Matrix([[1, 0], [0, 1], [0, 0], [0, 0]]))
    comp = kummerlat.orthogonal_complement(first)
    assert comp == kummerlat.Sublattice(uu, kummerlat.Matrix([[0, 0], [0, 0], [1, 0], [0, 1]]))
    diag = kummerlat.Sublattice(u, kummerlat.Matrix([[2], [2]]))
    assert kummerlat.orthogonal_complement(diag).basis == kummerlat.Matrix([[1], [-1]])
    with pytest.raises(ValueError, match="^basis columns are dependent$"):
        kummerlat.Sublattice(u, kummerlat.Matrix([[1, 2], [1, 2]]))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        kummerlat.nope


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of ``source`` that it never reads, nor lists in __all__."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def _private_builds(source: str) -> list[str]:
    """Uses in ``source`` of object.__setattr__ and object.__new__, and imports of _set and _new."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "object" and node.attr in ("__setattr__", "__new__")):
            found.append(f"object.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names if alias.name in ("_set", "_new")]
    return sorted(found)


def test_only_matrix_sets_the_fields_of_a_value_class():
    assert _private_builds("from .matrix import _Frozen, _new as make\nobj = object.__new__(C)\n"
                           "object.__setattr__(obj, 'a', 1)\nrepr = object.__repr__") == [
        "_new", "object.__new__", "object.__setattr__"]
    # _Frozen builds every value class; the other modules go through its
    # constructor and its _trusted path
    builds = {path.name: _private_builds(path.read_text(encoding="utf-8"))
              for path in sorted((SRC / "kummerlat").glob("*.py"))}
    assert len(builds) > 5 and builds.pop("matrix.py")
    assert {name: found for name, found in builds.items() if found} == {}


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports("from __future__ import annotations\nimport os.path\n"
                           "from math import gcd, lcm as l\n__all__ = ['l']\n"
                           "print(gcd)") == ["os"]
    # the package and the tests, whose reference modules take the helpers
    # that leave the package
    paths = sorted((SRC / "kummerlat").glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {str(path.relative_to(SRC.parent)): _unused_imports(path.read_text(encoding="utf-8"))
              for path in paths}
    assert len(unused) > 20 and "tests/test_package.py" in unused
    assert {name: names for name, names in unused.items() if names} == {}


def _unreferenced_defs(sources: dict[str, str], exported) -> list[str]:
    """Public top-level defs and classes of ``sources`` that no other top-level statement names.

    A reference is a name read, an attribute or an imported name, anywhere in
    ``sources`` outside the definition itself; names in ``exported`` count as used.
    """
    defs, refs = {}, []
    for file, source in sources.items():
        for node in ast.parse(source).body:
            key = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = (file, node.name)
                if not node.name.startswith("_"):
                    defs[key] = node.name
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
            refs.append((key, names))
    return sorted(f"{file}:{name}" for (file, name) in defs
                  if name not in exported
                  and not any(name in names for key, names in refs if key != (file, name)))


def test_every_public_def_is_referenced_or_exported():
    assert _unreferenced_defs({"a.py": "def f():\n    return f()\ndef g():\n    pass\n"
                                       "class C:\n    pass\ndef _h():\n    pass\n",
                               "b.py": "from .a import g\nx = mod.C\n"}, {"e"}) == ["a.py:f"]
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "kummerlat").glob("*.py"))}
    assert len(sources) > 5
    assert _unreferenced_defs(sources, set(kummerlat.__all__)) == []


def _unbounded_memos(source: str) -> list[int]:
    """Lines of ``source`` naming lru_cache or cache outside a call with a maxsize not None."""
    tree = ast.parse(source)
    bounded = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
               and any(k.arg == "maxsize" and not (isinstance(k.value, ast.Constant)
                                                   and k.value.value is None)
                       for k in node.keywords)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if getattr(node, "id", getattr(node, "attr", None)) in ("lru_cache", "cache")
                  and isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in bounded)


def test_every_memo_has_a_finite_maxsize():
    assert _unbounded_memos("from functools import cache, lru_cache\nimport functools\n"
                            "@lru_cache(maxsize=8)\ndef a(): pass\n"
                            "@lru_cache\ndef b(): pass\n"
                            "@lru_cache(maxsize=None)\ndef c(): pass\n"
                            "@cache\ndef d(): pass\n"
                            "e = functools.lru_cache(16)(a)\n"
                            "f = functools.lru_cache(maxsize=len(X))(a)\n") == [5, 7, 9, 11]
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "kummerlat").glob("*.py"))}
    assert sum(source.count("lru_cache(maxsize=") for source in sources.values()) >= 7
    assert {name: lines for name, source in sources.items()
            if (lines := _unbounded_memos(source))} == {}


def _commands_that_print(source: str) -> list[str]:
    """``name:line`` of each print or json.dumps call inside a function named cmd_* of ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            found += [f"{node.name}:{call.lineno}" for call in ast.walk(node)
                      if isinstance(call, ast.Call)
                      and (getattr(call.func, "id", None) in ("print", "dumps")
                           or getattr(call.func, "attr", None) == "dumps")]
    return found


def test_commands_return_their_report_and_main_prints_it():
    assert _commands_that_print("import json\ndef cmd_a(x):\n    print(x)\n"
                                "def cmd_b(x):\n    return json.dumps(x)\n"
                                "def main(x):\n    print(json.dumps(x))\n") == ["cmd_a:3", "cmd_b:5"]
    source = (SRC / "kummerlat" / "cli.py").read_text(encoding="utf-8")
    assert source.count("\ndef cmd_") == 5
    assert _commands_that_print(source) == []
