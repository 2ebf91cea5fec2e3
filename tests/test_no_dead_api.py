"""Every function and method in ``src/cotor`` has a reader.

A function or method that no other code in ``src/`` names is dead API,
unless the layer tracer in ``perfbench/tracer.py`` binds it, the package
exports it in ``cotor.__all__``, or ``KEPT`` below gives the reason it
stays.  Matching is by name only: a call ``x.plus(...)`` anywhere in
``src/`` keeps every function and method called ``plus``.  Dunders, at
module level (a package's ``__getattr__``) as in classes, are left out,
since the language calls them.
"""

import ast
from pathlib import Path

import cotor
from test_tracer_bindings import _entries

SRC = Path(__file__).resolve().parents[1] / "src" / "cotor"

# Reached only by tests, each for the reason given.
KEPT = {
    "Sigma_mor": "the subquotient's suspension on morphism classes, a "
    "construction of the paper that the functor tests check",
    "standard_left_triangle": "the dual standard triangle of the "
    "subquotient, a construction of the paper that the quotient tests check",
    "zz_mutate": "mutation of cut-reduced arc sets, the polygon model of "
    "the paper's mutation that the acceptance tests check",
    "stable_hom_table": "the published stable Hom dimensions that the "
    "Nakayama tests compare with closed forms",
    "plus": "Obj.plus and Mor.plus, direct sums in the value API the "
    "tests build with",
    "from_labels": "Subcat.from_labels, the value API the tests build with",
    "reduce": "QuotientSpace.reduce, the canonical form of a class, which "
    "the tests compare quotient maps by",
    "rotate_right": "Backend.rotate_right, the inverse of rotate_left, which "
    "the subquotient's triangle axioms (rotation gives an isomorphic "
    "triangle) are to read; the core tests check the two rotations",
    "hom_elements": "Backend.hom_elements, every map x -> y, the value API "
    "the tests enumerate maps by, the quotient's class-search oracle among them",
    "entry": "F2Matrix.entry, one matrix entry, which the tests' per-entry "
    "oracles for products, module maps and block scatters read",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined() -> dict[str, list[str]]:
    """Module functions and class methods by name, dunders left out."""
    out: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not _dunder(node.name):
                out.setdefault(node.name, []).append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                        where = f"{path.stem}.{node.name}.{item.name}"
                        out.setdefault(item.name, []).append(where)
    return out


def _named() -> set[str]:
    """Every name read in ``src/``, as a variable or as an attribute."""
    names: set[str] = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_the_kept_names_are_defined():
    assert set(KEPT) <= set(_defined())


def test_no_function_or_method_lacks_a_reader():
    traced = {path.split(".")[-1] for _, path in _entries()}
    allowed = _named() | traced | set(cotor.__all__) | set(KEPT)
    dead = sorted(
        w for name, where in _defined().items() if name not in allowed for w in where
    )
    assert not dead, f"no reader in src/, the tracer, __all__ or KEPT: {dead}"
