"""Cotorsion-pair machinery over small concrete triangulated categories.

The exported names load their layer on first access (PEP 562), so
``import cotor`` and every ``cotor`` command import only the modules
they use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "Backend": "core",
    "BudgetExceeded": "core",
    "CapabilityError": "core",
    "CotorError": "core",
    "Indec": "core",
    "InputError": "core",
    "InternalCheckError": "core",
    "Mor": "core",
    "Obj": "core",
    "Tri": "core",
    "Verdict": "core",
    "MutationEngine": "mutation",
    "ZICotorsionPair": "mutation",
    "CotorsionPair": "pairs",
    "PairEngine": "pairs",
    "TwinCotorsionPair": "pairs",
    "trivial_hovey_tcp": "pairs",
    "trivial_pairs": "pairs",
    "ZIQuotient": "quotient",
    "StarEngine": "subcats",
    "Subcat": "subcats",
    "left_perp": "subcats",
    "right_perp": "subcats",
}

__all__ = [
    "Backend",
    "BudgetExceeded",
    "CapabilityError",
    "CotorError",
    "CotorsionPair",
    "Indec",
    "InputError",
    "InternalCheckError",
    "Mor",
    "MutationEngine",
    "Obj",
    "PairEngine",
    "StarEngine",
    "Subcat",
    "Tri",
    "TwinCotorsionPair",
    "Verdict",
    "ZICotorsionPair",
    "ZIQuotient",
    "__version__",
    "left_perp",
    "right_perp",
    "trivial_hovey_tcp",
    "trivial_pairs",
]


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
