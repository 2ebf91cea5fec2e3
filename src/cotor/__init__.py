"""Cotorsion-pair machinery over small concrete triangulated categories."""

__version__ = "0.1.0"

from .core import (
    Backend,
    BudgetExceeded,
    CapabilityError,
    CotorError,
    Indec,
    InputError,
    InternalCheckError,
    Mor,
    Obj,
    Tri,
    Verdict,
)
from .mutation import MutationEngine, ZICotorsionPair
from .pairs import (
    CotorsionPair,
    PairEngine,
    TwinCotorsionPair,
    trivial_hovey_tcp,
    trivial_pairs,
)
from .quotient import ZIQuotient
from .subcats import StarEngine, Subcat, left_perp, right_perp

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
