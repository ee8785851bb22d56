"""Exact q-characters and t-deformed q,t-characters for finite-type Cartan data."""

from .algebra import Monomial, YtAlgebra, YtElement
from .cartan import InvCartanSeries, SymmetrizedCartan, cartan_from_json, named_cartan
from .characters import (
    Budget,
    RepElement,
    character_tree,
    chi_qt,
    chi_qt_inverse,
    dominant_product,
    e_t,
    e_t_normalized,
    fundamental,
    lt_and_kl,
    star_product,
    t_algorithm,
)
from .errors import (
    AlgorithmFails,
    BudgetExceeded,
    DomainError,
    InternalInconsistency,
    InversionFails,
    NonIntegralShift,
    NotCartan,
    NotDominant,
    NotFiniteType,
    NotIDominant,
    NotSimplyLaced,
    NotSymmetrizable,
    ParseError,
    QtcharError,
)
from .screening import f_it, ft_sl2, in_kernel, in_kernel_all, s_it
from .sl2 import decompose_segments, sl2_algebra
from .tpoly import TPoly


def algebra(cartan) -> YtAlgebra:
    """Convenience constructor: name, JSON dict, or matrix -> YtAlgebra."""
    if isinstance(cartan, (str, dict)):
        return YtAlgebra(cartan_from_json(cartan))
    return YtAlgebra(SymmetrizedCartan(cartan))


__all__ = [name for name in dir() if not name.startswith("_")]
