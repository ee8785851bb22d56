"""Closed-form and classical rank-1 theory.

Dominant rank-1 monomials decompose uniquely into 2-segments (arithmetic
progressions of step 2, each held as the range of its levels); the deformed character of a segment has an explicit
descending A^-1-string expansion.  screening.ft_sl2 builds every rank-1
deformed character from these strings, combined with the local twist, in
A-string form; ft_segment is the same segment character as a twisted
product, kept as a reference.  This module also keeps the shared rank-1
algebra.
"""

from __future__ import annotations

from .algebra import Monomial, YtAlgebra, YtElement
from .cartan import SymmetrizedCartan
from .errors import NotDominant
from .tpoly import TPoly

_SL2 = None


def sl2_algebra() -> YtAlgebra:
    """Shared rank-1 algebra instance."""
    global _SL2
    if _SL2 is None:
        _SL2 = YtAlgebra(SymmetrizedCartan([[2]]))
    return _SL2


def decompose_segments(m: Monomial):
    """Unique decomposition of a dominant rank-1 monomial into 2-segments.

    Each segment {a, a + 2, ..., top} is range(a, top + 2, 2).  Greedy:
    from the lowest remaining level, take the segment that runs as far as
    it goes.  The segments come out ordered by (start, -length): the lowest
    remaining level never drops, and a later run from the same level is no
    longer.  They are pairwise in general position.  Two segments are in
    special position when their union is a 2-segment properly containing
    each.  Take such a pair with [a, b] chosen before S2: S2 starts at or
    above a, so it must reach past b, and being a segment together with
    [a, b] it contains b + 2.  But [a, b] stopped at b because b + 2 was no
    longer remaining, so no later segment contains it.  Hence no pair needs
    merging.
    """
    remaining = {}
    for (i, l), e in m.items():
        if i != 1:
            raise ValueError("rank-1 monomial expected (node 1 only)")
        if e < 0:
            raise NotDominant(f"negative exponent at level {l}")
        remaining[l] = e
    segments = []
    while remaining:
        l0 = min(remaining)
        l = l0
        while l in remaining:
            remaining[l] -= 1
            if remaining[l] == 0:
                del remaining[l]
            l += 2
        segments.append(range(l0, l, 2))
    return segments


def classic_L(m: Monomial) -> dict:
    """Classical irreducible rank-1 character as a commutative monomial sum."""
    segments = decompose_segments(m)
    total = {Monomial.unit(): 1}
    for seg in segments:
        l, k = seg.start, len(seg) - 1
        part = {}
        for j in range(k + 2):
            d = {}
            for s in range(0, k - j + 1):
                d[(1, l + 2 * s)] = 1
            for s in range(k - j + 2, k + 2):
                d[(1, l + 2 * s)] = -1
            part[Monomial(d)] = part.get(Monomial(d), 0) + 1
        new = {}
        for m1, c1 in total.items():
            for m2, c2 in part.items():
                key = m1.times(m2)
                new[key] = new.get(key, 0) + c1 * c2
        total = {k: v for k, v in new.items() if v}
    return total


def is_irregular(m: Monomial) -> bool:
    """True iff some segment fits in another both in place and shifted by 2."""
    segments = decompose_segments(m)
    for a, s1 in enumerate(segments):
        set1 = frozenset(s1)
        shifted = frozenset(l + 2 for l in set1)
        for b, s2 in enumerate(segments):
            if a == b:
                continue
            set2 = frozenset(s2)
            if set1 <= set2 and shifted <= set2:
                return True
    return False


def ft_segment(alg: YtAlgebra, seg: range) -> YtElement:
    """Deformed character of a 2-segment: descending A^-1 strings with t^j."""
    m_elem = YtElement.from_monomial(Monomial({(1, l): 1 for l in seg}))
    bracket = YtElement.unit()
    string = YtElement.unit()
    for j in range(1, len(seg) + 1):
        a_inv = alg.a_monomial_expand({(1, seg[-1] + 3 - 2 * j): 1})
        string = alg.mul(string, YtElement.from_monomial(a_inv))
        bracket.add_scaled(string, TPoly.t_power(j))
    return alg.mul(m_elem, bracket)

