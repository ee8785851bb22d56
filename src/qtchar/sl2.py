"""Rank-1 segments and the shared rank-1 algebra.

Dominant rank-1 monomials decompose uniquely into 2-segments (arithmetic
progressions of step 2, each held as the range of its levels); the deformed
character of a segment has an explicit descending A^-1-string expansion.
screening.ft_sl2 builds every rank-1 deformed character from these strings,
combined with the local twist, in A-string form.
"""

from __future__ import annotations

from .algebra import Monomial, YtAlgebra
from .cartan import SymmetrizedCartan
from .errors import NotDominant

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
