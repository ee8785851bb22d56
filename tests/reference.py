"""Reference constructions that the tests hold the engine against.

Each builds an object that qtchar also builds, by another route than the
engine's: the classical rank-1 characters and the irregularity test, a
2-segment's deformed character and the node-i kernel generators e_it as
twisted products, the i-dominant part of an element, the right-negativity of
a monomial, and the parse of a serialized element.  None is on the engine's
path, so none lives in qtchar.
"""

from __future__ import annotations

from qtchar.algebra import Monomial, YtAlgebra, YtElement
from qtchar.grammar import parse_basis_monomial
from qtchar.screening import _check_i_dominant
from qtchar.sl2 import decompose_segments
from qtchar.tpoly import TPoly


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


def e_it(alg: YtAlgebra, i: int, m: Monomial) -> YtElement:
    """Ordered product of node-i kernel generators and spectator variables."""
    _check_i_dominant(i, m)
    ri = alg.cartan.ri(i)
    acc = YtElement.unit()
    for l in sorted({l for (_, l), _ in m.items()}):
        ui = m.u(i, l)
        if ui:
            a_inv = alg.a_monomial_expand({(i, l + ri): 1})
            bracket = YtElement.unit() + YtElement.from_monomial(a_inv, TPoly.t_power(1))
            factor = alg.mul(YtElement.from_monomial(Monomial.y(i, l)), bracket)
            for _ in range(ui):
                acc = alg.mul(acc, factor)
        for j in alg.cartan.nodes():
            if j != i:
                uj = m.u(j, l)
                if uj:
                    acc = alg.mul(acc, YtElement.from_monomial(Monomial.y(j, l, uj)))
    return acc


def i_dominant_part(x: YtElement, i: int) -> dict:
    return {m: p for m, p in x.items() if m.is_dominant([i])}


def is_right_negative(m: Monomial) -> bool:
    """At the maximal occurring level, every exponent is negative."""
    top = max((l for (_, l), _ in m.data), default=None)
    if top is None:
        return False
    return all(e < 0 for (_, l), e in m.data if l == top)


def parse_tpoly(obj: dict) -> TPoly:
    return TPoly({int(e): int(c) for e, c in obj.items()})


def parse_element(obj: dict) -> YtElement:
    terms = {}
    for item in obj.get("terms", []):
        m = parse_basis_monomial(item["monomial"])
        terms[m] = terms.get(m, TPoly.zero()) + parse_tpoly(item["coeff"])
    return YtElement(terms)
