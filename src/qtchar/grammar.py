"""Monomial text grammar and element serialization.

A monomial string is a whitespace-separated product of factors, evaluated
left to right in the twisted algebra:

    Y[i,l]       generator, optional ^e with e a nonzero integer
    Y[l]         shorthand for node 1 (rank-1 inputs)
    A[i,l]^-e    inverse A-variable; positive A exponents are rejected
    t^a          central t-power (bare t means t^1)
    : ... :      normal-ordered group; the enclosed Y/A factors are combined
                 as a plain exponent map, with no commutation t-powers

Indices and exponents are ASCII integers of at most errors.MAX_DIGITS digits.
The lone token 1 is the unit in every grammar here.

Serialized elements carry each basis monomial as its plain exponent map
(the normal-ordered string, "1" for the unit), so parse(serialize(x)) == x
exactly.  Empty text is a parse error, not the unit.
"""

from __future__ import annotations

import re

from .algebra import Monomial, YtAlgebra, YtElement
from .errors import ParseError, parse_int
from .tpoly import TPoly

# re.ASCII: \d must not match other Unicode digits, which int() would accept
_FACTOR = re.compile(
    r"^(?P<var>[YAX])\[(?P<idx>-?\d+(?:,-?\d+)?)\](?:\^(?P<exp>-?\d+))?$", re.ASCII
)
_TPOW = re.compile(r"^t(?:\^(?P<exp>-?\d+))?$", re.ASCII)


def _parse_factor(tok: str, variables: str = "YA"):
    """Return ('t', a) or (var, i, l, e), var one of variables."""
    what = f"factor {tok[:20]!r}"
    m = _TPOW.match(tok)
    if m:
        return ("t", parse_int(m.group("exp") or "1", what))
    m = _FACTOR.match(tok)
    if not m or m.group("var") not in variables:
        raise ParseError(f"bad factor {tok!r}")
    idx = [parse_int(text, what) for text in m.group("idx").split(",")]
    i, l = idx if len(idx) == 2 else (1, idx[0])
    e = parse_int(m.group("exp") or "1", what)
    var = m.group("var")
    if e == 0:
        raise ParseError(f"zero exponent in {tok!r}")
    if var == "A" and e > 0:
        raise ParseError(f"positive A exponent in {tok!r}")
    return (var, i, l, e)


def _factor_exponents(alg: YtAlgebra, factor) -> Monomial:
    var, i, l, e = factor
    alg.within_rank(Monomial.y(i, l))
    return Monomial.y(i, l, e) if var == "Y" else alg.a_monomial_expand({(i, l): -e})


def parse_monomial(alg: YtAlgebra, text: str) -> YtElement:
    """Evaluate a monomial string to a single-term element; "1" is the unit."""
    result = YtElement.unit()
    group = None  # exponent dict while inside : ... :
    for tok in _exponent_map_tokens(text):
        if tok == ":":
            if group is None:
                group = {}
            else:
                result = alg.mul(result, YtElement.from_monomial(Monomial(group)))
                group = None
            continue
        factor = _parse_factor(tok)
        if factor[0] == "t":
            if group is not None:
                raise ParseError("t-powers are not allowed inside : ... : groups")
            result = result.scale(TPoly.t_power(factor[1]))
            continue
        exps = _factor_exponents(alg, factor)
        if group is not None:
            for k, e in exps.items():
                group[k] = group.get(k, 0) + e
        else:
            result = alg.mul(result, YtElement.from_monomial(exps))
    if group is not None:
        raise ParseError("unterminated : ... : group")
    return result


def parse_element_lines(alg: YtAlgebra, text: str) -> YtElement:
    """Sum of monomial strings, one term per line; '#' starts a comment."""
    total = YtElement.zero()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            total.add_scaled(parse_monomial(alg, line))
    return total


def _exponent_map_tokens(text: str) -> list:
    """The factors of a monomial text; none for the lone unit "1"."""
    toks = text.split()
    if not toks:
        raise ParseError("empty monomial")
    return [] if toks == ["1"] else toks


def parse_basis_monomial(text: str) -> Monomial:
    """Plain exponent map: Y factors only, no evaluation order involved."""
    d = {}
    for tok in _exponent_map_tokens(text):
        factor = _parse_factor(tok)
        if factor[0] != "Y":
            raise ParseError(f"basis monomial may only contain Y factors, got {tok!r}")
        _, i, l, e = factor
        d[(i, l)] = d.get((i, l), 0) + e
    return Monomial(d)


def serialize_tpoly(p: TPoly) -> dict:
    return {str(e): c for e, c in p.sorted_items()}


def parse_tpoly(obj: dict) -> TPoly:
    return TPoly({int(e): int(c) for e, c in obj.items()})


class Namer(dict):
    """Names monomials as str(m) does, with letter in place of Y ("X" names
    them as format_rep_monomial does).  As a dict it maps each (key,
    exponent) met to its factor text, L[i,l], or L[i,l]^e when e != 1, made
    once on first use and kept as long as the namer."""

    def __init__(self, letter: str = "Y"):
        super().__init__()
        self.letter = letter

    def __missing__(self, kv):
        (i, l), e = kv
        text = self[kv] = f"{self.letter}[{i},{l}]" + (f"^{e}" if e != 1 else "")
        return text

    def __call__(self, m: Monomial) -> str:
        return " ".join(map(self.__getitem__, m.data)) or "1"


def term_list(x, name=None) -> list:
    """The terms of x in sortkey order as {"coeff": ..., "monomial": name(m)} dicts,
    name a new Namer() when None.  Each coefficient object is serialized once and
    its dict shared; keying by id is sound because x keeps every coefficient
    alive for the whole call."""
    if name is None:  # not `name or`: a Namer with an empty table is falsy
        name = Namer()
    objects = {id(p): p for _, p in x.items()}
    memo = {k: serialize_tpoly(p) for k, p in objects.items()}
    return [{"coeff": memo[id(p)], "monomial": name(m)} for m, p in x.sorted_terms()]


def serialize_element(x: YtElement) -> dict:
    return {"terms": term_list(x)}


def parse_element(obj: dict) -> YtElement:
    terms = {}
    for item in obj.get("terms", []):
        m = parse_basis_monomial(item["monomial"])
        terms[m] = terms.get(m, TPoly.zero()) + parse_tpoly(item["coeff"])
    return YtElement(terms)


# Rep-monomials reuse the same grammar with X in place of Y.


def parse_rep_monomial(text: str) -> Monomial:
    """Plain exponent map of X factors, each read as the Y factor it names."""
    d = {}
    for tok in _exponent_map_tokens(text):
        if not tok.startswith("X["):
            raise ParseError(f"Rep-monomial may only contain X factors, got {tok!r}")
        _, i, l, e = _parse_factor(tok, "X")
        if e < 0:
            raise ParseError(f"negative exponent in Rep-monomial factor {tok!r}")
        d[(i, l)] = d.get((i, l), 0) + e
    return Monomial(d)


def format_rep_monomial(m: Monomial) -> str:
    """The Y-grammar form of m with X in place of Y; "1" for the unit."""
    return str(m).replace("Y[", "X[")
