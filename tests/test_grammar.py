import json
import random

import pytest

from qtchar.algebra import Monomial, YtElement
from qtchar.characters import RepElement
from qtchar.errors import ParseError
from qtchar.grammar import (
    format_rep_monomial,
    Namer,
    parse_basis_monomial,
    parse_element,
    parse_element_lines,
    parse_monomial,
    parse_rep_monomial,
    parse_tpoly,
    serialize_element,
    serialize_tpoly,
    term_list,
)
from qtchar.tpoly import ONE, TPoly

from conftest import random_element


def test_parse_single_factors(sl2, b2):
    assert parse_monomial(sl2, "Y[1,0]") == YtElement.from_monomial(Monomial.y(1, 0))
    # Y[l] is rank-1 shorthand for node 1
    assert parse_monomial(sl2, "Y[4]^-2") == YtElement.from_monomial(
        Monomial.y(1, 4, -2)
    )
    assert parse_monomial(b2, "t^3 Y[2,1]") == YtElement.from_monomial(
        Monomial.y(2, 1), TPoly.t_power(3)
    )
    assert parse_monomial(b2, "t Y[2,1]") == YtElement.from_monomial(
        Monomial.y(2, 1), TPoly.t_power(1)
    )


def test_parse_a_factor_expands(b2):
    got = parse_monomial(b2, "A[1,2]^-1")
    want = YtElement.from_monomial(b2.a_monomial_expand({(1, 2): 1}))
    assert got == want


def test_twisted_order_matters(sl2):
    left = parse_monomial(sl2, "Y[1,2] Y[1,0]")
    right = parse_monomial(sl2, "Y[1,0] Y[1,2]")
    assert left != right
    assert left == right.scale(TPoly.t_power(sl2.gamma(1, 2, 1, 0)))


def test_normal_ordered_group(sl2):
    grouped = parse_monomial(sl2, ": Y[1,2] Y[1,0] :")
    assert grouped == YtElement.from_monomial(Monomial({(1, 0): 1, (1, 2): 1}))
    with pytest.raises(ParseError):
        parse_monomial(sl2, ": Y[1,0] t^2 :")
    with pytest.raises(ParseError):
        parse_monomial(sl2, ": Y[1,0]")


def test_normal_ordered_group_errors_say_what_is_wrong(a2):
    with pytest.raises(ParseError, match=r"^unterminated : \.\.\. : group$"):
        parse_monomial(a2, ": Y[1,0]")
    with pytest.raises(ParseError, match=r"^t-powers are not allowed inside : \.\.\. : groups$"):
        parse_monomial(a2, ": t Y[1,0] :")


def test_parse_errors(sl2, b2):
    for bad in ["", "Z[1,0]", "Y[1,0]^0", "A[1,0]^2", "A[1,0]^1", "Y[1;0]",
                # ASCII digits only: Arabic-Indic and full-width digits
                "Y[\u0661,0]", "Y[1,\u0660]", "Y[1,0]^\u0662", "t^\u0663",
                "Y[\uff11,0]", "Y[1,0]^\uff12"]:
        with pytest.raises(ParseError):
            parse_monomial(sl2, bad)
    with pytest.raises(ParseError):
        parse_monomial(sl2, "Y[2,0]")  # node outside rank 1
    assert parse_monomial(b2, "Y[2,0]").coeff(Monomial.y(2, 0)) == ONE


def test_element_lines_with_comments(sl2):
    text = """
    # two terms
    Y[1,0]
    t^-1 Y[1,2]^-1   # trailing comment
    """
    x = parse_element_lines(sl2, text)
    assert len(x) == 2
    assert x.coeff(Monomial({(1, 2): -1})) == TPoly.t_power(-1)


def test_basis_monomial_roundtrip():
    m = Monomial({(1, 0): 2, (2, 3): -1})
    assert parse_basis_monomial(str(m)) == m
    with pytest.raises(ParseError):
        parse_basis_monomial("t^2 Y[1,0]")
    with pytest.raises(ParseError):
        parse_basis_monomial("A[1,0]^-1")


def test_element_serialization_roundtrip(b2):
    rng = random.Random(9)
    for _ in range(10):
        x = random_element(b2, rng)
        assert parse_element(serialize_element(x)) == x
    assert parse_element(serialize_element(YtElement.zero())) == YtElement.zero()
    # the unit monomial serializes as "1", and "1" parses back to it
    with_unit = YtElement.unit().scale(TPoly.t_power(2)) + random_element(b2, rng)
    assert parse_element(serialize_element(with_unit)) == with_unit


def _shared_coefficient_element(rng, rep):
    """Terms on small random monomials (the unit among them), each coefficient
    drawn from a pool whose members are shared by several terms, with equal
    but distinct copies beside them; t-exponents and coefficients run
    negative and multi-digit."""
    pool = [ONE, TPoly({0: 1})]
    for _ in range(rng.randrange(1, 5)):
        p = TPoly({rng.randrange(-120, 121): rng.choice([-15, -1, 1, 2, 31])
                   for _ in range(rng.randrange(1, 4))})
        pool += [p, TPoly(dict(p.coeffs))]
    terms = {Monomial.unit(): rng.choice(pool)}
    for _ in range(rng.randrange(0, 12)):
        d = {(rng.randrange(1, 4), rng.randrange(-12, 13)): rng.choice([1, 2, 11])
             * (1 if rep else rng.choice([-1, 1])) for _ in range(rng.randrange(1, 4))}
        terms[Monomial(d)] = rng.choice(pool)
    return (RepElement if rep else YtElement)._adopt(terms)


@pytest.mark.parametrize("rep", [False, True], ids=["yt", "rep"])
def test_term_list_matches_per_term_serialization(rep):
    """term_list writes the bytes of one freshly serialized dict per term, and
    terms that hold one coefficient object share one dict."""
    rng = random.Random(23)
    name = format_rep_monomial if rep else str
    cls = RepElement if rep else YtElement
    elements = [_shared_coefficient_element(rng, rep) for _ in range(40)]
    elements += [cls(), cls.from_monomial(Monomial.unit())]
    for x in elements:
        want = [{"coeff": serialize_tpoly(p), "monomial": name(m)} for m, p in x.sorted_terms()]
        got = term_list(x, name)
        for kwargs in ({"sort_keys": True}, {"sort_keys": True, "indent": 2}):
            assert json.dumps(got, **kwargs) == json.dumps(want, **kwargs)
        by_object = {}
        for (_, p), term in zip(x.sorted_terms(), got):
            assert by_object.setdefault(id(p), term["coeff"]) is term["coeff"]
    x = elements[0]
    assert serialize_element(x) == {"terms": term_list(x)}


def _random_monomial(rng):
    """The unit, or up to five factors: levels of either sign, exponents +-1
    or of several digits."""
    return Monomial({(rng.randrange(1, 4), rng.randrange(-15, 16)):
                     rng.choice([1, -1, 2, -3, 10, -12, 345, -6789])
                     for _ in range(rng.randrange(0, 6))})


def test_namer_writes_the_reference_names():
    """One Namer per letter names every monomial as str(m), or with X as
    format_rep_monomial(m), while its factor table grows across the calls."""
    rng = random.Random(29)
    monomials = [Monomial.unit()] + [_random_monomial(rng) for _ in range(300)]
    assert any(e == 1 for m in monomials for _, e in m.items())
    y, x = Namer(), Namer("X")
    for m in monomials + monomials:
        assert y(m) == str(m)
        assert x(m) == format_rep_monomial(m)
    element = YtElement({m: ONE for m in monomials})
    assert [t["monomial"] for t in term_list(element)] == [str(m) for m, _ in element.sorted_terms()]


def test_unit_and_empty_exponent_maps():
    for parse in (parse_basis_monomial, parse_rep_monomial):
        assert parse("1") == parse(" 1 ") == Monomial.unit()
        for text in ("", "  ", "1 1"):
            with pytest.raises(ParseError):
                parse(text)
    with pytest.raises(ParseError):
        parse_basis_monomial("1 Y[1,0]")


def test_twisted_grammar_reads_the_unit(sl2):
    assert parse_monomial(sl2, "1") == YtElement.unit()
    assert parse_element_lines(sl2, "1\nY[1,0]") == YtElement({
        Monomial.unit(): ONE, Monomial.y(1, 0): ONE})
    for text in ("", "  ", "1 1"):
        with pytest.raises(ParseError):
            parse_monomial(sl2, text)


def test_tpoly_serialization_roundtrip():
    p = TPoly({-2: 3, 0: -1, 5: 2})
    assert parse_tpoly(serialize_tpoly(p)) == p


def test_rep_monomial_grammar():
    assert parse_rep_monomial("X[1,0]^2 X[2,3]") == Monomial({(1, 0): 2, (2, 3): 1})
    m = Monomial({(2, -3): 1, (1, 0): 2, (3, 5): 4})
    assert format_rep_monomial(m) == "X[1,0]^2 X[2,-3] X[3,5]^4"
    assert parse_rep_monomial(format_rep_monomial(m)) == m
    assert format_rep_monomial(Monomial.unit()) == "1"
    with pytest.raises(ParseError):
        parse_rep_monomial("X[1,0]^-1")
    with pytest.raises(ParseError):
        parse_rep_monomial("A[1,0]^-1")
