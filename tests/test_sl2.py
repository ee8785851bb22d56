import random
from itertools import combinations_with_replacement

import pytest

from qtchar.algebra import Monomial
from qtchar.errors import NotDominant
from qtchar.screening import f_it
from qtchar.sl2 import decompose_segments, sl2_algebra
from qtchar.tpoly import ONE

from reference import classic_L, e_it, ft_segment, is_irregular


def mono(*levels):
    d = {}
    for l in levels:
        d[(1, l)] = d.get((1, l), 0) + 1
    return Monomial(d)


def test_decompose_simple():
    assert decompose_segments(mono(0, 2, 4)) == [range(0, 6, 2)]
    assert decompose_segments(mono(0, 4)) == [range(0, 2, 2), range(4, 6, 2)]
    assert decompose_segments(mono(0, 0, 2)) == [range(0, 4, 2), range(0, 2, 2)]


def test_decompose_merges_special_position():
    # {0,2} and {2,4} sit in special position: union {0,2,4}, meet {2}
    assert decompose_segments(mono(0, 2, 2, 4)) == [range(0, 6, 2), range(2, 4, 2)]


def _special_pair(s1, s2):
    """The union of the two segments is a 2-segment properly containing each."""
    a, b = set(s1), set(s2)
    u = a | b
    lo, hi = min(u), max(u)
    return u == set(range(lo, hi + 1, 2)) and u > a and u > b


def test_decompose_is_in_general_position_and_covers_every_level():
    """Every monomial of degree <= 5 on levels 0..10: the greedy needs no repair."""
    for degree in range(6):
        for levels in combinations_with_replacement(range(11), degree):
            segments = decompose_segments(mono(*levels))
            covered = sorted(l for seg in segments for l in seg)
            assert covered == list(levels)
            assert segments == sorted(segments, key=lambda s: (s.start, -len(s)))
            for k, s1 in enumerate(segments):
                for s2 in segments[k + 1:]:
                    assert not _special_pair(s1, s2), (levels, s1, s2)


def test_decompose_rejects_negative_exponent(sl2):
    with pytest.raises(NotDominant):
        decompose_segments(Monomial({(1, 0): -1}))
    with pytest.raises(ValueError):
        decompose_segments(Monomial({(2, 0): 1}))


def test_irregularity():
    assert not is_irregular(mono(0, 2))
    assert not is_irregular(mono(0, 4))
    # Segment {0} sits inside {0,2} both in place and shifted by 2
    assert is_irregular(mono(0, 0, 2))
    assert not is_irregular(mono(0, 0))


def test_classic_L_single_y():
    assert classic_L(mono(0)) == {
        mono(0): 1,
        Monomial({(1, 2): -1}): 1,
    }


def test_classic_L_segment_size():
    for k in range(4):
        L = classic_L(mono(*range(0, 2 * k + 2, 2)))
        assert sum(L.values()) == k + 2
        assert all(c == 1 for c in L.values())


def test_ft_segment_matches_classic_at_t1(sl2):
    for start, count in [(0, 1), (0, 2), (2, 3), (-4, 4)]:
        seg = range(start, start + 2 * count, 2)
        f = ft_segment(sl2, seg)
        assert f.coeff(mono(*seg)) == ONE
        assert f.dominant_part() == {mono(*seg): ONE}
        assert f.at_one() == classic_L(mono(*seg))


def test_ft_segment_is_f_it_at_t_level():
    """The closed form of a segment is the rank-1 character of its monomial,
    coefficient for coefficient in t, not only at t = 1."""
    s2 = sl2_algebra()
    for start in range(-4, 5):
        for count in range(1, 6):
            seg = range(start, start + 2 * count, 2)
            assert ft_segment(s2, seg) == f_it(s2, 1, mono(*seg)), seg


def test_et_leading_coefficient_is_one():
    """The leading coefficient of E_t(m) is a single t-power, so it normalizes to 1."""
    s2 = sl2_algebra()
    for m in [mono(0, 2), mono(0, 0), mono(0, 4, 6)]:
        assert e_it(s2, 1, m).coeff(m).single_power()[1] == 1


def test_ft_sl2_unique_dominant_and_t1():
    s2 = sl2_algebra()
    rng = random.Random(8)
    done = 0
    while done < 12:
        m = mono(*(rng.choice(range(0, 12, 2)) for _ in range(rng.randrange(1, 4))))
        if is_irregular(m):
            continue
        done += 1
        f = f_it(s2, 1, m)
        assert f.dominant_part() == {m: ONE}
        assert f.at_one() == classic_L(m)


def test_ft_sl2_irregular_t1_drops_a_summand():
    # Y0^2 Y2 is irregular; triangular subtraction overshoots at t = 1
    # by exactly the classical character of Y0
    m = mono(0, 0, 2)
    got = f_it(sl2_algebra(), 1, m).at_one()
    want = classic_L(m)
    diff = {}
    for k in set(got) | set(want):
        c = got.get(k, 0) - want.get(k, 0)
        if c:
            diff[k] = c
    assert diff == {k: -v for k, v in classic_L(mono(0)).items()}


def test_ft_sl2_segment_example():
    # {0,2} is one segment, so its character has the classical 3 terms
    f = f_it(sl2_algebra(), 1, mono(0, 2))
    assert len(f) == 3
    assert f.coeff(mono(0, 2)) == ONE


def test_sl2_algebra_is_shared():
    assert sl2_algebra() is sl2_algebra()
    assert sl2_algebra().cartan.n == 1
