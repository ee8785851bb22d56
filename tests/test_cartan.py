import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import qtchar
from qtchar import algebra, cartan
from qtchar.cartan import (
    SymmetrizedCartan,
    cartan_from_json,
    named_cartan,
)
from qtchar.errors import (
    MAX_RANK,
    BudgetExceeded,
    InternalInconsistency,
    NotCartan,
    NotFiniteType,
    NotSymmetrizable,
    ParseError,
)


def _blocks(*names):
    """Block-diagonal Cartan matrix of the named types, in order."""
    parts = [named_cartan(name) for name in names]
    n = sum(len(part) for part in parts)
    m = [[0] * n for _ in range(n)]
    o = 0
    for part in parts:
        for i, row in enumerate(part):
            m[o + i][o:o + len(row)] = row
        o += len(part)
    return m


DEPTH_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 5)]
    + [f"C{n}" for n in range(2, 5)]
    + ["D4", "D5", "G2", "F4", "E6", "E7", "E8"]
    # components with different r: the series starts at -min r
    + [pytest.param(_blocks(*names), id="x".join(names))
       for names in [("A1", "G2"), ("B2", "G2"), ("A2", "B2", "A1")]]
)


@pytest.mark.parametrize("name", DEPTH_TYPES)
def test_inverse_series_to_depth_60(name):
    alg = algebra(name)
    n = alg.cartan.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for r in range(-60, 3):
                total = 0
                for k in range(1, n + 1):
                    for e, c in alg.cartan.cz[i - 1][k - 1].items():
                        total += c * alg.tilde(k, j, r - e)
                assert total == (1 if (i == j and r == 0) else 0)


@pytest.mark.parametrize("name", ["B2", "G2", "E8", pytest.param(_blocks("A1", "G2"), id="A1xG2")])
def test_inverse_series_at_far_levels(name):
    """Rows wrap at their period, so a lookup 10^30 levels down stays exact and
    no row grows with the depth asked for.  The 10^6 lookups and the row check
    come first: a row filled level by level to there holds about n 10^6 entries."""
    alg = algebra(name)
    n = alg.cartan.n
    for base in (-10**6, -10**30):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for r in range(base - 6, base + 1):
                    total = 0
                    for k in range(1, n + 1):
                        for e, c in alg.cartan.cz[i - 1][k - 1].items():
                            total += c * alg.tilde(k, j, r - e)
                    assert total == 0
        assert max(len(row) for row in alg.series._rows) <= 2000


def _det(m):
    """Determinant by the permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def _cycles_balance(m):
    """Kac's criterion: symmetrizable iff every cycle's product equals its reverse's."""
    n = len(m)
    for k in range(3, n + 1):
        for cyc in itertools.permutations(range(n), k):
            pairs = [(cyc[s], cyc[(s + 1) % k]) for s in range(k)]
            if math.prod(m[i][j] for i, j in pairs) != math.prod(m[j][i] for i, j in pairs):
                return False
    return True


def test_random_cartan_sweep():
    """Acceptance follows Kac's cycle criterion and the integer leading
    principal minors; each accepted matrix has C(z) C~(z) = I to depth 30."""
    rng = random.Random("cartan-sweep")
    outcomes = {"accepted": 0, NotSymmetrizable: 0, NotFiniteType: 0}
    for _ in range(200):
        n = rng.randint(1, 4)
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    m[i][j], m[j][i] = -rng.choice([1, 1, 1, 2, 3, 4]), -rng.choice([1, 1, 2, 3])
        minors = [_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        if not _cycles_balance(m):
            expected = NotSymmetrizable
        elif any(d <= 0 for d in minors):
            expected = NotFiniteType
            first = next(k for k, d in enumerate(minors, 1) if d <= 0)
        else:
            expected = "accepted"
        outcomes[expected] += 1
        if expected != "accepted":
            with pytest.raises(expected) as info:
                SymmetrizedCartan(m)
            if expected is NotFiniteType:
                assert str(info.value).endswith(f"(minor {first})")
            continue
        c = SymmetrizedCartan(m)
        assert all(c.r[i] * m[i][j] == c.r[j] * m[j][i] for i in range(n) for j in range(n)), m
        series = cartan.InvCartanSeries(c)
        for i in range(n):
            for j in range(n):
                for r in range(-30, 3):
                    total = sum(coeff * series.entry_coeff(k + 1, j + 1, r - e)
                                for k in range(n) for e, coeff in c.cz[i][k].items())
                    assert total == (i == j and r == 0), (m, i, j, r)
    assert min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_series_needs_one_top_term_per_column(monkeypatch, name):
    """An off-diagonal term of degree r_j in column j would make the
    recurrence read its own level, so the series refuses it."""
    c = SymmetrizedCartan(named_cartan(name))
    cz = [list(row) for row in c.cz]
    cz[0][1] = {c.r[1]: -1}
    monkeypatch.setattr(c, "cz", cz)
    with pytest.raises(InternalInconsistency, match="column 2"):
        cartan.InvCartanSeries(c)


def test_symmetrizers():
    assert algebra("B2").cartan.r == [1, 2]
    assert algebra("C3").cartan.r == [2, 2, 1]
    assert algebra("G2").cartan.r == [1, 3]
    assert algebra("A3").cartan.r == [1, 1, 1]
    # normalized per component: gcd 1 within G2, not only overall
    assert SymmetrizedCartan([[2, 0, 0], [0, 2, -1], [0, -3, 2]]).r == [1, 3, 1]


def test_named_types_shapes():
    assert named_cartan("A1") == [[2]]
    assert named_cartan("B2") == [[2, -2], [-1, 2]]
    assert named_cartan("G2") == [[2, -3], [-1, 2]]
    d4 = named_cartan("D4")
    assert len(d4) == 4 and d4[3][1] == -1 and d4[3][2] == 0
    with pytest.raises(ParseError):
        named_cartan("H2")
    with pytest.raises(ParseError):
        named_cartan("B1")
    for name in ["A\u00b2", "A\u0661", "A\uff13"]:  # superscript, Arabic-Indic, full-width
        with pytest.raises(ParseError):
            named_cartan(name)


def _det_exact(m):
    """Determinant by exact Fraction elimination; _det's permutations cannot reach rank 32."""
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return 0
        if p != k:
            rows[k], rows[p], det = rows[p], rows[k], -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            if rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return det


FAMILY_RANKS = {"A": range(1, MAX_RANK + 1), "B": range(2, MAX_RANK + 1),
                "C": range(2, MAX_RANK + 1), "D": range(4, MAX_RANK + 1), "E": range(6, 9),
                "F": [4], "G": [2]}


@pytest.mark.parametrize("fam", sorted(FAMILY_RANKS))
def test_named_types_pinned(fam):
    """Each named type at every rank has its determinant, n - 1 bonds forming a
    connected graph, its arrow entries in place and its branch node, pinned
    from outside the table that builds it."""
    for n in FAMILY_RANKS[fam]:
        name, m = f"{fam}{n}", named_cartan(f"{fam}{n}")
        dets = {"A": n + 1, "B": 2, "C": 2, "D": 4, "E": 9 - n, "F": 1, "G": 1}
        assert _det_exact(m) == dets[fam], name
        bonds = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if m[i - 1][j - 1]}
        assert len(bonds) == n - 1, name
        reached = {1}
        for _ in range(n):
            reached |= {k for b in bonds if reached & set(b) for k in b}
        assert reached == set(range(1, n + 1)), name
        arrows = {(i, j): m[i - 1][j - 1] for i in range(1, n + 1) for j in range(1, n + 1)
                  if i != j and m[i - 1][j - 1] < -1}
        want = {"B": {(n - 1, n): -2}, "C": {(n, n - 1): -2}, "F": {(2, 3): -2},
                "G": {(1, 2): -3}}
        assert arrows == want.get(fam, {}), name
        for i in range(1, n + 1):  # 2 on the diagonal, -1 on the rest of each bond
            for j in range(1, n + 1):
                bond = (min(i, j), max(i, j)) in bonds
                entry = 2 if i == j else arrows.get((i, j), -1 if bond else 0)
                assert m[i - 1][j - 1] == entry, (name, i, j)
        degree = {k: sum(k in b for b in bonds) for k in range(1, n + 1)}
        branch = {"D": {n - 2: 3}, "E": {4: 3}}
        assert {k: d for k, d in degree.items() if d > 2} == branch.get(fam, {}), name
        if fam == "E":
            assert {b for b in bonds if 2 in b} == {(2, 4)}, name


def test_rank_limit(monkeypatch):
    """Past MAX_RANK a name is refused before its matrix is built."""
    assert len(named_cartan(f"A{MAX_RANK}")) == MAX_RANK

    def refuse(n, *_):
        raise AssertionError(f"a rank-{n} chain was built")

    monkeypatch.setattr(cartan, "_from_bonds", refuse)
    for name in (f"A{MAX_RANK + 1}", f"B{MAX_RANK + 1}", f"C{MAX_RANK + 1}", f"D{MAX_RANK + 1}",
                 "A100000"):
        with pytest.raises(BudgetExceeded):
            named_cartan(name)
    with pytest.raises(ParseError):
        named_cartan(f"E{MAX_RANK + 1}")  # not a type, whatever its rank


def test_validation_errors():
    with pytest.raises(NotCartan):
        SymmetrizedCartan([[1]])
    with pytest.raises(NotCartan):
        SymmetrizedCartan([[2, 1], [-1, 2]])
    with pytest.raises(NotCartan):
        SymmetrizedCartan([[2, 0], [-1, 2]])
    with pytest.raises(NotFiniteType):
        SymmetrizedCartan([[2, -2], [-2, 2]])  # affine
    with pytest.raises(NotFiniteType):
        SymmetrizedCartan([[2, -4], [-1, 2]])
    # the elimination pivot that first fails to be positive at z = 1
    for entries in [
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2(1): minor 3 is 0
        [[2, -3], [-3, 2]],  # hyperbolic: minor 2 is -5
        [[2, 0, -1, 0, 0], [0, 2, -1, 0, 0], [-1, -1, 2, -1, -1],
         [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],  # affine D4(1): minor 5 is 0
        [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]],  # A2 + A1(1): minor 4 is 0
    ]:
        with pytest.raises(NotFiniteType):
            SymmetrizedCartan(entries)
    a1_a2 = SymmetrizedCartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]])
    assert a1_a2.r == [1, 1, 1]
    assert a1_a2.heights == [Fraction(1, 2), 1, 1]


@pytest.mark.parametrize("entries,twice", [([[2, 0, 0], [0, 2, -1], [0, -1, 2]], [1, 2, 2]),
                                           ([[2, -1], [-3, 2]], [10, 6])])
def test_double_heights_are_integers(entries, twice):
    """double_heights holds 2 ht(omega_k) as ints, which depth_bound sums."""
    c = SymmetrizedCartan(entries)
    assert c.double_heights == [2 * h for h in c.heights] == twice
    assert all(type(h2) is int for h2 in c.double_heights)


def test_non_integral_double_height_is_inconsistent(monkeypatch):
    """2<omega_k, rho^v> is an integer for every finite type; an inverse whose
    column sums break that is refused when the Cartan layer is built."""
    monkeypatch.setattr(cartan, "_inverse", lambda entries: [[Fraction(1, 4)]])
    with pytest.raises(InternalInconsistency, match="not all integers"):
        SymmetrizedCartan([[2]])


def test_symmetrizable_consistency():
    # a 3-cycle with inconsistent ratios cannot be symmetrized
    with pytest.raises((NotSymmetrizable, NotFiniteType)):
        SymmetrizedCartan([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]])


def test_json_inputs():
    assert cartan_from_json("b2").r == [1, 2]
    assert cartan_from_json({"type": "A2"}).n == 2
    assert cartan_from_json({"matrix": [[2]]}).n == 1


@pytest.mark.parametrize(
    "obj",
    [
        {"rank": 2},
        17,
        {"matrix": [[2.5, -1], [-1, 2]]},  # would truncate to A2
        {"matrix": [[2.0, -1], [-1, 2]]},
        {"matrix": [["2", -1], [-1, 2]]},
        {"matrix": [[2, 0], [False, 2]]},  # would read as A1xA1
        {"matrix": [[2, True], [-1, 2]]},
        {"matrix": [[2, None], [-1, 2]]},
        {"matrix": 5},
        {"matrix": [2, 2]},
        {"type": 5},
        {"type": None},
        {"type": ["A2"]},
        {"type": "E" + "9" * 99},  # not a type; refused before any matrix is built
        {"type": "A2", "matrix": [[2, -1], [-1, 2]]},
        {"type": "A2", "note": "x"},
        {},
    ],
)
def test_json_inputs_rejected(obj):
    with pytest.raises(ParseError):
        cartan_from_json(obj)


def test_non_string_and_non_object_inputs_are_named():
    with pytest.raises(ParseError, match="^Cartan type must be a string, not 3$"):
        named_cartan(3)
    with pytest.raises(ParseError, match="^Cartan input must be a name or a JSON object$"):
        cartan_from_json([[2]])


def test_import_leaves_sympy_out():
    src = os.path.dirname(os.path.dirname(qtchar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, qtchar; print('sympy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_simply_laced_flag():
    assert algebra("A3").cartan.is_simply_laced()
    assert algebra("D4").cartan.is_simply_laced()
    assert not algebra("B2").cartan.is_simply_laced()
    assert not algebra("G2").cartan.is_simply_laced()
