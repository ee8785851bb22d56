import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qtchar
from qtchar import algebra, cartan
from qtchar.cartan import (
    CartanMatrix,
    cartan_from_json,
    named_cartan,
    validate_cartan,
)
from qtchar.errors import (
    MAX_RANK,
    BudgetExceeded,
    NotCartan,
    NotFiniteType,
    NotSymmetrizable,
    ParseError,
)

DEPTH_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 5)]
    + [f"C{n}" for n in range(2, 5)]
    + ["D4", "D5", "G2", "F4", "E6", "E7", "E8"]
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


def test_symmetrizers():
    assert algebra("B2").cartan.r == [1, 2]
    assert algebra("C3").cartan.r == [2, 2, 1]
    assert algebra("G2").cartan.r == [1, 3]
    assert algebra("A3").cartan.r == [1, 1, 1]


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


def test_rank_limit(monkeypatch):
    """Past MAX_RANK a name is refused before its matrix is built."""
    assert len(named_cartan(f"A{MAX_RANK}")) == MAX_RANK

    def refuse(n):
        raise AssertionError(f"a rank-{n} chain was built")

    monkeypatch.setattr(cartan, "_chain", refuse)
    for name in (f"A{MAX_RANK + 1}", f"B{MAX_RANK + 1}", f"C{MAX_RANK + 1}", f"D{MAX_RANK + 1}",
                 "A100000"):
        with pytest.raises(BudgetExceeded):
            named_cartan(name)
    with pytest.raises(ParseError):
        named_cartan(f"E{MAX_RANK + 1}")  # not a type, whatever its rank


def test_validation_errors():
    with pytest.raises(NotCartan):
        CartanMatrix([[1]])
    with pytest.raises(NotCartan):
        CartanMatrix([[2, 1], [-1, 2]])
    with pytest.raises(NotCartan):
        CartanMatrix([[2, 0], [-1, 2]])
    with pytest.raises(NotFiniteType):
        validate_cartan([[2, -2], [-2, 2]])  # affine
    with pytest.raises(NotFiniteType):
        validate_cartan([[2, -4], [-1, 2]])
    # the elimination pivot that first fails to be positive at z = 1
    for entries in [
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2(1): minor 3 is 0
        [[2, -3], [-3, 2]],  # hyperbolic: minor 2 is -5
        [[2, 0, -1, 0, 0], [0, 2, -1, 0, 0], [-1, -1, 2, -1, -1],
         [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],  # affine D4(1): minor 5 is 0
        [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]],  # A2 + A1(1): minor 4 is 0
    ]:
        with pytest.raises(NotFiniteType):
            validate_cartan(entries)
    a1_a2 = validate_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]])
    assert a1_a2.r == [1, 1, 1]
    assert a1_a2.heights == [Fraction(1, 2), 1, 1]


def test_symmetrizable_consistency():
    # a 3-cycle with inconsistent ratios cannot be symmetrized
    with pytest.raises((NotSymmetrizable, NotFiniteType)):
        validate_cartan([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]])


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
        {"type": "A2", "matrix": [[2, -1], [-1, 2]]},
        {"type": "A2", "note": "x"},
        {},
    ],
)
def test_json_inputs_rejected(obj):
    with pytest.raises(ParseError):
        cartan_from_json(obj)


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


def test_components():
    cm = CartanMatrix([[2, 0], [0, 2]])
    assert cm.components() == [[1], [2]]
    assert CartanMatrix(named_cartan("A3")).components() == [[1, 2, 3]]
