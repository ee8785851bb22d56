import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtchar import cartan
from qtchar.cli import main
from qtchar.grammar import parse_element

DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tchar_json_roundtrip(capsys, sl2):
    code, out, _ = run(capsys, "tchar", "Y[1,0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == "Y[1,0]"
    elem = parse_element(payload["element"])
    assert len(elem) == 2
    # keys are emitted sorted, so the output is stable across runs
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_tchar_t1_and_text(capsys):
    code, out, _ = run(capsys, "tchar", "--cartan", "A2", "--format", "text",
                       "--t1", "Y[1,0]")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 3
    assert all(l.startswith("(1)") for l in lines)


def test_tchar_dot_output(capsys):
    code, out, _ = run(capsys, "tchar", "--cartan", "A2", "--format", "dot",
                       "Y[1,0]")
    assert code == 0
    assert out.startswith("digraph")
    assert 'label="1,1"' in out and 'label="2,2"' in out


@pytest.mark.parametrize(
    "cartan,seed,golden",
    [("G2", "Y[2,0]", "g2_y20.dot"),
     ('{"matrix": [[2, -2], [-1, 2]]}', "Y[2,0] Y[2,1]", "b2_y20_y21.dot")],
)
def test_tchar_dot_output_is_pinned(capsys, cartan, seed, golden):
    code, out, _ = run(capsys, "tchar", "--cartan", cartan, "--format", "dot", seed)
    assert code == 0
    assert out == (DATA / golden).read_text(encoding="utf-8")


def test_kl_example(capsys):
    code, out, _ = run(capsys, "kl", "--cartan", "B2", "Y[2,0] Y[1,5]")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        {"monomial": "Y[1,1]", "shift": 0, "P": {"-1": 1}}
    ]


def test_product_text(capsys):
    code, out, _ = run(capsys, "product", "--cartan", "A1", "--format", "text",
                       "X[1,0]", "X[1,2]")
    assert code == 0
    assert "X[1,0] X[1,2]" in out


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "tchar", "Y[oops]")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "tchar", "--cartan", "Q9", "Y[1,0]")
    assert code == 2
    code, _, err = run(capsys, "tchar", "Y[2,0]")  # node outside rank 1
    assert code == 2
    for node in (2, 0, -1):
        code, out, err = run(capsys, "product", "X[1,0]", f"X[{node},0]")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
    code, out, err = run(capsys, "tchar", "Y[\u0661,0]")  # Arabic-Indic digit one
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    for seed in ("Y[1,0]^" + "9" * 5000, "Y[1,%s]" % ("9" * 5000), "t^" + "9" * 5000):
        code, out, err = run(capsys, "tchar", seed)  # past int()'s 4300-digit limit
        assert code == 2 and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--cartan", '{"type": 5}'],
        ["--cartan", '{"matrix": [[2.5, -1], [-1, 2]]}'],
        ["--cartan", '{"type": "A2", "matrix": [[2, -1], [-1, 2]]}'],
        ["--budget-monomials", "0"],
        ["--budget-depth", "0"],
        ["--budget-monomials", "\u0661"],  # Arabic-Indic digit one
        ["--budget-monomials", " 3 "],
        ["--budget-depth", "\uff13"],  # full-width digit three
        ["--budget-monomials", "1_000"],
        ["--budget-depth", "x"],
        ["--cartan", "A" + "9" * 5000],  # past int()'s 4300-digit limit
        ["--cartan", '{"matrix": [[%s]]}' % ("9" * 5000)],
        ["--budget-monomials", "9" * 5000],
    ],
)
def test_bad_cartan_and_budget_exit_2(capsys, argv):
    code, out, err = run(capsys, "tchar", *argv, "Y[1,0]")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("parse error")


@pytest.mark.parametrize(
    "argv",
    [
        ["kl", "--format", "dot", "--cartan", "B2", "Y[2,0] Y[1,5]"],
        ["product", "--format", "dot", "X[1,0]", "X[1,2]"],
        ["verify", "--format", "dot", "involution"],
        ["kl", "--t1", "--cartan", "B2", "Y[2,0] Y[1,5]"],
        ["verify", "--t1", "involution"],
        ["tchar", "--t1", "--format", "dot", "Y[1,0]"],
    ],
)
def test_dot_format_only_for_tchar(capsys, argv):
    """--format dot outside tchar, and --t1 where it would change nothing, are parse errors."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("parse error")


def test_e8_node1_under_default_flags(capsys):
    """A-depth 92: only the exact bound applies without --budget-depth."""
    code, out, err = run(capsys, "tchar", "--cartan", "E8", "Y[1,0]")
    assert code == 0 and err == ""
    assert len(json.loads(out)["element"]["terms"]) == 3875


def test_domain_error_exit_3(capsys):
    code, _, err = run(capsys, "tchar", "Y[1,0]^-1")
    assert code == 3 and "domain error" in err
    code, _, err = run(capsys, "tchar", "--cartan", '{"matrix": [[2, -2], [-2, 2]]}',
                       "Y[1,0]")
    assert code == 3


def test_budget_exceeded_exit_4(capsys):
    code, _, err = run(capsys, "tchar", "--cartan", "G2",
                       "--budget-monomials", "3", "Y[2,0]")
    assert code == 4 and "budget exceeded" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tchar", "Y[1,0]^99999999999999999999"],
        ["kl", "Y[1,0]^99999999999999999999"],
        ["product", "X[1,0]^99999999999999999999", "X[1,2]"],
    ],
)
def test_seed_past_monomial_budget_exit_4(capsys, argv):
    """Rejected from the exact size bound before any work is done."""
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded")


def _refuse(*_args):
    raise AssertionError("a Cartan matrix past MAX_RANK was built or eliminated")


@pytest.mark.parametrize(
    "spec",
    [
        "A100000",
        "D33",
        json.dumps({"matrix": [[2 if i == j else -1 if abs(i - j) == 1 else 0
                                for j in range(33)] for i in range(33)]}),  # the A33 chain
    ],
)
def test_rank_past_max_rank_exit_4(capsys, monkeypatch, spec):
    """Refused before _chain allocates and before the elimination runs."""
    monkeypatch.setattr(cartan, "_chain", _refuse)
    monkeypatch.setattr(cartan, "_det_and_adjugate", _refuse)
    code, out, err = run(capsys, "tchar", "--cartan", spec, "Y[1,0]")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded")


def test_product_running_size_exit_4(capsys):
    """Each kept partial product of star_product is held to --budget-monomials."""
    code, out, err = run(capsys, "product", "--cartan", "G2", "--budget-monomials", "100",
                         "X[2,0] X[2,1]", "X[2,2] X[2,3]")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    assert "partial product" in err and "reached 121 monomials, more than 100" in err


def test_e_t_running_size_exit_4(capsys):
    """E_t's running product is held to --budget-monomials after each factor."""
    code, out, err = run(capsys, "kl", "--cartan", "G2", "--budget-monomials", "300",
                         "Y[2,0] Y[2,1] Y[2,2] Y[2,3]")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and "reached 2745 monomials, more than 300" in err


def test_product_below_e_t_size_exit_0(capsys):
    """The product forms no E_t, so a budget below E_t(Y[2,0] Y[2,1] Y[2,2] Y[2,3])'s
    2745 monomials does not stop it.  Both sides are in E_t's level order, so
    the full product chi_qt(x) chi_qt(y) is that E_t, and the full path returns
    the one monomial with coefficient 1."""
    code, out, err = run(capsys, "product", "--cartan", "G2", "--budget-monomials", "300",
                         "X[2,0] X[2,1]", "X[2,2] X[2,3]")
    assert code == 0 and err == ""
    assert json.loads(out) == {"terms": [{"coeff": {"0": 1},
                                          "monomial": "X[2,0] X[2,1] X[2,2] X[2,3]"}]}


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "verify", "appendix")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 16


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nope"])


def test_verify_involution_text(capsys):
    code, out, _ = run(capsys, "verify", "--format", "text", "involution")
    assert code == 0
    assert out.count("PASS") == 3 and "suite passed" in out


# ---------------------------------------------------------------------------
# fuzz: every input exits 0, 2, 3, 4 or 5; a failure prints one stderr line
# ---------------------------------------------------------------------------


def _weighted(*pairs):
    """Draw from each strategy with the given weight (one_of merges repeats)."""
    return st.sampled_from([s for w, s in pairs for _ in range(w)]).flatmap(lambda s: s)


_junk = st.text(st.characters(blacklist_characters="0123456789"), max_size=6)
_small = st.integers(-3, 4)


def _valid_factor(letter):
    return st.builds(lambda i, l, e: f"{letter}[{i},{l}]" + (f"^{e}" if e > 1 else ""),
                     st.integers(1, 3), _small, st.integers(1, 2))


@st.composite
def _odd_factor(draw, letter):
    i, l, e = draw(_small), draw(_small), draw(st.integers(-2, 2))
    other_digit = draw(st.sampled_from(["١", "３", "²", "१"]))
    return draw(st.sampled_from([
        f"{letter}[{i},{l}]^{e}",
        f"{letter}[{l}]",
        f"{letter}[{other_digit},{l}]",
        f"A[{i},{l}]^{e}",
        f"t^{e}",
        "t",
        ":",
    ]))


def _monomial_text(letter, size):
    token = _weighted((3, _valid_factor(letter)), (1, _odd_factor(letter)), (1, _junk))
    return st.lists(token, max_size=size).map(" ".join)


_cartan = _weighted(
    (4, st.sampled_from(["A1", "A2", "B2", "C2", "G2", "A3", "b2", '{"type": "A2"}'])),
    (1, st.sampled_from(["Q9", "B1", "H2", "E9", "A²", "A١", '{"type": 5}', "{oops"])),
    (1, _junk),
    (1, st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 3), min_size=n, max_size=n), min_size=n, max_size=n,
    )).map(lambda m: json.dumps({"matrix": m}))),
)
_budget_text = _weighted(
    (3, st.integers(1, 300).map(str)),
    (1, st.sampled_from(["0", " 3 ", "1_000", "+5", "-1", "", "١", "３"])),
    (1, _junk),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["tchar", "kl", "product"]))
    argv = [command, f"--cartan={draw(_cartan)}",
            f"--budget-monomials={draw(_budget_text)}",
            f"--format={draw(st.sampled_from(['json', 'json', 'text', 'dot']))}"]
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--budget-depth={draw(_budget_text)}")
    if draw(st.booleans()):
        argv.append("--t1")
    argv.append("--")  # a seed may start with "-"
    # one factor per product side: several fundamentals can take seconds
    if command == "product":
        argv += [draw(_monomial_text("X", 1)), draw(_monomial_text("X", 1))]
    else:
        argv.append(draw(_monomial_text("Y", 3)))
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argv())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
