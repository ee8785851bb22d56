import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtchar
from qtchar import algebra, cartan, cli
from qtchar.algebra import Monomial
from qtchar.characters import t_algorithm
from qtchar.cli import main
from qtchar.errors import InternalInconsistency
from qtchar.grammar import parse_element, serialize_element

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
    "argv,code",
    [
        (["tchar", ""], 2),
        (["tchar", "  "], 2),
        (["kl", ""], 2),
        (["product", "", "X[1,0]"], 2),
        (["tchar", "1"], 0),
        (["kl", "1"], 0),
        (["product", "1", "X[1,0]"], 0),
    ],
)
def test_empty_and_unit_seed(capsys, argv, code):
    """Empty text is a parse error; the lone token 1 is the unit monomial."""
    got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert out == "" and err == "parse error: empty monomial\n"
    else:
        assert err == "" and json.loads(out)


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
        ["verify", "--cartan", "Q9", "involution"],
        ["verify", "--cartan", "A1", "involution"],
    ],
)
def test_dot_format_only_for_tchar(capsys, argv):
    """--format dot outside tchar, and --t1 or --cartan where they would change
    nothing, are parse errors."""
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


@pytest.mark.parametrize("matrix", ["[]", "[[2, -1], [-1]]", "[[]]"])
def test_ragged_or_empty_matrix_exit_3(capsys, matrix):
    code, out, err = run(capsys, "tchar", "--cartan", f'{{"matrix": {matrix}}}', "Y[1,0]")
    assert (code, out, err) == (3, "", "domain error: matrix must be square and nonempty\n")


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


FAR = "2" + "0" * 89  # a 90-digit level


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--cartan", "E8", "X[1,0]", f"X[1,{FAR}]"],
        ["kl", "--cartan", "A2", f"Y[1,0] Y[1,{FAR}]"],
    ],
)
def test_far_levels_exit_0(capsys, argv):
    """The bicharacter between levels this far apart reads wrapped series rows."""
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and json.loads(out)


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
    """Refused before _from_bonds allocates and before the elimination runs."""
    monkeypatch.setattr(cartan, "_from_bonds", _refuse)
    monkeypatch.setattr(cartan, "_inverse", _refuse)
    code, out, err = run(capsys, "tchar", "--cartan", spec, "Y[1,0]")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("budget exceeded")


def test_product_running_size_exit_4(capsys):
    """Each kept partial product of star_product is held to --budget-monomials."""
    code, out, err = run(capsys, "product", "--cartan", "D4", "--budget-monomials", "100",
                         "X[2,0] X[2,2]", "X[2,4] X[2,6]")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    assert "partial product" in err and "reached 110 monomials, more than 100" in err


# (type, left, right, the commutative product, the SHA-256 of the JSON result or None)
TRUNCATED_PRODUCTS = [
    ("E8", "X[1,2]", "X[1,0]", "X[1,0] X[1,2]", None),
    # checked once against the whole factors, under --budget-monomials 1000000
    ("E7", "X[2,2]", "X[2,0]", "X[2,0] X[2,2]",
     "43700662a68d3df98ac52d7610601f084683dab5bda1b9a75fdac3cf4da25bf2"),
]


@pytest.mark.parametrize("name,left,right,product,digest", TRUNCATED_PRODUCTS)
def test_products_of_large_fundamentals_under_the_default_budget(
        capsys, name, left, right, product, digest):
    """The factors are truncated at level 2, and the peeled lower term X[3,1]
    (E8) or X[4,1] (E7) at level 1; its whole fundamental is past the default
    budget.  At t = 1 the result is the commutative product, since chi_q is a
    ring map."""
    code, out, err = run(capsys, "product", "--cartan", name, left, right)
    assert code == 0 and err == ""
    if digest is not None:
        assert len(out.encode()) == 208 and hashlib.sha256(out.encode()).hexdigest() == digest
    code, out, err = run(capsys, "product", "--cartan", name, "--t1", left, right)
    assert code == 0 and err == ""
    assert json.loads(out) == {"terms": [{"coeff": 1, "monomial": product}]}


def test_e_t_running_size_exit_4(capsys):
    """E_t's running product is held to --budget-monomials after each factor."""
    code, out, err = run(capsys, "kl", "--cartan", "G2", "--budget-monomials", "300",
                         "Y[2,0] Y[2,1] Y[2,2] Y[2,3]")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and "reached 2745 monomials, more than 300" in err


def test_kl_lower_member_e_t_size_exit_4(capsys):
    """Each closure member's E_t is formed deepest first, for its own closure
    check, so under a tight budget the one error line can name a lower
    member's E_t; with room for every E_t the row is computed."""
    seed = "Y[2,0] Y[1,5] Y[2,4]"
    code, out, err = run(capsys, "kl", "--cartan", "B2", "--budget-monomials", "40", seed)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    assert "E_t(Y[1,1] Y[1,3] Y[1,5]) reached 60 monomials, more than 40" in err
    code, out, err = run(capsys, "kl", "--cartan", "B2", "--budget-monomials", "100", seed)
    assert code == 0 and err == ""
    assert json.loads(out)


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


_OPERANDS = {"tchar": ["Y[1,0]"], "kl": ["Y[1,0]"], "product": ["X[1,0]", "X[1,2]"],
             "verify": ["involution"]}
# (subcommand, --format, --t1) that run; every other combination is a parse error
_ACCEPTED = {
    ("tchar", "json", False), ("tchar", "json", True), ("tchar", "text", False),
    ("tchar", "text", True), ("tchar", "dot", False),
    ("kl", "json", False), ("kl", "text", False),
    ("product", "json", False), ("product", "json", True), ("product", "text", False),
    ("product", "text", True),
    ("verify", "json", False), ("verify", "text", False),
}


@pytest.mark.parametrize("t1", [False, True], ids=["plain", "t1"])
@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
@pytest.mark.parametrize("command", list(_OPERANDS))
def test_every_format_and_t1_combination(capsys, command, fmt, t1):
    """Each subcommand x --format x --t1 prints and exits 0, or exits 2 with one
    stderr line and nothing on stdout."""
    argv = [command, "--format", fmt, *(["--t1"] if t1 else []), *_OPERANDS[command]]
    code, out, err = run(capsys, *argv)
    if (command, fmt, t1) in _ACCEPTED:
        assert code == 0 and out.strip() and err == ""
    else:
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("parse error")


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["tchar", "--format", "text", "Y[1,0]"], 0, "(1)  Y[1,0]\n(1)  Y[1,2]^-1\n", ""),
        (["kl", "--format", "text", "--cartan", "B2", "Y[2,0] Y[1,5]"], 0,
         "P = t^-1  at  t^0 Y[1,1]\n", ""),
        (["kl", "--format", "text", "Y[1,0]"], 0, "no lower dominant monomials\n", ""),
        (["kl", "Y[1,0]^-1"], 3, "", "domain error: Y[1,0]^-1 is not dominant\n"),
        # E6 node 4 reaches A-depth 42: the cap passes up front and fires in the loop
        (["tchar", "--cartan", "E6", "--budget-monomials", "43", "Y[4,0]"], 4, "",
         "budget exceeded: more than 43 monomials discovered\n"),
        # the term X[1,0]^0 X[1,2]^0 = 1 has coefficient t^-1 - t, which vanishes at t = 1
        (["product", "--t1", "--format", "text", "X[1,2]", "X[1,0]"], 0,
         "(1)  X[1,0] X[1,2]\n", ""),
        (["product", "Y[1,0]", "X[1,2]"], 2, "",
         "parse error: Rep-monomial may only contain X factors, got 'Y[1,0]'\n"),
        # an X factor's errors quote the X token the user typed
        (["product", "X[oops]", "X[1,0]"], 2, "", "parse error: bad factor 'X[oops]'\n"),
        (["product", "X[1,0]^0", "X[1,0]"], 2, "", "parse error: zero exponent in 'X[1,0]^0'\n"),
        # factors with exponents: multi-digit, negative, at negative levels
        (["tchar", "--cartan", "A2", "--format", "text", "Y[1,-1]^2"], 0,
         "(t^-1 + t)  Y[1,-1] Y[1,1]^-1 Y[2,0]\n(t^-1 + t)  Y[1,-1] Y[2,2]^-1\n"
         "(1)  Y[1,-1]^2\n(1)  Y[1,1]^-2 Y[2,0]^2\n(t^-1 + t)  Y[1,1]^-1 Y[2,0] Y[2,2]^-1\n"
         "(1)  Y[2,2]^-2\n", ""),
        (["product", "--format", "text", "X[1,-2]^10", "X[1,-2]^2"], 0, "(1)  X[1,-2]^12\n", ""),
        (["product", "X[1,-2]^10", "X[1,-2]^2"], 0,
         '{\n  "terms": [\n    {\n      "coeff": {\n        "0": 1\n      },\n'
         '      "monomial": "X[1,-2]^12"\n    }\n  ]\n}\n', ""),
        (["product", "--cartan", "A2", "--format", "text", "X[1,0]^2", "X[2,-1]"], 0,
         "(t^2)  X[1,0]^2 X[2,-1]\n", ""),
    ],
)
def test_pinned_rows(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("t1", [False, True], ids=["plain", "t1"])
def test_tchar_json_spans_several_batches(capsys, t1):
    """E6 node 4 is 55,572 encoder chunks (35,118 at t = 1): _emit writes it in
    four (three) batches, the last one partial, with the bytes of json.dumps."""
    seed = Monomial.y(4, 0)
    x = t_algorithm(algebra("E6"), seed)
    element = serialize_element(x)
    if t1:
        element = {"terms": [{"coeff": c, "monomial": str(m)}
                             for m, c in sorted(x.at_one().items(), key=lambda mc: mc[0].sortkey())]}
    payload = {"seed": str(seed), "element": element}
    chunks = sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload))
    assert chunks > 2 * (1 << 14) and chunks % (1 << 14)
    code, out, err = run(capsys, "tchar", "--cartan", "E6", *(["--t1"] if t1 else []), "Y[4,0]")
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [["tchar", "Y[1,0]"], ["tchar", "--cartan", "E6", "Y[4,0]"]],
                         ids=["small", "e6_node4"])
def test_closed_stdout_exits_1_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(qtchar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "qtchar.cli", *argv], env=env,
                                stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


@pytest.mark.parametrize("fmt,room", [("json", 0), ("text", 20)])
def test_stdout_closed_mid_output_exits_1_silently(capsys, monkeypatch, tmp_path, fmt, room):
    """A reader that goes after room bytes: main returns 1, writes nothing to
    stderr and points stdout's descriptor at devnull, so the flush at exit
    cannot fail; what was written before is a prefix of the whole output."""
    argv = ["tchar", "--cartan", "E6", "--format", fmt, "Y[4,0]"]
    code, whole, _ = run(capsys, *argv)
    assert code == 0
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class Closing(io.StringIO):
        def write(self, text):
            if self.tell() + len(text) > room:
                raise BrokenPipeError
            return super().write(text)

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", Closing())
    try:
        code = main(argv)
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert (code, capsys.readouterr().err) == (1, "")
    written = sys.stdout.getvalue()
    assert len(written) <= room and whole.startswith(written)


def test_internal_inconsistency_exit_5(capsys, monkeypatch):
    def inconsistent(*_args):
        raise InternalInconsistency("planted")

    monkeypatch.setattr(cli, "t_algorithm", inconsistent)
    assert run(capsys, "tchar", "Y[1,0]") == (5, "", "verification failure: planted\n")


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
