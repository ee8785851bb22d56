"""Command-line front end.

Subcommands: tchar (deformed character of a dominant seed), kl (canonical
basis decomposition), product (deformed Grothendieck product), verify
(named invariant suites).  Exit codes: 0 success, 2 parse error, 3 domain
precondition, 4 budget exceeded, 5 verification or internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .algebra import Monomial, YtAlgebra, YtElement
from .cartan import cartan_from_json
from .characters import (
    Budget,
    character_tree,
    chi_qt,
    fundamental,
    lt_and_kl,
    positivity_report,
    star_product,
    t_algorithm,
)
from .classical import classical_algorithm
from .errors import BudgetExceeded, DomainError, ParseError, QtcharError
from .grammar import (
    format_basis_monomial,
    format_element_text,
    parse_basis_monomial,
    parse_element_lines,
    parse_rep_monomial,
    serialize_element,
    serialize_tpoly,
)
from .screening import in_kernel_all
from .sl2 import sl2_algebra
from .tpoly import ONE, TPoly

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

FIXTURE_KEYS = [
    ("a1a1", {"matrix": [[2, 0], [0, 2]]}),
    ("a2", "A2"),
    ("b2", "B2"),
    ("g2", "G2"),
]

VERIFY_SUITES = ("appendix", "kernels", "positivity", "involution", "bicharacters")


def _load_algebra(spec: str) -> YtAlgebra:
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad Cartan JSON: {exc}") from None
        return YtAlgebra(cartan_from_json(obj))
    return YtAlgebra(cartan_from_json(spec))


def _budget(args) -> Budget:
    try:
        return Budget(args.budget_monomials, args.budget_depth)
    except ValueError as exc:
        raise ParseError(f"--budget-monomials/--budget-depth: {exc}") from None


def _seed_monomial(alg: YtAlgebra, text: str) -> Monomial:
    m = parse_basis_monomial(text)
    for (i, _), _e in m.items():
        if i not in alg.cartan.nodes():
            raise ParseError(f"node {i} outside rank-{alg.cartan.n} algebra")
    return m


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _element_payload(x: YtElement, t1: bool):
    if t1:
        return {
            "terms": [
                {"coeff": c, "monomial": format_basis_monomial(m)}
                for m, c in sorted(x.at_one().items(), key=lambda kv: kv[0].sortkey())
            ]
        }
    return serialize_element(x)


def _dot_tree(tree) -> str:
    lines = ["digraph tchar {"]
    index = {m: k for k, m in enumerate(tree.vertices)}
    for m in tree.vertices:
        lines.append(f'  n{index[m]} [label="{format_basis_monomial(m)}"];')
    for src, dst, (i, l) in tree.edges:
        lines.append(f'  n{index[src]} -> n{index[dst]} [label="{i},{l}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_tchar(args) -> int:
    alg = _load_algebra(args.cartan)
    budget = _budget(args)
    seed = _seed_monomial(alg, args.seed)
    if args.format == "dot":
        tree = character_tree(alg, seed, budget)
        print(_dot_tree(tree))
        return EXIT_OK
    result = t_algorithm(alg, seed, budget)
    if args.format == "text":
        if args.t1:
            for m, c in sorted(result.at_one().items(), key=lambda kv: kv[0].sortkey()):
                print(f"({c})  {format_basis_monomial(m)}")
        else:
            print(format_element_text(result))
    else:
        _emit({"seed": format_basis_monomial(seed), "element": _element_payload(result, args.t1)})
    return EXIT_OK


def cmd_kl(args) -> int:
    alg = _load_algebra(args.cartan)
    budget = _budget(args)
    seed = _seed_monomial(alg, args.seed)
    rows, _ = lt_and_kl(alg, seed, budget)
    payload = {
        "seed": format_basis_monomial(seed),
        "rows": [
            {
                "monomial": format_basis_monomial(nu),
                "shift": shift,
                "P": serialize_tpoly(p),
            }
            for nu, shift, p in rows
        ],
    }
    if args.format == "text":
        if not rows:
            print("no lower dominant monomials")
        for nu, shift, p in rows:
            print(f"P = {p}  at  t^{shift} {format_basis_monomial(nu)}")
    else:
        _emit(payload)
    return EXIT_OK


def cmd_product(args) -> int:
    alg = _load_algebra(args.cartan)
    budget = _budget(args)
    from .characters import RepElement

    x = RepElement.from_monomial(parse_rep_monomial(args.left))
    y = RepElement.from_monomial(parse_rep_monomial(args.right))
    z = star_product(alg, x, y, budget)
    rows = []
    for m, p in sorted(z.items(), key=lambda kv: kv[0].sortkey()):
        mono = " ".join(
            f"X[{i},{l}]" + (f"^{e}" if e != 1 else "") for (i, l), e in m.items()
        ) or "1"
        rows.append((mono, p))
    if args.format == "text":
        for mono, p in rows:
            print(f"({p.at_one() if args.t1 else p})  {mono}")
    else:
        _emit({
            "terms": [
                {"coeff": p.at_one() if args.t1 else serialize_tpoly(p), "monomial": mono}
                for mono, p in rows
            ]
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _fixture_element(alg: YtAlgebra, name: str) -> YtElement:
    path = os.path.join(os.path.dirname(__file__), "fixtures", name + ".txt")
    with open(path, encoding="utf-8") as fh:
        return parse_element_lines(alg, fh.read())


def _suite_appendix(budget: Budget):
    checks = []
    for key, cartan in FIXTURE_KEYS:
        alg = YtAlgebra(cartan_from_json(cartan))
        for i in alg.cartan.nodes():
            computed = t_algorithm(alg, Monomial.y(i, 0), budget)
            for variant in ("k1", "k2"):
                want = _fixture_element(alg, f"{key}_f{i}_{variant}")
                checks.append(
                    {"name": f"{key} fundamental {i} vs {variant}", "ok": computed == want}
                )
    return checks


def _suite_kernels(budget: Budget):
    checks = []
    for name in ["A1", "A2", "A3", "A4", "B2", "C2", "B3", "C3", "G2"]:
        alg = _load_algebra(name)
        for i in alg.cartan.nodes():
            f = fundamental(alg, i, 0, budget)
            checks.append({"name": f"{name} node {i} kernel", "ok": in_kernel_all(alg, f)})
    return checks


def _positivity_types():
    names = [f"A{n}" for n in range(1, 7)]
    names += [f"B{n}" for n in range(2, 5)] + [f"C{n}" for n in range(2, 5)]
    names += ["D4", "G2", "F4"]
    return names


def _suite_positivity(budget: Budget):
    checks = []
    for name in _positivity_types():
        alg = _load_algebra(name)
        for i in alg.cartan.nodes():
            rep = positivity_report(alg, i, budget)
            checks.append({"name": f"{name} node {i} positive", "ok": rep["positive"]})
    return checks


def _random_element(alg: YtAlgebra, rng: random.Random) -> YtElement:
    total = YtElement.zero()
    for _ in range(rng.randrange(1, 4)):
        d = {}
        for _ in range(rng.randrange(1, 4)):
            key = (rng.choice(list(alg.cartan.nodes())), rng.randrange(-4, 5))
            d[key] = d.get(key, 0) + rng.choice([-2, -1, 1, 2])
        coeff = TPoly({rng.randrange(-3, 4): rng.choice([-2, -1, 1, 2])})
        total = total + YtElement.from_monomial(Monomial(d), coeff)
    return total


def _suite_involution(budget: Budget):
    alg = _load_algebra("B2")
    rng = random.Random(20240917)
    ok_double = ok_anti = True
    for _ in range(100):
        x = _random_element(alg, rng)
        y = _random_element(alg, rng)
        if alg.bar(alg.bar(x)) != x:
            ok_double = False
        if alg.bar(alg.mul(x, y)) != alg.mul(alg.bar(y), alg.bar(x)):
            ok_anti = False
    ok_forms = True
    for i in alg.cartan.nodes():
        ri = alg.cartan.ri(i)
        for l in range(-3, 4):
            y = YtElement.from_monomial(Monomial.y(i, l))
            exp = alg.tilde(i, i, ri) - alg.tilde(i, i, -ri)
            if alg.bar(y) != y.scale(TPoly.t_power(exp)):
                ok_forms = False
            a = alg.a_inv_elem(i, l)
            if alg.bar(a) != a:
                ok_forms = False
    return [
        {"name": "bar is an involution", "ok": ok_double},
        {"name": "bar is antimultiplicative", "ok": ok_anti},
        {"name": "bar closed forms on generators", "ok": ok_forms},
    ]


def _suite_bicharacters(budget: Budget):
    rng = random.Random(20240918)
    checks = []
    for name in ["A2", "B2", "G2"]:
        alg = _load_algebra(name)
        ok_anti = ok_split = True
        for _ in range(30):
            i = rng.choice(list(alg.cartan.nodes()))
            j = rng.choice(list(alg.cartan.nodes()))
            l, k = rng.randrange(-8, 9), rng.randrange(-8, 9)
            if alg.gamma(i, l, j, k) != -alg.gamma(j, k, i, l):
                ok_anti = False
            if alg.gamma(i, l, j, k) != alg.n_pair(i, l, j, k) - alg.n_pair(j, k, i, l):
                ok_split = False
        checks.append({"name": f"{name} gamma antisymmetric", "ok": ok_anti})
        checks.append({"name": f"{name} gamma = N - N^T", "ok": ok_split})
        ok_biadd = True
        for _ in range(30):
            m1 = _random_element(alg, rng)
            ms = [m for m, _ in m1.items()]
            a = rng.choice(ms)
            b = rng.choice(ms)
            c = rng.choice(ms)
            if alg.bichar_n(a.times(b), c) != alg.bichar_n(a, c) + alg.bichar_n(b, c):
                ok_biadd = False
            if alg.bichar_n(a, b.times(c)) != alg.bichar_n(a, b) + alg.bichar_n(a, c):
                ok_biadd = False
        checks.append({"name": f"{name} N biadditive", "ok": ok_biadd})
    s2 = sl2_algebra()
    ok_table = True
    for d in range(-8, 9):
        n = s2.n_pair(1, d, 1, 0)
        if d == 0:
            want = -1
        elif d % 2:
            want = 0
        elif d > 0:
            want = 0
        else:
            r = d // 2
            want = 2 * (-1) ** (r + 1)
        if n != want:
            ok_table = False
    checks.append({"name": "rank-1 N case table", "ok": ok_table})
    a2 = _load_algebra("A2")
    ok_eps = True
    for _ in range(30):
        i = rng.choice([1, 2])
        j = rng.choice([1, 2])
        l, k = rng.randrange(-6, 7), rng.randrange(-6, 7)
        lhs = a2.vv_epsilon(i, l, j, k) - a2.vv_epsilon_prime(i, l, j, k)
        if lhs != a2.n_pair(i, l, j, k):
            ok_eps = False
    checks.append({"name": "A2 epsilon - epsilon' = N", "ok": ok_eps})
    return checks


def cmd_verify(args) -> int:
    budget = _budget(args)
    runners = {
        "appendix": _suite_appendix,
        "kernels": _suite_kernels,
        "positivity": _suite_positivity,
        "involution": _suite_involution,
        "bicharacters": _suite_bicharacters,
    }
    if args.suite not in runners:
        raise DomainError(
            f"unknown suite {args.suite!r}; pick one of {', '.join(VERIFY_SUITES)}"
        )
    checks = runners[args.suite](budget)
    passed = all(c["ok"] for c in checks)
    if args.format == "text":
        for c in checks:
            print(("PASS" if c["ok"] else "FAIL") + "  " + c["name"])
        print(("suite passed" if passed else "suite FAILED") + f" ({len(checks)} checks)")
    else:
        _emit({"suite": args.suite, "passed": passed, "checks": checks})
    return EXIT_OK if passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cartan", default="A1", help="Cartan type name or JSON")
    common.add_argument("--budget-monomials", type=int, default=200000)
    common.add_argument("--budget-depth", type=int, default=None,
                        help="optional cap on the A-depth (default: the exact bound)")
    common.add_argument("--format", choices=["json", "dot", "text"], default="json")
    common.add_argument("--t1", action="store_true", help="specialize output at t = 1")
    parser = argparse.ArgumentParser(
        prog="qtchar",
        description="Exact q-characters and t-deformed q,t-characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("tchar", parents=[common],
                       help="deformed character of a dominant monomial")
    p.add_argument("seed")
    p.set_defaults(func=cmd_tchar)
    p = sub.add_parser("kl", parents=[common],
                       help="canonical basis rows for a dominant monomial")
    p.add_argument("seed")
    p.set_defaults(func=cmd_kl)
    p = sub.add_parser("product", parents=[common],
                       help="deformed product of two Rep-monomials")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_product)
    p = sub.add_parser("verify", parents=[common], help="run a named invariant suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "dot" and args.func is not cmd_tchar:
            raise ParseError(f"--format dot is only available for tchar, not {args.command}")
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except QtcharError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
