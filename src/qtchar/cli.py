"""Command-line front end.

Subcommands: tchar (deformed character of a dominant seed), kl (canonical
basis decomposition), product (deformed Grothendieck product), verify
(named invariant suites).  Exit codes: 0 success, 2 parse error, 3 domain
precondition, 4 budget exceeded, 5 verification or internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Monomial, YtAlgebra, YtElement
from .cartan import cartan_from_json
from .characters import Budget, RepElement, character_tree, lt_and_kl, star_product, t_algorithm
from .errors import BudgetExceeded, DomainError, ParseError, QtcharError, parse_int
from .grammar import (
    format_basis_monomial,
    format_element_text,
    format_rep_monomial,
    parse_basis_monomial,
    parse_rep_monomial,
    serialize_element,
    serialize_tpoly,
)
from .suites import SUITES

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


def _load_algebra(spec: str) -> YtAlgebra:
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            obj = json.loads(spec, parse_int=lambda text: parse_int(text, "Cartan JSON"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad Cartan JSON: {exc}") from None
        return YtAlgebra(cartan_from_json(obj))
    return YtAlgebra(cartan_from_json(spec))


def _budget(args) -> Budget:
    """Budgets from their flag text: ASCII digits only, no sign, spaces or "_"."""
    texts = {"--budget-monomials": args.budget_monomials, "--budget-depth": args.budget_depth}
    for flag, text in texts.items():
        if text is not None and not (text.isascii() and text.isdigit()):
            raise ParseError(f"{flag} must be a positive ASCII integer, not {text!r}")
    try:
        return Budget(*(None if text is None else parse_int(text, flag)
                        for flag, text in texts.items()))
    except ValueError as exc:
        raise ParseError(f"--budget-monomials/--budget-depth: {exc}") from None


def _within_rank(alg: YtAlgebra, m: Monomial) -> Monomial:
    """m itself, once every node in it is a node of alg."""
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
    seed = _within_rank(alg, parse_basis_monomial(args.seed))
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
    seed = _within_rank(alg, parse_basis_monomial(args.seed))
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
    x = RepElement.from_monomial(_within_rank(alg, parse_rep_monomial(args.left)))
    y = RepElement.from_monomial(_within_rank(alg, parse_rep_monomial(args.right)))
    z = star_product(alg, x, y, budget)
    rows = [(format_rep_monomial(m), p)
            for m, p in sorted(z.items(), key=lambda kv: kv[0].sortkey())]
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


def cmd_verify(args) -> int:
    checks = SUITES[args.suite](_budget(args))
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
    common.add_argument("--budget-monomials", default="200000")
    common.add_argument("--budget-depth", default=None,
                        help="optional cap on the A-depth (default: the exact bound)")
    common.add_argument("--format", choices=["json", "dot", "text"], default="json")
    common.add_argument("--t1", action="store_true",
                        help="specialize output at t = 1 (tchar json/text and product only)")
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
    p.add_argument("suite", choices=list(SUITES))
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "dot" and args.func is not cmd_tchar:
            raise ParseError(f"--format dot is only available for tchar, not {args.command}")
        if args.t1 and (args.func in (cmd_kl, cmd_verify) or args.format == "dot"):
            where = "--format dot" if args.format == "dot" else args.command
            raise ParseError(f"--t1 has no effect on {where}")
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
