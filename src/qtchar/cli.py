"""Command-line front end.

Subcommands: tchar (deformed character of a dominant seed), kl (canonical
basis decomposition), product (deformed Grothendieck product), verify
(named invariant suites).  Exit codes: 0 success, 1 stdout closed before
the output was written, 2 parse error, 3 domain precondition, 4 budget
exceeded, 5 verification or internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from .algebra import YtAlgebra
from .cartan import cartan_from_json
from .characters import Budget, RepElement, character_tree, lt_and_kl, star_product, t_algorithm
from .errors import BudgetExceeded, DomainError, ParseError, QtcharError, parse_int
from .grammar import Namer, parse_basis_monomial, parse_rep_monomial, serialize_tpoly, term_list
from .suites import SUITES

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


def _load_algebra(spec: str | None) -> YtAlgebra:
    spec = "A1" if spec is None else spec.strip()
    if spec.startswith("{"):
        try:
            obj = json.loads(spec, parse_int=lambda text: parse_int(text, "Cartan JSON"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad Cartan JSON: {exc}") from None
        return YtAlgebra(cartan_from_json(obj))
    return YtAlgebra(cartan_from_json(spec))


def _budget(args) -> Budget:
    """The Budget of the flags given, each from its text: ASCII digits only, no
    sign, spaces or "_".  A flag not given keeps Budget's default."""
    texts = {("--budget-monomials", "max_monomials"): args.budget_monomials,
             ("--budget-depth", "max_a_depth"): args.budget_depth}
    texts = {flag: text for flag, text in texts.items() if text is not None}
    for (flag, _), text in texts.items():
        if not (text.isascii() and text.isdigit()):
            raise ParseError(f"{flag} must be a positive ASCII integer, not {text!r}")
    try:
        return Budget(**{field: parse_int(text, flag) for (flag, field), text in texts.items()})
    except ValueError as exc:
        raise ParseError(f"--budget-monomials/--budget-depth: {exc}") from None


def _emit(obj):
    """Print obj as json.dumps(obj, sort_keys=True, indent=2) does, in batches
    of 2^14 encoder chunks, so that the whole text is never held at once."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while batch := "".join(islice(chunks, 1 << 14)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _write_terms(args, x, letter, wrap):
    """Print the terms of x in sortkey order, as "(c)  monomial" lines or as the
    JSON object wrap({"terms": [...]}), each monomial named by one
    grammar.Namer(letter); without --t1 the JSON terms come from
    grammar.term_list.  With --t1 each coefficient is taken at t = 1 and the
    terms that vanish drop out."""
    name = Namer(letter)
    if args.format == "json" and not args.t1:
        return _emit(wrap({"terms": term_list(x, name)}))
    rows = [(m, c) for m, p in x.sorted_terms() if (c := p.at_one() if args.t1 else p)]
    if args.format == "text":
        for m, c in rows:
            print(f"({c})  {name(m)}")
    else:
        _emit(wrap({"terms": [{"coeff": c, "monomial": name(m)} for m, c in rows]}))


def _dot_tree(vertices, edges) -> str:
    lines = ["digraph tchar {"]
    index = {m: k for k, m in enumerate(vertices)}
    for m in vertices:
        lines.append(f'  n{index[m]} [label="{m}"];')
    for src, dst, (i, l) in edges:
        lines.append(f'  n{index[src]} -> n{index[dst]} [label="{i},{l}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_tchar(args) -> int:
    alg = _load_algebra(args.cartan)
    budget = _budget(args)
    seed = alg.within_rank(parse_basis_monomial(args.seed))
    if args.format == "dot":
        print(_dot_tree(*character_tree(alg, seed, budget)))
        return EXIT_OK
    _write_terms(args, t_algorithm(alg, seed, budget), "Y",
                 lambda element: {"seed": str(seed), "element": element})
    return EXIT_OK


def cmd_kl(args) -> int:
    alg = _load_algebra(args.cartan)
    budget = _budget(args)
    seed = alg.within_rank(parse_basis_monomial(args.seed))
    rows, _ = lt_and_kl(alg, seed, budget)
    if args.format == "text":
        if not rows:
            print("no lower dominant monomials")
        for nu, shift, p in rows:
            print(f"P = {p}  at  t^{shift} {nu}")
    else:
        _emit({"seed": str(seed),
               "rows": [{"monomial": str(nu), "shift": shift, "P": serialize_tpoly(p)}
                        for nu, shift, p in rows]})
    return EXIT_OK


def cmd_product(args) -> int:
    alg = _load_algebra(args.cartan)
    budget = _budget(args)
    x = RepElement.from_monomial(alg.within_rank(parse_rep_monomial(args.left)))
    y = RepElement.from_monomial(alg.within_rank(parse_rep_monomial(args.right)))
    _write_terms(args, star_product(alg, x, y, budget), "X", lambda terms: terms)
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
    common.add_argument("--cartan", default=None, help="Cartan type name or JSON (default: A1)")
    common.add_argument("--budget-monomials")
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
    p = sub.add_parser("tchar", parents=[common], help="deformed character of a dominant monomial")
    p.add_argument("seed")
    p.set_defaults(func=cmd_tchar)
    p = sub.add_parser("kl", parents=[common], help="canonical basis rows for a dominant monomial")
    p.add_argument("seed")
    p.set_defaults(func=cmd_kl)
    p = sub.add_parser("product", parents=[common], help="deformed product of two Rep-monomials")
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
        if args.cartan is not None and args.func is cmd_verify:
            raise ParseError("--cartan has no effect on verify: each suite fixes its own types")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; fd 1 goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
