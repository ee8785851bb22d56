"""Workload definitions: the jobs, their seeded inputs, and the output check.

Inputs are written in the repository's monomial grammar and in the node
labels of `named_cartan` at the commit that recorded `expected.json`.
Non-simply-laced types are given as explicit matrices so that a relabelling
of the named B/C/F4 types cannot change what a job computes.

The seed picks the job order and one level shift applied to every input.
The shift is a multiple of 2 * lcm(r_i) over the workload's algebras, so the
residue classes of every level, and with them the work done, are unchanged.
(One exception: the process-global rank-1 cache is shared by nodes of
different r_i, whose shadows move by shift / r_i, so its hits can depend on
the shift when the r_i are mixed.)  Each serialized result is shifted back
before it is compared with the digest recorded at shift 0.

qtchar is imported inside functions, so that a traced child can hook the
import before it happens.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from math import lcm

B2 = {"matrix": [[2, -2], [-1, 2]]}
F4 = {"matrix": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]}

# Explicit, so that a change of the library's default depth budget cannot
# turn E8 node 1 (A-depth 92) into BudgetExceeded.
MAX_MONOMIALS = 200000
MAX_A_DEPTH = 120

# name -> (kind, cartan, *monomial texts)
WORKLOADS = {
    "frontier": {
        "e6_node4": ("tchar", "E6", "Y[4,0]"),
        "e7_node2": ("tchar", "E7", "Y[2,0]"),
        "f4_node3": ("tchar", F4, "Y[3,0]"),
        "e8_node1": ("tchar", "E8", "Y[1,0]"),
    },
    "product": {
        "d5_x32_x30": ("product", "D5", "X[3,2]", "X[3,0]"),
        "a4_x24x32_x20x31": ("product", "A4", "X[2,4] X[3,2]", "X[2,0] X[3,1]"),
        "e6_x12_x10": ("product", "E6", "X[1,2]", "X[1,0]"),
    },
    "kl": {
        "b2_3": ("kl", B2, "Y[2,0] Y[1,5] Y[2,4]"),
        "b2_5": ("kl", B2, "Y[2,0] Y[1,5] Y[2,4] Y[1,1] Y[2,8]"),
        "a3_5": ("kl", "A3", "Y[1,1] Y[2,0] Y[2,2] Y[2,4] Y[3,3]"),
        "a2_6": ("kl", "A2", "Y[1,0] Y[1,2] Y[1,4] Y[2,1] Y[2,3] Y[2,5]"),
    },
}

_LEVEL = re.compile(r"([XY])\[(\d+),(-?\d+)\]")


def shift_levels(text: str, shift: int) -> str:
    """Add `shift` to the level of every X[i,l] and Y[i,l] in `text`."""
    return _LEVEL.sub(lambda m: f"{m[1]}[{m[2]},{int(m[3]) + shift}]", text)


def plan(workload: str, seed, shift_unit: int):
    """The seed's job order and level shift (a multiple of shift_unit).

    Seed None gives the recorded inputs: sorted order, no shift.
    """
    order = sorted(WORKLOADS[workload])
    if seed is None:
        return order, 0
    rng = random.Random(f"{workload}:{seed}")
    rng.shuffle(order)
    return order, shift_unit * rng.randint(-25, 25)


class Session:
    """The algebras and inputs of one pass, built fresh in a new process."""

    def __init__(self, workload: str, seed):
        from qtchar import cartan, characters, sl2
        from qtchar.algebra import YtAlgebra

        self.budget = characters.Budget(MAX_MONOMIALS, MAX_A_DEPTH)
        self.algebras = {}
        for _, spec, *_ in WORKLOADS[workload].values():
            key = json.dumps(spec, sort_keys=True)
            if key not in self.algebras:
                self.algebras[key] = YtAlgebra(cartan.cartan_from_json(spec))
        sl2.sl2_algebra()
        unit = 2 * lcm(*(r for a in self.algebras.values() for r in a.cartan.r))
        self.order, self.shift = plan(workload, seed, unit)
        self.jobs = {name: self._bind(kind, spec, texts)
                     for name, (kind, spec, *texts) in WORKLOADS[workload].items()}

    def _bind(self, kind, spec, texts):
        """Parse the shifted inputs now; return the timed call."""
        from qtchar import characters as ch, grammar

        alg = self.algebras[json.dumps(spec, sort_keys=True)]
        texts = [shift_levels(t, self.shift) for t in texts]
        if kind == "tchar":
            seed = grammar.parse_basis_monomial(texts[0])
            return lambda: _tchar_payload(ch.t_algorithm(alg, seed, self.budget), seed)
        if kind == "product":
            x, y = (ch.RepElement.from_monomial(grammar.parse_rep_monomial(t)) for t in texts)
            return lambda: _product_payload(ch.star_product(alg, x, y, self.budget))
        seed = grammar.parse_basis_monomial(texts[0])
        return lambda: _kl_payload(*ch.lt_and_kl(alg, seed, self.budget), seed)

    def run(self, name: str) -> str:
        """Compute one job and serialize it to the text a user receives."""
        return json.dumps(self.jobs[name](), sort_keys=True)


# Serializers call grammar.serialize_element through the module, so that a
# traced run sees the call.


def _tchar_payload(result, seed):
    from qtchar import grammar

    return {"seed": str(seed), "element": grammar.serialize_element(result)}


def _product_payload(z):
    from qtchar import grammar

    terms = []
    for m, p in sorted(z.items(), key=lambda kv: kv[0].sortkey()):
        mono = " ".join(f"X[{i},{l}]" + (f"^{e}" if e != 1 else "") for (i, l), e in m.items())
        terms.append({"coeff": grammar.serialize_tpoly(p), "monomial": mono or "1"})
    return {"terms": terms}


def _kl_payload(rows, lt, seed):
    from qtchar import grammar

    return {
        "seed": str(seed),
        "rows": [{"monomial": str(nu), "shift": c, "P": grammar.serialize_tpoly(p)}
                 for nu, c, p in rows],
        "lt": [{"monomial": str(mu), "element": grammar.serialize_element(lt[mu])}
               for mu in sorted(lt, key=lambda mu: mu.sortkey())],
    }


def _t1(element: dict) -> int:
    return sum(c for term in element["terms"] for c in term["coeff"].values())


def summary(text: str, shift: int) -> dict:
    """Digest, term count and t = 1 value of a result serialized at `shift`.

    terms: character terms, star terms or KL rows.  t1: the sum of the
    t = 1 coefficients of the character, of the star product, or of the
    simple module L(m) in a KL job; for a character it is its dimension.
    """
    text = shift_levels(text, -shift)
    obj = json.loads(text)
    if "rows" in obj:
        [top] = [e["element"] for e in obj["lt"] if e["monomial"] == obj["seed"]]
        terms, t1 = len(obj["rows"]), _t1(top)
    elif "element" in obj:
        terms, t1 = len(obj["element"]["terms"]), _t1(obj["element"])
    else:
        terms, t1 = len(obj["terms"]), _t1(obj)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "terms": terms, "t1": t1}
