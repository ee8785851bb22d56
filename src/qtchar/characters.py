"""The t-algorithm, fundamental q,t-characters, deformed products,
and the bar-invariant canonical basis with its KL-analogue polynomials."""

from __future__ import annotations

import weakref
from collections import namedtuple
from itertools import islice

from .algebra import Monomial, Terms, YtAlgebra, YtElement
from .errors import (
    AlgorithmFails,
    BudgetExceeded,
    InternalInconsistency,
    InversionFails,
    NonIntegralShift,
    NotDominant,
)
from .screening import f_it, lift_it
from .tpoly import ONE, TPoly, ZERO


class Budget(namedtuple("Budget", "max_monomials max_a_depth")):
    """Resource limits for the frontier computation, immutable.

    max_a_depth is an optional cap on the A-depth.  The character of m_plus
    reaches exactly depth_bound(m_plus) = 2<wt(m_plus), rho^v>, so
    t_algorithm fails up front when the cap is below it; None leaves only
    that bound, which no correct run can pass.  A run truncated at a
    top_level need not reach the bound, so there the cap is checked per
    monomial instead: the first one found deeper than it fails the run.
    """

    __slots__ = ()

    def __new__(cls, max_monomials: int = 200000, max_a_depth: int | None = None):
        return cls._make((max_monomials, max_a_depth))

    @classmethod
    def _make(cls, iterable):
        """The one builder that checks the limits: the constructor and
        _replace both build through it.  A wrong number of limits is
        namedtuple's own TypeError; a limit that is not an int (bool
        included; max_a_depth may be None) is a TypeError naming its field."""
        limits = tuple(iterable)
        if len(limits) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(limits)}")
        max_monomials, max_a_depth = limits
        for name, v in zip(cls._fields, limits):
            if type(v) is not int and (v is not None or name == "max_monomials"):
                raise TypeError(f"Budget {name} must be an int, not {v!r}")
        if max_monomials < 1 or (max_a_depth is not None and max_a_depth < 1):
            raise ValueError("budgets must be >= 1")
        return super().__new__(cls, max_monomials, max_a_depth)


DEFAULT_BUDGET = Budget()


def _depth_bound_in_budget(alg: YtAlgebra, m: Monomial, budget: Budget) -> int:
    """The exact A-depth bound of m, after checking that it fits the budget.

    The weights of the simple module with highest monomial m include a
    saturated chain from wt(m) down to w0 wt(m) of depth_bound(m) + 1 distinct
    weights, so its character, and any product of fundamentals containing it,
    has at least that many monomials.
    """
    bound = alg.depth_bound(m)
    if bound + 1 > budget.max_monomials:
        raise BudgetExceeded(
            f"{m} has at least {bound + 1} monomials, more than {budget.max_monomials}"
        )
    return bound


class _Packing:
    """Monomials as integers: the exponent of Y_{i,l} is a W-bit signed field
    at a slot assigned on first sight, and a monomial is the sum of
    exponent * 2^(W * slot), an exact and unique form while every exponent
    has absolute value below 2^(W-1).  bias holds 2^(W-1) in every slot, so
    x + bias has each field nonnegative and its top bit set exactly when the
    exponent is >= 0, and (x + bias) ^ bias holds each exponent in W-bit
    two's complement.  Per node, masks holds 2^W - 1 in each of the node's
    slots, and (x + bias) ^ bias & masks[i] is x's node-i part.  t_algorithm
    packs its frontier and unpacks each node part it has not seen before."""

    def __init__(self, nodes, reach: int):
        """Fields of the narrowest width that holds every exponent of absolute
        value at most reach, W = reach.bit_length() + 1, up to 64 bits."""
        self.width = reach.bit_length() + 1
        if self.width > 64:
            raise BudgetExceeded(f"exponents up to {reach} do not fit 64-bit fields")
        self.nodes = list(nodes)
        self.slot = {}  # (node, level) -> slot
        self.keys = []  # slot -> (node, level)
        self.bias = 0
        self.masks = [0] * len(self.nodes)
        self._pairs = {}  # one field, in place -> its (key, exponent), kept for the whole call

    def encode(self, data: tuple, lo: int) -> int:
        """The packed form of the monomial with the given data moved up lo levels."""
        x = 0
        w = self.width
        for (i, l), e in data:
            key = (i, l + lo)
            k = self.slot.get(key)
            if k is None:
                k = self._new_slot(key)
            x += e << (w * k)
        return x

    def _new_slot(self, key) -> int:
        k = self.slot[key] = len(self.keys)
        w = self.width
        self.keys.append(key)
        self.bias += 1 << (w * k + w - 1)
        self.masks[self.nodes.index(key[0])] |= ((1 << w) - 1) << (w * k)
        return k

    def pair(self, key, e: int) -> tuple:
        """The pair (key, e) as the one object that unpack makes for it; key
        gets a slot if it has none, which changes no packed monomial."""
        k = self.slot.get(key)
        if k is None:
            k = self._new_slot(key)
        w = self.width
        return self._pairs.setdefault((e & ((1 << w) - 1)) << (w * k), (key, e))

    def unpack(self, part: int) -> tuple:
        """The sorted (key, exponent) pairs of a node part.  A pair is made once
        and shared by every part that holds it, since a slot's key never
        changes."""
        w = self.width
        field, half = (1 << w) - 1, 1 << (w - 1)
        pairs = []
        while part:
            at = ((part & -part).bit_length() - 1) // w * w  # the lowest nonzero field
            bits = part & (field << at)
            part ^= bits
            kv = self._pairs.get(bits)
            if kv is None:
                e = bits >> at
                kv = self._pairs[bits] = (self.keys[at // w], e - (1 << w) if e >= half else e)
            pairs.append(kv)
        return tuple(sorted(pairs))


def t_algorithm(alg: YtAlgebra, m_plus: Monomial, budget: Budget = DEFAULT_BUDGET,
                top_level: int | None = None) -> YtElement:
    """Frontier computation of the deformed character with highest monomial m_plus,
    or, given a top_level, of its terms with no Y above that level.

    Each processed monomial m adds s(m) times the terms of f_it(m) other
    than m, at every node i where m has a Y_i factor and is i-dominant.
    Those terms are never i-dominant, so nothing reaches m at such a node,
    and every monomial but m_plus has a negative exponent.  A term m A^-W
    lies sum W > 0 deeper than m, so the monomials are processed depth by
    depth, and each has all its contributions when its depth comes.

    Inside the loop a monomial is one integer (_Packing).  Every A_{i,l}^-1
    has Y-exponents +-1 only, so no exponent at A-depth d is farther than d
    from the seed's, and the fields are wide enough for max|seed exponent|
    + depth_bound(m_plus); each edge's depth is checked against that bound
    before its add.  So m A^-W is one integer add of the lift's Y-delta,
    and hash and equality are integer ones.  A memo that lives only for
    this call holds, per node part of m (_Packing), its sorted (key,
    exponent) pairs, whether m is i-dominant there and, once asked for, its
    lift, packed straight from lift_it's level-0 terms and offset; a part
    does not change as slots are added, and lift_it reads only the node-i
    part of m.  Only a part not seen before is unpacked, and
    since data is sorted node-major, m's data is its parts' pairs joined in
    node order, with no sort per monomial.  Coefficients are summed per
    monomial and node as integer maps {t-exponent: integer}.  A
    non-dominant monomial must receive the same value from every node where
    it has a negative exponent; the maps are compared as dicts, and as
    TPolys (no zero entries) only where they differ.  Disagreement aborts
    loudly, and so does an A-depth past the bound of depth_bound.  Equal
    s(m) share one TPoly per call, looked up by the map's items and built
    only on a miss.  A max_a_depth below that bound fails before the loop,
    since the result reaches the bound.  When a depth comes, each of its
    monomials is joined from its parts and processed at once, each nonzero
    s(m) going straight into the result.  So the terms come in A-depth
    order, and within a depth in the order they were found, which is
    deterministic: every container here is insertion-ordered or keyed by
    integers.  The bias and masks read when a depth comes serve all of its
    monomials, since each was packed before any slot that the depth's lifts
    add.

    Truncation (Hernandez-Leclerc, arXiv:0903.1452; the q,t version in
    arXiv:1109.0862).  Every monomial of a fundamental character F_t(Y_{i,l})
    other than Y_{i,l} is right-negative (Frenkel-Mukhin, math/9911112), and
    the terms with no Y above a level b are built only from ancestors with
    no Y above b.  So for a fundamental seed the run with top_level b keeps
    exactly the whole run's terms with every level <= b, with the same
    coefficients and in the same order.  A kept monomial has no Y above b,
    so its child has one exactly when the lift's Y-delta does; such lift
    terms are dropped once, where the memo builds a part's lift.  A
    truncated run need not reach depth_bound, so neither the up-front check
    that the bound fits budget.max_monomials nor the one against
    budget.max_a_depth applies; the fields are still sized from the bound,
    every edge is still held to it, and the first monomial found deeper than
    max_a_depth raises BudgetExceeded.  Such a run, and every seed other
    than one Y_{i,l0} with exponent 1, runs the whole loop described above.

    Half depth.  The lowest monomial of the fundamental with highest
    monomial Y_{i,l0} is Y_{i*,l0+c}^-1, with i -> i* the map -w0 on the
    nodes and c = r^v h^v (Frenkel-Mukhin, math/9911112), and every
    fundamental tried is invariant, with equal t-coefficients, under
    sigma(Y_{j,l}) = Y_{j*,c+2 l0-l}^-1; at t = 1 this follows from the
    citation, for general t it is observed.  sigma maps A-depth d to D - d,
    D = depth_bound(m_plus).  So a whole run from Y_{i,l0} lifts only the
    depths below H = ceil(D/2), whose terms are then final up to depth H,
    and drops every edge deeper than H.  _mirror checks the seam, adds the
    sigma-images of the rest, counting them toward budget.max_monomials,
    and keeps the result in A-depth order.  A top_level of l0 + c truncates
    nothing, so it gives the whole loop for a fundamental.
    """
    if not m_plus.is_dominant():
        raise NotDominant(f"seed {m_plus} is not dominant")
    if top_level is None:
        _depth_bound_in_budget(alg, m_plus, budget)
    elif any(l > top_level for (_, l), _ in m_plus.items()):
        raise ValueError(f"seed {m_plus} has a Y above the top level {top_level}")
    bound = alg.depth_bound(m_plus)
    limit = min(bound, budget.max_a_depth or bound)
    if top_level is None and limit < bound:
        raise BudgetExceeded(f"{m_plus} reaches A-depth {bound}, more than the budget {limit}")
    code = _Packing(alg.cartan.nodes(), max((abs(e) for _, e in m_plus.items()), default=0) + bound)
    # a whole run from one Y_{i,l0}: the depths below stop are lifted, the rest mirrored
    half = top_level is None and len(m_plus.data) == 1 and m_plus.data[0][1] == 1
    stop = (bound + 1) // 2 if half else bound + 1
    cut = stop if half else limit  # an edge deeper than cut is dropped (half) or fails
    rows = {}  # with half, A-depth -> the packed monomials of its terms in s, for _mirror
    x_plus = code.encode(m_plus.data, 0)
    acc = {}  # packed monomial -> {node i: {t-exponent: integer coefficient}}
    # node-i part -> [its (key, exponent) pairs, i-dominant?, i, lift or None, mirror or None]
    parts = {}
    buckets = {0: [x_plus]}  # A-depth -> the packed monomials discovered there
    s = {}  # m -> nonzero s(m), in A-depth order, each depth in the order found
    shared = {frozenset(ONE.coeffs.items()): ONE}  # coefficient items -> the one TPoly of s(m)
    found = 1
    while buckets:
        depth_m = min(buckets)
        bias, node_masks = code.bias, tuple(zip(code.nodes, code.masks))
        row = rows[depth_m] = [] if half else None
        for x in buckets.pop(depth_m):
            ux = (x + bias) ^ bias
            data, neg, lifted = [], [], []
            for i, mask in node_masks:
                if part := ux & mask:
                    entry = parts.get(part)
                    if entry is None:
                        pairs = code.unpack(part)
                        entry = parts[part] = [pairs, all(e > 0 for _, e in pairs), i, None, None]
                    data += entry[0]
                    if entry[1]:
                        lifted.append(entry)
                    else:
                        neg.append(i)
            m = Monomial.from_sorted(tuple(data))
            si = acc.pop(x, {})
            if x == x_plus:
                sm = ONE
            elif not neg:
                raise InternalInconsistency(f"{m} below the seed {m_plus} is dominant")
            else:
                raw = si.get(neg[0], {})
                for v in (si.get(i, {}) for i in neg[1:]):
                    if v != raw and TPoly.adopt(v) != TPoly.adopt(raw):  # adopt drops zeros
                        raise AlgorithmFails(
                            f"node values disagree at {m}: {TPoly.adopt(raw)} vs {TPoly.adopt(v)}")
                items = frozenset(raw.items())
                sm = shared.get(items)
                if sm is None:  # keyed again without the zero entries that adopt drops
                    sm = TPoly.adopt(raw)
                    sm = shared[items] = shared.setdefault(frozenset(raw.items()), sm)
            if not sm:
                continue
            s[m] = sm
            if row is not None:
                row.append(x)
                if depth_m == stop:
                    continue
            sm_items = sm.coeffs.items()
            for entry in lifted:
                _, _, i, lift, _ = entry
                if lift is None:
                    terms, lo = lift_it(alg, i, m)
                    lift = entry[3] = [(code.encode(data, lo), dw, coeff)
                                       for data, dw, coeff in terms
                                       if top_level is None
                                       or all(l + lo <= top_level for (_, l), _ in data)]
                for delta, depth_w, coeff in lift:
                    depth = depth_m + depth_w
                    if depth > cut:
                        if half:
                            continue
                        if depth <= bound:  # only a truncated run has limit < bound
                            raise BudgetExceeded(
                                f"{m_plus} reaches A-depth {depth} at levels up to {top_level}, "
                                f"more than the budget {limit}"
                            )
                        # name the first term past the bound in full
                        terms, lo = lift_it(alg, i, m)
                        mr = next(m.times(Monomial.from_sorted(data).shift(lo))
                                  for data, dw, _ in terms if depth_m + dw > bound)
                        raise InternalInconsistency(
                            f"A-depth {depth} of {mr} exceeds the bound {bound}"
                        )
                    mr = x + delta
                    d = acc.get(mr)
                    if d is None:  # mr is new: every processed monomial is shallower
                        found += 1
                        if found > budget.max_monomials:
                            raise BudgetExceeded(
                                f"more than {budget.max_monomials} monomials discovered"
                            )
                        d = acc[mr] = {}
                        buckets.setdefault(depth, []).append(mr)
                    d = d.setdefault(i, {})
                    for e1, c1 in sm_items:
                        for e2, c2 in coeff:
                            d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    if half:
        _mirror(alg, m_plus, bound, stop, budget, code, parts, rows, s)
    return YtElement._adopt(s)  # every s(m) stored is a nonzero TPoly


def _mirror(alg: YtAlgebra, m_plus: Monomial, bound: int, stop: int, budget: Budget,
            code: _Packing, parts: dict, rows: dict, s: dict) -> None:
    """Complete the fundamental character s, computed up to A-depth
    H = stop = ceil(D/2), D = bound = depth_bound(m_plus), by its duality
    images.

    sigma(Y_{j,l}) = Y_{j*,c+2 l0-l}^-1, with (star, c) from
    SymmetrizedCartan.duality, maps A-depth d to D - d.  The depth-H terms
    of s must be the images of the depth-(D - H) ones (the seam), or
    InternalInconsistency names the seed and the depth.  Then s gets
    sigma(m), with s(m), for each term m at a depth d < D - H, deepest
    first, so s stays in A-depth order.  sigma takes the node-k* part of m
    to the node-k part of sigma(m), so it is built once per node part, into
    the part's memo entry, from pairs made by _Packing.pair.  rows holds,
    per depth, the packed monomials of its terms, in the order of s; each
    depth's are dropped once mirrored.
    """
    [((i0, l0), _)] = m_plus.data
    star, c = alg.cartan.duality(i0)
    bias = code.bias
    masks = [code.masks[code.nodes.index(star[k])] for k in code.nodes if k in star]
    values, start, at = list(s.values()), {}, 0
    for d, xs in rows.items():
        start[d], at = at, at + len(xs)

    def images(d: int, out: dict) -> dict:
        xs = rows.pop(d, ())
        for x, sm in zip(xs, values[start.get(d, 0):start.get(d, 0) + len(xs)]):
            ux = (x + bias) ^ bias
            data = []
            for mask in masks:
                if part := ux & mask:
                    entry = parts[part]
                    if entry[4] is None:
                        entry[4] = tuple([code.pair((star[j], c + 2 * l0 - l), -e)
                                          for (j, l), e in reversed(entry[0])])
                    data += entry[4]
            out[Monomial.from_sorted(tuple(data))] = sm
        return out

    total = len(s) + sum(len(rows.get(d, ())) for d in range(bound - stop))
    if total > budget.max_monomials:
        raise BudgetExceeded(f"{m_plus} has {total} monomials, more than {budget.max_monomials}")
    if images(bound - stop, {}) != dict(islice(s.items(), start.get(stop, len(s)), None)):
        raise InternalInconsistency(
            f"the terms of {m_plus} at A-depth {stop} are not the duality images of those "
            f"at A-depth {bound - stop}")
    for d in range(bound - stop - 1, -1, -1):
        images(d, s)


# algebra -> {(node i, None or top): the character with highest monomial Y_{i,0},
# whole or truncated at level top}; an entry lives as long as its algebra
_FUNDAMENTALS = weakref.WeakKeyDictionary()


def fundamental(alg: YtAlgebra, i: int, l: int = 0, budget: Budget = DEFAULT_BUDGET,
                top: int | None = None) -> YtElement:
    """Deformed character of the fundamental with highest monomial Y_{i,l}, or,
    given a top >= l, its terms with no Y above level top (t_algorithm's
    top_level), cached once per top - l."""
    key = (i, None if top is None else top - l)
    cache = _FUNDAMENTALS.setdefault(alg, {})
    base = cache.get(key)
    if base is None:
        base = cache[key] = t_algorithm(alg, Monomial.y(i, 0), budget, key[1])
    return base if l == 0 else base.shift(l)


def _fundamental_order(m: Monomial) -> list:
    """The shifted fundamentals (i, l) whose ordered product is E_t(m): levels
    increasing, then nodes, each Y_{i,l} repeated u_{i,l} times."""
    return [key for key, u in sorted(m.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            for _ in range(u)]


def e_t(alg: YtAlgebra, m: Monomial, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """Ordered product of shifted fundamentals (levels increasing).

    The leading coefficient on m is the t-power accumulated by ordering the
    highest terms, not 1; peeling and the canonical basis divide it out where
    they need a unit leading term.
    """
    if not m.is_dominant():
        raise NotDominant(f"{m} is not dominant")
    _depth_bound_in_budget(alg, m, budget)
    acc = YtElement.unit()
    for i, l in _fundamental_order(m):
        acc = alg.mul(acc, fundamental(alg, i, l, budget))
        if len(acc) > budget.max_monomials:
            raise BudgetExceeded(
                f"E_t({m}) reached {len(acc)} monomials, more than {budget.max_monomials}"
            )
    return acc


def e_t_normalized(alg: YtAlgebra, m: Monomial, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """e_t rescaled so the coefficient of m is exactly 1."""
    e = e_t(alg, m, budget)
    lead = e.coeff(m)
    sp = lead.single_power()
    if sp is None or sp[1] != 1:
        raise InternalInconsistency(f"leading coefficient on {m} is {lead}, not a t-power")
    return e.scale(TPoly.t_power(-sp[0]))


def dominant_product(alg: YtAlgebra, keys, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """Dominant part of the ordered product of the shifted fundamentals Y_{i,l}, (i, l) in keys.

    star_product and _peel take products' dominant parts from here, and
    _dominant_closure its members.  Each factor is truncated at the top
    level b of keys (fundamental's top): every factor term but the seed is
    right-negative, so in a product of such terms the highest level has
    only nonpositive exponents unless a seed sits there, and a dominant
    product uses only factor terms with no Y above b.  A truncated factor
    is not held to the up-front depth checks of the whole one (t_algorithm),
    only to the budget per monomial.  The factors are multiplied left to
    right, a partial term m1 times a factor term m2 with the twist
    t^N(m1, m2).  The supply at (i, l) is the sum, over the factors still
    to come, of each one's largest positive exponent there; a product m1 m2
    whose exponent at some (i, l) is below minus the supply can reach no
    dominant monomial and is dropped before its twist is formed.  Every
    kept partial product is held to budget.max_monomials.
    """
    top = max((l for _, l in keys), default=0)
    factors = [fundamental(alg, i, l, budget, top) for i, l in keys]
    supplies = [{}]  # supplies[k]: the most that the factors after factor k add per key
    for f in reversed(factors[1:]):
        supply = dict(supplies[-1])
        high = {}
        for m in f.monomials():
            for key, e in m.data:
                if e > high.get(key, 0):
                    high[key] = e
        for key, e in high.items():
            supply[key] = supply.get(key, 0) + e
        supplies.append(supply)
    supplies.reverse()
    acc = {Monomial.unit(): ONE}
    for f, supply in zip(factors, supplies):
        out = {}
        for m1, p1 in acc.items():
            for m2, p2 in f.items():
                m = m1.times(m2)
                for key, e in m.data:
                    if e < 0 and e + supply.get(key, 0) < 0:
                        break
                else:  # no exponent of m1 m2 is below minus the supply
                    q = p1 * p2 * TPoly.t_power(alg.bichar_n(m1, m2))
                    hit = out.get(m)
                    out[m] = q if hit is None else hit + q
        acc = {m: p for m, p in out.items() if p}
        if len(acc) > budget.max_monomials:
            raise BudgetExceeded(
                f"partial product reached {len(acc)} monomials, more than {budget.max_monomials}"
            )
    return YtElement._adopt(acc)


# ---------------------------------------------------------------------------
# representation-ring elements and the deformed product
# ---------------------------------------------------------------------------


class RepElement(Terms):
    """Z[t^±]-combination of commutative monomials in the classes X_{i,l}."""

    __slots__ = ()

    def __init__(self, terms=None):
        if terms:
            for m in terms:
                if any(e < 0 for _, e in m.items()):
                    raise ValueError(f"Rep-monomial {m} has a negative exponent")
        super().__init__(terms)

    def __repr__(self):
        # imported here so that `import qtchar` does not bind `qtchar.grammar`
        from .grammar import format_rep_monomial

        if not self.terms:
            return "RepElement(0)"
        parts = [f"({p}) {format_rep_monomial(m)}" for m, p in self.sorted_terms()]
        return "RepElement[" + " + ".join(parts) + "]"


def chi_qt(alg: YtAlgebra, x: RepElement, budget: Budget = DEFAULT_BUDGET) -> YtElement:
    """Linear extension of X-monomial -> E_t(matching Y-monomial)."""
    out = YtElement.zero()
    for m, p in x.items():
        out.add_scaled(e_t(alg, m, budget), p)
    return out


def _peel(alg: YtAlgebra, rest: YtElement, budget: Budget) -> RepElement:
    """The RepElement whose chi_qt has the dominant part rest, rest being dominant.

    Each step takes the monomial mu of rest with the largest depth_bound,
    2<wt(mu), rho^v>, and subtracts lam E_t(mu), in place, until rest is
    zero.  Each A_{i,l}^-1 lowers that bound by 2, so mu is maximal under
    leq and its coefficient is final; the peeled terms do not depend on the
    order.  Only the dominant part of each E_t(mu) is formed, by
    dominant_product, so rest stays dominant.
    """
    out = {}
    while not rest.is_zero():
        mu = max(rest.monomials(), key=lambda m: (alg.depth_bound(m), m.degree(), m.sortkey()))
        _depth_bound_in_budget(alg, mu, budget)
        e = dominant_product(alg, _fundamental_order(mu), budget)
        sp = e.coeff(mu).single_power()
        if sp is None or sp[1] != 1:
            raise InversionFails(f"leading coefficient of E_t({mu}) is not a t-power")
        lam = rest.coeff(mu) * TPoly.t_power(-sp[0])
        out[mu] = out.get(mu, ZERO) + lam
        rest.add_scaled(e, -lam)
    return RepElement(out)


def chi_qt_inverse(alg: YtAlgebra, z: YtElement, budget: Budget = DEFAULT_BUDGET) -> RepElement:
    """Invert chi_qt: peel the dominant part of z, then check the whole of z.

    The peel reads only dominant coefficients, which determine an element of
    Im chi_qt.  For a z outside the image the peel still returns something,
    so chi_qt of the result is compared with z in full; z is left unchanged.
    """
    x = _peel(alg, YtElement(z.dominant_part()), budget)
    if chi_qt(alg, x, budget) != z:
        raise InversionFails("z is not in the image of chi_qt: chi_qt of the peel differs from z")
    return x


def star_product(alg: YtAlgebra, x: RepElement, y: RepElement,
                 budget: Budget = DEFAULT_BUDGET) -> RepElement:
    """Deformed Grothendieck product chi_qt^-1(chi_qt(x) chi_qt(y)), from dominant monomials only.

    chi_qt(x) chi_qt(y) is the sum, over the terms p_x m_x of x and p_y m_y
    of y, of p_x p_y times the ordered product of the fundamentals of
    E_t(m_x) followed by those of E_t(m_y).  It lies in Im chi_qt, the
    intersection of the kernels of the deformed screening operators, and a
    nonzero element there has a dominant monomial (Frenkel-Mukhin,
    "Combinatorics of q-characters", math/9911112, carried to q,t by the
    paper).  So the peel of chi_qt_inverse reads only dominant coefficients
    and ends exactly when the dominant part is zero, and its answer depends
    only on the dominant part of the product.  That part, and the dominant
    part of each E_t(mu) peeled, comes from dominant_product; no
    non-dominant term of either is formed.  The product is in the image by
    construction, so the full check of chi_qt_inverse is not repeated here;
    suites.products compares the result with the full product.
    """
    for m in (*x.monomials(), *y.monomials()):
        _depth_bound_in_budget(alg, m, budget)
    right = [(_fundamental_order(my), py) for my, py in y.items()]
    z = YtElement.zero()
    for mx, px in x.items():
        left = _fundamental_order(mx)
        for keys, py in right:
            z.add_scaled(dominant_product(alg, left + keys, budget), px * py)
    return _peel(alg, z, budget)


# ---------------------------------------------------------------------------
# canonical basis and KL-analogue polynomials
# ---------------------------------------------------------------------------


def _dominant_closure(alg: YtAlgebra, m: Monomial, budget: Budget) -> set:
    """The dominant monomials reachable from m through iterated E_t expansions, each
    member held to _depth_bound_in_budget and expanded by dominant_product alone."""
    queue = [m]
    seen = {m}
    while queue:
        mu = queue.pop()
        _depth_bound_in_budget(alg, mu, budget)
        for nu in dominant_product(alg, _fundamental_order(mu), budget).monomials():
            if nu not in seen:
                seen.add(nu)
                queue.append(nu)
    return seen


def _subtract_scaled(residual: dict, x: YtElement, a: TPoly) -> None:
    """residual -= a * x, in place, residual being {monomial: {t-exponent: integer}}:
    one convolution into the monomial's map per term of x, zeros kept."""
    a_items = a.coeffs.items()
    for m, p in x.items():
        d = residual.get(m)
        if d is None:
            d = residual[m] = {}
        for e2, c2 in p.coeffs.items():
            for e1, c1 in a_items:
                d[e1 + e2] = d.get(e1 + e2, 0) - c1 * c2


def lt_and_kl(alg: YtAlgebra, m: Monomial, budget: Budget = DEFAULT_BUDGET):
    """Canonical-basis expansion of E_t(m).

    Returns (kl, lt): kl is a list of (monomial, shift, P) triples where the
    bar-invariant representative of the lower dominant monomial mu is
    t^shift * mu, and P is the KL-analogue polynomial in t^-1 Z[t^-1];
    lt maps each dominant monomial to its (representative-normalized)
    canonical element.  The closure comes from dominant parts; each full
    normalized E_t(mu) is formed only for mu's own closure check, before
    t_algorithm(mu), and dropped after it, so one full E_t is alive at a time.
    The residual E_t(mu) - F_t(mu) - sum a L(nu) of that check is an integer
    map (_subtract_scaled); a is read from it at each lower nu, and every
    entry, dominant or not, must end at zero.
    """
    if not m.is_dominant():
        raise NotDominant(f"{m} is not dominant")
    doms = _dominant_closure(alg, m, budget)
    depth = {mu: alg.a_depth(mu, m) for mu in doms}
    if any(d is None for d in depth.values()):
        raise InternalInconsistency("dominant closure left the cone below m")
    # deepest first, so m, the one member at A-depth 0, comes last
    order = sorted(doms, key=lambda mu: (-depth[mu], mu.sortkey()))
    nn = {mu: alg.bichar_n(mu, mu) for mu in doms}
    lhat = {}
    for mu in order:
        residual = {mon: dict(p.coeffs) for mon, p in e_t_normalized(alg, mu, budget).items()}
        fhat = t_algorithm(alg, mu, budget)
        _subtract_scaled(residual, fhat, ONE)
        lowers = sorted(
            (nu for nu in doms if nu != mu and depth[nu] > depth[mu] and alg.leq(nu, mu)),
            key=lambda nu: (depth[nu], nu.sortkey()),
        )
        rows = []
        lsum = fhat  # a new element from t_algorithm, so it is summed into in place
        for nu in lowers:
            a = TPoly(residual.get(nu))  # drops the entry's zeros
            if a:
                _subtract_scaled(residual, lhat[nu], a)
            diff = nn[nu] - nn[mu]
            if diff % 2:
                raise NonIntegralShift(f"odd quadratic-form gap between {nu} and {mu}")
            c = diff // 2
            alpha = a * TPoly.t_power(-c)
            neg, const, pos = alpha.split_signs()
            beta = const + pos + pos.invert_t()
            p = alpha - beta
            rows.append((nu, c, p))
            lsum.add_scaled(lhat[nu], beta * TPoly.t_power(c))
        if any(any(d.values()) for d in residual.values()):
            raise InternalInconsistency(f"E_t({mu}) did not close over the canonical basis")
        del residual  # so that it is gone before the next member's E_t is formed
        lhat[mu] = lsum
    lt = {mu: lhat[mu].scale(TPoly.t_power((nn[mu] - nn[m]) // 2)) for mu in order}
    return rows, lt  # the rows of the last member, m


# ---------------------------------------------------------------------------
# character trees
# ---------------------------------------------------------------------------


def character_tree(alg: YtAlgebra, m_plus: Monomial, budget: Budget = DEFAULT_BUDGET) -> tuple:
    """The character of m_plus with an edge m1 -> m2 colored (i, l) for m2 = m1 A_{i,l}^-1.

    The blocks are the lifts f_it(m) for every monomial m of the character
    and every node i where m has a Y_i factor and is i-dominant, in the
    order of the character's terms and then of the nodes.  An edge
    joins two monomials of the character in one node-i block whose
    quotient is a single A_{i,l}^-1.  Returns (vertices, edges): the
    monomials of the character in sortkey order, and the (m1, m2, (i, l))
    triples in the sortkey order of (m1, m2).
    """
    result = t_algorithm(alg, m_plus, budget)
    support = set(result.monomials())
    edges = {}
    for m in result.monomials():
        for i in sorted({i for (i, _), _ in m.items()}):
            if not m.is_dominant([i]):
                continue
            members = [mm for mm in f_it(alg, i, m).monomials() if mm in support]
            for m1 in members:
                for m2 in members:
                    if m1 == m2:
                        continue
                    v = alg.factor_over_A(m2, m1)
                    if v and sum(v.values()) == 1:
                        [(key, _)] = v.items()
                        if key[0] == i:
                            edges[(m1, m2)] = key
    vertices = sorted(support, key=lambda m: m.sortkey())
    edge_list = sorted(
        ((src, dst, key) for (src, dst), key in edges.items()),
        key=lambda e: (e[0].sortkey(), e[1].sortkey()),
    )
    return vertices, edge_list
