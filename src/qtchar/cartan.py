"""Finite-type Cartan matrices, symmetrizers, and the quantized matrix C(z).

The quantized Cartan matrix C(z) has quantum-integer entries; its inverse
C~(z) is expanded as a series in descending powers of z, whose integer
coefficients drive every commutation exponent downstream.  det C(z) and the
adjugate adj C(z) come from one fraction-free (Bareiss) Gauss-Jordan
elimination over integer Laurent polynomials, run while the matrix is
validated: its pivots at z = 1 decide finite type, and adj C(1) / det C(1)
= C^-1 gives the heights of the fundamental weights.  Series coefficients
are then produced lazily by exact long division of adjugate entries by
det C(z).

Nodes are 1-based throughout the public API.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    MAX_RANK,
    BudgetExceeded,
    InternalInconsistency,
    NotCartan,
    NotFiniteType,
    NotSymmetrizable,
    ParseError,
    parse_int,
)

# ---------------------------------------------------------------------------
# sparse Laurent polynomials in z: dict exponent -> int
# ---------------------------------------------------------------------------


def zp_add(a, b):
    d = dict(a)
    for e, c in b.items():
        v = d.get(e, 0) + c
        if v:
            d[e] = v
        elif e in d:
            del d[e]
    return d


def zp_mul(a, b):
    d = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = d.get(e, 0) + c1 * c2
            if v:
                d[e] = v
            elif e in d:
                del d[e]
    return d


def quantum_integer(n: int) -> dict:
    """[n]_z = (z^n - z^-n)/(z - z^-1) as a sparse Laurent polynomial."""
    if n == 0:
        return {}
    if n < 0:
        return {e: -c for e, c in quantum_integer(-n).items()}
    return {n - 1 - 2 * k: 1 for k in range(n)}


def _at_one(p: dict) -> int:
    """Value of a Laurent polynomial at z = 1."""
    return sum(p.values())


# ---------------------------------------------------------------------------
# Cartan validation
# ---------------------------------------------------------------------------


class CartanMatrix:
    """Generalized Cartan matrix: integer entries checked against the axioms."""

    def __init__(self, entries):
        try:
            entries = [list(row) for row in entries]
        except TypeError:
            raise ParseError("Cartan matrix must be a list of rows") from None
        for i, row in enumerate(entries):
            for j, x in enumerate(row):
                if type(x) is not int:
                    raise ParseError(f"matrix entry ({i + 1},{j + 1}) is {x!r}, not an integer")
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise NotCartan("matrix must be square and nonempty")
        for i in range(n):
            if entries[i][i] != 2:
                raise NotCartan(f"diagonal entry ({i + 1},{i + 1}) is {entries[i][i]}, not 2")
            for j in range(n):
                if i != j:
                    if entries[i][j] > 0:
                        raise NotCartan(f"off-diagonal entry ({i + 1},{j + 1}) is positive")
                    if (entries[i][j] == 0) != (entries[j][i] == 0):
                        raise NotCartan(f"zero pattern not symmetric at ({i + 1},{j + 1})")
        self.n = n
        self.entries = entries

    def c(self, i: int, j: int) -> int:
        """Entry C_{i,j}, 1-based."""
        return self.entries[i - 1][j - 1]

    def nodes(self):
        return range(1, self.n + 1)

    def components(self):
        """Connected components of the Dynkin graph, as lists of 1-based nodes."""
        seen = set()
        comps = []
        for start in self.nodes():
            if start in seen:
                continue
            block = []
            stack = [start]
            seen.add(start)
            while stack:
                i = stack.pop()
                block.append(i)
                for j in self.nodes():
                    if j not in seen and i != j and self.c(i, j) != 0:
                        seen.add(j)
                        stack.append(j)
            comps.append(sorted(block))
        return comps


def _symmetrizers(cm: CartanMatrix):
    """Positive integers r_i with r_i C_{i,j} = r_j C_{j,i}, gcd 1 per component."""
    ratio = {}
    for block in cm.components():
        ratio[block[0]] = Fraction(1)
        stack = [block[0]]
        while stack:
            i = stack.pop()
            for j in block:
                if i == j or cm.c(i, j) == 0:
                    continue
                want = ratio[i] * Fraction(cm.c(i, j), cm.c(j, i))
                if j in ratio:
                    if ratio[j] != want:
                        raise NotSymmetrizable("inconsistent symmetrizer ratios")
                else:
                    ratio[j] = want
                    stack.append(j)
        scale = 1
        for j in block:
            scale = scale * ratio[j].denominator // gcd(scale, ratio[j].denominator)
        ints = {j: int(ratio[j] * scale) for j in block}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        for j in block:
            ratio[j] = ints[j] // g
    r = [ratio[i] for i in cm.nodes()]
    # global consistency check (catches non-symmetrizable off-tree relations)
    for i in cm.nodes():
        for j in cm.nodes():
            if r[i - 1] * cm.c(i, j) != r[j - 1] * cm.c(j, i):
                raise NotSymmetrizable("r_i C_ij != r_j C_ji")
    return r


def _check_rank(n: int):
    if n > MAX_RANK:
        raise BudgetExceeded(f"Cartan rank {n} is more than {MAX_RANK}")


class SymmetrizedCartan(CartanMatrix):
    """Validated finite-type Cartan matrix with r_i, C(z), det C(z) and adj C(z).

    Construction checks the Cartan axioms and the rank limit MAX_RANK (as
    BudgetExceeded), finds the symmetrizers and runs the elimination of
    C(z), which raises NotFiniteType unless D C is positive definite.
    heights[k - 1] = ht(omega_k) = <omega_k, rho^v>, the k-th column sum of
    C^-1 = adj C(1) / det C(1): A_{i,l} has weight alpha_i = sum_j C_ji
    omega_j, so omega_k has root coordinates in column k of C^-1.
    """

    def __init__(self, entries):
        super().__init__(entries)
        _check_rank(self.n)
        self.r = _symmetrizers(self)
        self.cz = [
            [{r: 1, -r: 1} if i == j else quantum_integer(c) for j, c in enumerate(row)]
            for i, (r, row) in enumerate(zip(self.r, self.entries))
        ]
        self.det, self.adj = _det_and_adjugate(self.cz)
        det1 = _at_one(self.det)
        self.heights = [
            Fraction(sum(_at_one(row[k]) for row in self.adj), det1) for k in range(self.n)
        ]

    def ri(self, i):
        return self.r[i - 1]

    def is_simply_laced(self) -> bool:
        return all(v == 1 for v in self.r) and all(
            self.c(i, j) >= -1 for i in self.nodes() for j in self.nodes() if i != j
        )


def validate_cartan(entries) -> SymmetrizedCartan:
    """Validate a finite-type Cartan matrix and attach r_i, C(z), det and adj."""
    return SymmetrizedCartan(entries)


# ---------------------------------------------------------------------------
# inverse series
# ---------------------------------------------------------------------------


class _DescendingQuotient:
    """Lazy expansion of num/den in Z((z^-1)) by exact long division."""

    __slots__ = ("rem", "den", "den_deg", "den_lead", "coeffs")

    def __init__(self, num: dict, den: dict):
        self.rem = dict(num)
        self.den = den
        self.den_deg = max(den)
        self.den_lead = den[self.den_deg]
        self.coeffs = {}

    def coeff(self, r: int) -> int:
        while self.rem and max(self.rem) - self.den_deg >= r:
            d = max(self.rem)
            e = d - self.den_deg
            c, residue = divmod(self.rem[d], self.den_lead)
            if residue:
                raise InternalInconsistency("non-exact division step in series expansion")
            self.coeffs[e] = c
            for de, dc in self.den.items():
                nd = de + e
                v = self.rem.get(nd, 0) - c * dc
                if v:
                    self.rem[nd] = v
                elif nd in self.rem:
                    del self.rem[nd]
        return self.coeffs.get(r, 0)


def zp_exact_div(num: dict, den: dict) -> dict:
    """num / den for Laurent polynomials; raises if den does not divide num."""
    if not num:
        return {}
    quotient = _DescendingQuotient(num, den)
    quotient.coeff(min(num) - min(den))
    if quotient.rem:
        raise InternalInconsistency("non-exact Laurent division")
    return quotient.coeffs


def _det_and_adjugate(cz):
    """det C(z) and adj C(z) without fractions; NotFiniteType unless D C > 0.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [C(z) | I]: step k
    keeps row k and replaces every other row i by (p_k M_i - M_ik M_k) /
    p_(k-1), with p_k the k-th pivot and p_(-1) = 1.  Every entry stays a
    minor of [C(z) | I], so each division is exact, and at the end the left
    block is det C(z) times the identity and the right block is adj C(z).
    No row swaps: the pivot p_k is the leading principal minor of order
    k + 1, which at z = 1 is that of C.  The same minor of D C is
    r_1 ... r_(k+1) times it, so by Sylvester's criterion D C is positive
    definite exactly when every pivot is positive at z = 1.
    """
    n = len(cz)
    rows = [list(cz[i]) + [{0: 1} if j == i else {} for j in range(n)] for i in range(n)]
    prev = {0: 1}
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if _at_one(pivot) <= 0:
            raise NotFiniteType(f"symmetrized matrix is not positive definite (minor {k + 1})")
        for i in range(n):
            if i == k:
                continue
            row = rows[i]
            neg_factor = {e: -c for e, c in row[k].items()}
            for j in range(2 * n):
                if j != k:
                    entry = zp_add(zp_mul(pivot, row[j]), zp_mul(neg_factor, pivot_row[j]))
                    row[j] = zp_exact_div(entry, prev)
            row[k] = {}
        prev = pivot
    return prev, [row[n:] for row in rows]


class InvCartanSeries:
    """Coefficients of C~(z) = C(z)^-1 expanded in descending powers of z.

    Entries are quotients adj(C(z))_{a,b} / det C(z), expanded lazily and
    cached.  Not thread-safe: the package starts no threads, and expanding
    an entry mutates its cache.
    """

    def __init__(self, cartan: SymmetrizedCartan):
        self._quotients = {
            (a + 1, b + 1): _DescendingQuotient(entry, cartan.det)
            for a, row in enumerate(cartan.adj)
            for b, entry in enumerate(row)
        }

    def entry_coeff(self, a: int, b: int, r: int) -> int:
        """Coefficient of z^r in the series of C~(z)_{a,b}."""
        return self._quotients[(a, b)].coeff(r)


# ---------------------------------------------------------------------------
# named types and JSON input
# ---------------------------------------------------------------------------


def _chain(n):
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    return m


def named_cartan(name: str):
    """Standard Cartan matrix for names like A3, B2, D4, E6, F4, G2."""
    if not isinstance(name, str):
        raise ParseError(f"Cartan type must be a string, not {name!r}")
    name = name.strip().upper()
    fam, digits = name[:1], name[1:]
    # ASCII only: isdigit() also takes "²", which int() rejects, and "١", read as 1
    if fam not in tuple("ABCDEFG") or not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"unknown Cartan type {name!r}")
    n = parse_int(digits, f"Cartan type {name[:20]!r}")
    if fam in "ABCD":  # the only families of unbounded rank
        _check_rank(n)
    if fam == "A" and n >= 1:
        return _chain(n)
    if fam == "B" and n >= 2:
        m = _chain(n)
        m[n - 2][n - 1] = -2  # long arrow toward the last node
        return m
    if fam == "C" and n >= 2:
        m = _chain(n)
        m[n - 1][n - 2] = -2
        return m
    if fam == "D" and n >= 4:
        m = _chain(n - 1)
        for row in m:
            row.append(0)
        m.append([0] * n)
        m[n - 1][n - 1] = 2
        m[n - 1][n - 3] = m[n - 3][n - 1] = -1
        m[n - 1][n - 2] = m[n - 2][n - 1] = 0
        m[n - 2][n - 3] = m[n - 3][n - 2] = -1
        return m
    if fam == "E" and n in (6, 7, 8):
        # branch node 4 carries node 2; chain 1-3-4-5-...-n
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

        def join(a, b):
            m[a - 1][b - 1] = m[b - 1][a - 1] = -1

        join(1, 3)
        join(3, 4)
        join(2, 4)
        for k in range(4, n):
            join(k, k + 1)
        return m
    if fam == "F" and n == 4:
        m = _chain(4)
        m[1][2] = -2
        return m
    if fam == "G" and n == 2:
        return [[2, -3], [-1, 2]]
    raise ParseError(f"unknown Cartan type {name!r}")


def cartan_from_json(obj) -> SymmetrizedCartan:
    """Accepts {"type": "B2"}, {"matrix": [[...]]}, or a bare type name.

    A JSON object must carry exactly one key; matrix entries must be integers.
    """
    if isinstance(obj, str):
        return validate_cartan(named_cartan(obj))
    if not isinstance(obj, dict):
        raise ParseError("Cartan input must be a name or a JSON object")
    if obj.keys() == {"type"}:
        return validate_cartan(named_cartan(obj["type"]))
    if obj.keys() == {"matrix"}:
        return validate_cartan(obj["matrix"])
    raise ParseError(f"Cartan JSON needs exactly one key, 'type' or 'matrix'; got {sorted(obj)}")
