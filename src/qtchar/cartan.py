"""Finite-type Cartan matrices, symmetrizers, and the quantized matrix C(z).

The quantized Cartan matrix C(z) has quantum-integer entries; its inverse
C~(z) is expanded as a series in descending powers of z, whose integer
coefficients drive every commutation exponent downstream.  det C(z) and the
adjugate adj C(z) come from a fraction-free (Bareiss) Gauss-Jordan
elimination over integer Laurent polynomials; coefficients are then produced
lazily by exact long division of adjugate entries by det C(z).

Nodes are 1-based throughout the public API.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd

from .errors import InternalInconsistency, NotCartan, NotFiniteType, NotSymmetrizable, ParseError

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


# ---------------------------------------------------------------------------
# Cartan validation
# ---------------------------------------------------------------------------


class CartanMatrix:
    """Validated finite-type generalized Cartan matrix."""

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


def _positive_definite(sym_rows) -> bool:
    """Leading-principal-minor test, exact over Fractions."""
    n = len(sym_rows)
    m = [[Fraction(x) for x in row] for row in sym_rows]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


class SymmetrizedCartan:
    """Finite-type Cartan matrix with symmetrizers r_i and the matrices C(z), B(z)."""

    def __init__(self, base: CartanMatrix, r):
        self.base = base
        self.r = list(r)
        n = base.n
        self.cz = [[None] * n for _ in range(n)]
        for i in base.nodes():
            for j in base.nodes():
                if i == j:
                    self.cz[i - 1][j - 1] = {self.r[i - 1]: 1, -self.r[i - 1]: 1}
                else:
                    self.cz[i - 1][j - 1] = quantum_integer(base.c(i, j))
        # B(z) = D(z) C(z) with D(z) = diag([r_i]_z); symmetric for valid input
        self.bz = [
            [zp_mul(quantum_integer(self.r[i]), self.cz[i][j]) for j in range(n)]
            for i in range(n)
        ]

    @property
    def n(self):
        return self.base.n

    def nodes(self):
        return self.base.nodes()

    def c(self, i, j):
        return self.base.c(i, j)

    def ri(self, i):
        return self.r[i - 1]

    def is_simply_laced(self) -> bool:
        return all(v == 1 for v in self.r) and all(
            self.c(i, j) >= -1 for i in self.nodes() for j in self.nodes() if i != j
        )


def validate_cartan(entries) -> SymmetrizedCartan:
    """Validate a finite-type Cartan matrix and attach symmetrizers and C(z)/B(z)."""
    cm = CartanMatrix(entries)
    r = _symmetrizers(cm)
    sym = [[r[i] * cm.entries[i][j] for j in range(cm.n)] for i in range(cm.n)]
    if not _positive_definite(sym):
        raise NotFiniteType("symmetrized matrix is not positive definite")
    return SymmetrizedCartan(cm, r)


# ---------------------------------------------------------------------------
# inverse series
# ---------------------------------------------------------------------------


class _DescendingQuotient:
    """Lazy expansion of num/den in Z((z^-1)) by exact long division."""

    __slots__ = ("rem", "den", "den_deg", "den_lead", "coeffs", "low_mark")

    def __init__(self, num: dict, den: dict):
        self.rem = dict(num)
        self.den = den
        self.den_deg = max(den)
        self.den_lead = den[self.den_deg]
        self.coeffs = {}
        # everything at degree >= low_mark is final
        self.low_mark = (max(num) - self.den_deg + 1) if num else 0

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
            self.low_mark = e
        if not self.rem:
            self.low_mark = min(self.low_mark, r)
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


def _det_and_adjugate(mat):
    """det M and adj M of a square Laurent-polynomial matrix, without fractions.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [M | I]: step k keeps
    row k and replaces every other row i by (p_k M_i - M_ik M_k) / p_(k-1),
    with p_k the k-th pivot and p_(-1) = 1.  Every entry stays a minor of
    [M | I], so each division is exact, and at the end the left block is
    det M times the identity and the right block is adj M.  No row swaps: the
    pivots are the leading principal minors of M, nonzero for C(z) of finite
    type because they are positive at z = 1.
    """
    n = len(mat)
    rows = [list(mat[i]) + [{0: 1} if j == i else {} for j in range(n)] for i in range(n)]
    prev = {0: 1}
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if not pivot:
            raise InternalInconsistency(f"leading principal minor {k + 1} vanishes")
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
    cached.  Thread safety: a single lock guards cache extension.
    """

    def __init__(self, owner: SymmetrizedCartan):
        self.owner = owner
        self._lock = threading.RLock()
        det, adj = _det_and_adjugate(owner.cz)
        n = owner.n
        self._quotients = {
            (a + 1, b + 1): _DescendingQuotient(adj[a][b], det)
            for a in range(n)
            for b in range(n)
        }

    def entry_coeff(self, a: int, b: int, r: int) -> int:
        """Coefficient of z^r in the series of C~(z)_{a,b}."""
        with self._lock:
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
    if len(name) < 2 or name[0] not in "ABCDEFG" or not name[1:].isdigit():
        raise ParseError(f"unknown Cartan type {name!r}")
    fam, n = name[0], int(name[1:])
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
