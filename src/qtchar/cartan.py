"""Finite-type Cartan matrices, symmetrizers, and the quantized matrix C(z).

The quantized Cartan matrix C(z) has quantum-integer entries; its inverse
C~(z) is expanded as a series in descending powers of z, whose integer
coefficients drive every commutation exponent downstream.  Validation runs
one rational Gauss-Jordan elimination of the integer matrix C = C(1): its
pivots decide finite type, and the column sums of C^-1 are the heights of
the fundamental weights.  The series comes straight from C~(z) C(z) = I:
column j of C(z) has one top-degree term, z^(r_j) with coefficient 1, so
each coefficient is an integer combination of higher ones in its row,
filled in lazily with no division.

Nodes are 1-based throughout the public API.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _symmetrizers(cm: SymmetrizedCartan):
    """Positive integers r_i with r_i C_{i,j} = r_j C_{j,i}, gcd 1 per component.

    The search checks every edge of a component, and no edge joins two.
    """
    ratio = {}
    for start in cm.nodes():
        if start in ratio:
            continue
        ratio[start] = Fraction(1)
        block, stack = [start], [start]  # the Dynkin component of start
        while stack:
            i = stack.pop()
            for j in cm.nodes():
                if i == j or cm.c(i, j) == 0:
                    continue
                want = ratio[i] * Fraction(cm.c(i, j), cm.c(j, i))
                if j in ratio:
                    if ratio[j] != want:
                        raise NotSymmetrizable("inconsistent symmetrizer ratios")
                else:
                    ratio[j] = want
                    block.append(j)
                    stack.append(j)
        scale = lcm(*(ratio[j].denominator for j in block))
        ints = {j: int(ratio[j] * scale) for j in block}
        g = gcd(*ints.values())
        for j in block:
            ratio[j] = ints[j] // g
    return [ratio[i] for i in cm.nodes()]


def _check_rank(n: int):
    if n > MAX_RANK:
        raise BudgetExceeded(f"Cartan rank {n} is more than {MAX_RANK}")


def _inverse(entries):
    """C^-1 by Gauss-Jordan elimination over the rationals; NotFiniteType unless D C > 0.

    No row swaps: the pivot of step k is the ratio of the leading principal
    minors of orders k + 1 and k of C.  The same minor of D C is r_1 ...
    r_(k+1) times that of C, so by Sylvester's criterion D C is positive
    definite exactly when every pivot is positive.
    """
    n = len(entries)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(entries)]
    for k in range(n):
        pivot = rows[k][k]
        if pivot <= 0:
            raise NotFiniteType(f"symmetrized matrix is not positive definite (minor {k + 1})")
        pivot_row = rows[k] = [x / pivot for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[k]:
                rows[i] = [x - row[k] * y for x, y in zip(row, pivot_row)]
    return [row[n:] for row in rows]


class SymmetrizedCartan:
    """Validated finite-type Cartan matrix with r_i, C(z) and the heights.

    Construction checks, in this order: integer entries (ParseError), the
    Cartan axioms (NotCartan), the rank limit MAX_RANK (BudgetExceeded) and
    the symmetrizers (NotSymmetrizable); then it inverts C, which raises
    NotFiniteType unless D C is positive definite.  heights[k - 1] =
    ht(omega_k) = <omega_k, rho^v>, the k-th column sum of C^-1: A_{i,l}
    has weight alpha_i = sum_j C_ji omega_j, so omega_k has root
    coordinates in column k of C^-1.  double_heights holds the integers
    2 ht(omega_k) (InternalInconsistency if one is not an integer).
    """

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
        _check_rank(n)
        self.n = n
        self.entries = entries
        self.r = _symmetrizers(self)
        self.cz = [[{r: 1, -r: 1} if i == j else quantum_integer(c) for j, c in enumerate(row)]
                   for i, (r, row) in enumerate(zip(self.r, entries))]
        self.heights = [sum(column) for column in zip(*_inverse(entries))]
        self.double_heights = [int(2 * h) for h in self.heights]
        if self.double_heights != [2 * h for h in self.heights]:
            raise InternalInconsistency(f"2 ht(omega_k) for {self.heights} are not all integers")

    def c(self, i: int, j: int) -> int:
        """Entry C_{i,j}, 1-based."""
        return self.entries[i - 1][j - 1]

    def nodes(self):
        return range(1, self.n + 1)

    def ri(self, i):
        return self.r[i - 1]

    def is_simply_laced(self) -> bool:
        return all(v == 1 for v in self.r) and all(
            self.c(i, j) >= -1 for i in self.nodes() for j in self.nodes() if i != j
        )


# ---------------------------------------------------------------------------
# inverse series
# ---------------------------------------------------------------------------


class InvCartanSeries:
    """Coefficients of C~(z) = C(z)^-1 expanded in descending powers of z.

    Column j of C(z) has one term of top degree, z^(r_j) with coefficient
    1 on the diagonal; every other term d_kj z^d has d < r_j.  So the
    coefficient of z^(s + r_j) in entry (a, j) of C~(z) C(z) = I gives

        c~_aj(s) = [a = j, s = -r_j] - sum d_kj c~_ak(s + r_j - d)

    over those other terms, and the right side reads only higher levels of
    row a.  Above s = -min r every coefficient is 0, so each row is filled
    from that level down, lazily, one level at a time and with integer
    arithmetic only.  A row is one flat list: c~_ab(s) sits at
    pad + (-min r - s) n + b - 1, behind pad zeros that stand for the levels
    above.  Every term the recurrence reads lies less than pad back, so past
    the entry of the 1 the last pad entries of a row determine the rest:
    once they repeat an earlier window, the row is periodic from there on
    (2 max(r) h^v levels on a simple type, but found here, not assumed), it
    stops growing, and deeper lookups wrap into its last period.  Not
    thread-safe: the package starts no threads, and a lookup extends its
    row in place.
    """

    def __init__(self, cartan: SymmetrizedCartan):
        n, r = cartan.n, cartan.r
        self._n, self._top = n, -min(r)
        self._terms = []  # per column j: (flat distance back, d_kj) of each other term
        for j in range(n):
            col = [(k, d, c) for k in range(n) for d, c in cartan.cz[k][j].items()
                   if (k, d) != (j, r[j])]
            if cartan.cz[j][j].get(r[j]) != 1 or any(d >= r[j] for _, d, _ in col):
                raise InternalInconsistency(f"column {j + 1} of C(z) has no single top term")
            self._terms.append([((r[j] - d) * n + j - k, c) for k, d, c in col])
        self._pad = n * (1 + max(dist for terms in self._terms for dist, _ in terms) // n)
        self._rows = [[0] * self._pad for _ in range(n)]
        self._ones = [self._pad + (r[a] + self._top) * n + a for a in range(n)]
        self._windows = [{} for _ in range(n)]  # per row: last pad entries -> row length
        self._periods = [None] * n  # per row, once found: (start, period) in flat positions

    def entry_coeff(self, a: int, b: int, r: int) -> int:
        """Coefficient of z^r in the series of C~(z)_{a,b}."""
        if r > self._top:
            return 0
        p = self._pad + (self._top - r) * self._n + b - 1
        row = self._rows[a - 1]
        terms, n, pad, one = self._terms, self._n, self._pad, self._ones[a - 1]
        while p >= len(row):
            if self._periods[a - 1]:  # row[q + period] = row[q] for q >= start
                start, period = self._periods[a - 1]
                return row[start + (p - start) % period]
            for q in range(len(row), len(row) + n):
                v = 1 if q == one else 0
                for dist, c in terms[q % n]:
                    v -= c * row[q - dist]
                row.append(v)
            if len(row) - pad > one:
                first = self._windows[a - 1].setdefault(tuple(row[-pad:]), len(row))
                if first < len(row):
                    self._periods[a - 1] = (first, len(row) - first)
                    self._windows[a - 1] = None
        return row[p]


# ---------------------------------------------------------------------------
# named types and JSON input
# ---------------------------------------------------------------------------


# the ranks of each named family; past MAX_RANK, A-D are BudgetExceeded, not unknown
_RANKS = {"A": range(1, MAX_RANK + 1), "B": range(2, MAX_RANK + 1), "C": range(2, MAX_RANK + 1),
          "D": range(4, MAX_RANK + 1), "E": range(6, 9), "F": (4,), "G": (2,)}


def _from_bonds(n, bonds, arrows):
    """2 I with -1 both ways on each bond (i, j), then C_ij = c for each arrow (i, j): c."""
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        m[i - 1][j - 1] = m[j - 1][i - 1] = -1
    for (i, j), c in arrows.items():
        m[i - 1][j - 1] = c
    return m


def named_cartan(name: str):
    """Standard Cartan matrix for names like A3, B2, D4, E6, F4, G2."""
    if not isinstance(name, str):
        raise ParseError(f"Cartan type must be a string, not {name!r}")
    name = name.strip().upper()
    fam, digits = name[:1], name[1:]
    # ASCII only: isdigit() also takes "²", which int() rejects, and "١", read as 1
    if fam not in _RANKS or not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"unknown Cartan type {name!r}")
    n = parse_int(digits, f"Cartan type {name[:20]!r}")
    if fam in "ABCD":  # the only families of unbounded rank
        _check_rank(n)
    if n not in _RANKS[fam]:
        raise ParseError(f"unknown Cartan type {name!r}")
    chain = [(k, k + 1) for k in range(1, n)]
    bonds, arrows = {
        "B": (chain, {(n - 1, n): -2}),  # long arrow toward node n
        "C": (chain, {(n, n - 1): -2}),
        "D": (chain[:-1] + [(n - 2, n)], {}),  # the chain to n - 1; node n on node n - 2
        "E": ([(1, 3), (3, 4), (2, 4)] + chain[3:], {}),  # node 2 on node 4; chain 1-3-4-...-n
        "F": (chain, {(2, 3): -2}),
        "G": (chain, {(1, 2): -3}),
    }.get(fam, (chain, {}))
    return _from_bonds(n, bonds, arrows)


def cartan_from_json(obj) -> SymmetrizedCartan:
    """Accepts {"type": "B2"}, {"matrix": [[...]]}, or a bare type name.

    A JSON object must carry exactly one key; matrix entries must be integers.
    """
    if isinstance(obj, str):
        return SymmetrizedCartan(named_cartan(obj))
    if not isinstance(obj, dict):
        raise ParseError("Cartan input must be a name or a JSON object")
    if obj.keys() == {"type"}:
        return SymmetrizedCartan(named_cartan(obj["type"]))
    if obj.keys() == {"matrix"}:
        return SymmetrizedCartan(obj["matrix"])
    raise ParseError(f"Cartan JSON needs exactly one key, 'type' or 'matrix'; got {sorted(obj)}")
