"""Sparse Laurent polynomials in the deformation parameter t.

TPoly is the coefficient ring of everything downstream: an exact
Z[t, t^-1] implemented as a sparse exponent -> coefficient map.
Instances are treated as immutable; all operations return new objects.
"""

from __future__ import annotations


class TPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if c != 0:
                    d[e] = c
        self.coeffs = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "TPoly":
        return TPoly()

    @staticmethod
    def one() -> "TPoly":
        return TPoly({0: 1})

    @staticmethod
    def const(c: int) -> "TPoly":
        return TPoly({0: c})

    @staticmethod
    def t_power(e: int, c: int = 1) -> "TPoly":
        return TPoly({e: c})

    @staticmethod
    def adopt(coeffs: dict) -> "TPoly":
        """A TPoly that takes over coeffs, whose zero entries are deleted in place."""
        for e in [e for e, c in coeffs.items() if not c]:
            del coeffs[e]
        p = object.__new__(TPoly)
        p.coeffs = coeffs
        return p

    @staticmethod
    def coerce(x) -> "TPoly":
        if isinstance(x, TPoly):
            return x
        if isinstance(x, int):
            return TPoly.const(x)
        raise TypeError(f"cannot coerce {x!r} to TPoly")

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "TPoly":
        other = TPoly.coerce(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            d[e] = d.get(e, 0) + c
        return TPoly(d)

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return TPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "TPoly":
        d = dict(self.coeffs)
        for e, c in TPoly.coerce(other).coeffs.items():
            v = d.get(e, 0) - c
            if v:
                d[e] = v
            else:
                del d[e]  # v = 0 with c != 0 means e was a key of self
        p = object.__new__(TPoly)
        p.coeffs = d
        return p

    def __rsub__(self, other) -> "TPoly":
        return TPoly.coerce(other) - self

    def __mul__(self, other) -> "TPoly":
        other = TPoly.coerce(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return TPoly(d)

    __rmul__ = __mul__

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = TPoly.const(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if not self.coeffs.keys() - {0}:  # a constant equals, so hashes as, its integer
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def at_one(self) -> int:
        """Specialize t -> 1."""
        return sum(self.coeffs.values())

    def invert_t(self) -> "TPoly":
        """Substitute t -> t^-1."""
        return TPoly({-e: c for e, c in self.coeffs.items()})

    def single_power(self):
        """Return (exponent, coefficient) if the polynomial is a monomial, else None."""
        if len(self.coeffs) != 1:
            return None
        [(e, c)] = self.coeffs.items()
        return e, c

    def split_signs(self):
        """Split into (negative-degree part, constant term, positive-degree part)."""
        neg, pos = {}, {}
        const = 0
        for e, c in self.coeffs.items():
            if e < 0:
                neg[e] = c
            elif e > 0:
                pos[e] = c
            else:
                const = c
        return TPoly(neg), TPoly({0: const}), TPoly(pos)

    def nonnegative(self) -> bool:
        """All coefficients nonnegative (membership in N[t, t^-1])."""
        return all(c >= 0 for c in self.coeffs.values())

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        return f"TPoly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.sorted_items():
            if e == 0:
                parts.append(str(c))
            else:
                var = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


ONE = TPoly.one()
ZERO = TPoly.zero()
