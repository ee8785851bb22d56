"""Exception hierarchy for the qtchar library, the digit limit on integers
read from text, and the rank limit on Cartan matrices.

The CLI maps these onto process exit codes; see qtchar.cli.
"""


class QtcharError(Exception):
    """Base class for all library errors."""


class ParseError(QtcharError):
    """Malformed monomial text or Cartan JSON."""


# Longest digit string read as an integer from text input, well below the
# 4300 digits past which int() raises ValueError instead of converting.
MAX_DIGITS = 100

# Largest Cartan rank set up.  Set-up grows about as the cube of the rank
# (A32 takes 0.1 s and A64 0.7 s, Python 3.11 on a 2-vCPU Xeon), but a name
# such as A100000 would still ask for a matrix of 10^10 entries, and every
# character grows much faster with the rank.  So a larger rank is refused,
# as BudgetExceeded, before a named type's matrix is built and before any
# matrix is eliminated.
MAX_RANK = 32


def parse_int(text: str, what: str) -> int:
    """int(text) for text already checked to be an optional "-" and ASCII
    digits; ParseError when it has more than MAX_DIGITS digits."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ParseError(f"{what}: more than {MAX_DIGITS} digits")
    return int(text)


class DomainError(QtcharError):
    """A precondition on mathematical input was violated."""


class NotCartan(DomainError):
    """Matrix violates the generalized Cartan matrix axioms."""


class NotSymmetrizable(NotCartan):
    """No positive integer symmetrizers exist."""


class NotFiniteType(NotCartan):
    """Symmetrized matrix is not positive definite."""


class NotSimplyLaced(DomainError):
    """Operation requires an ADE Cartan matrix."""


class NotDominant(DomainError):
    """Monomial has a negative exponent where nonnegativity is required."""


class NotIDominant(NotDominant):
    """Monomial is not dominant for the requested node."""


class BudgetExceeded(QtcharError):
    """Monomial or depth budget outgrown before the computation closed."""


class AlgorithmFails(QtcharError):
    """Two applicable nodes disagreed in the t-algorithm.

    By the consistency theorem this cannot happen for correct inputs, so
    it always indicates an implementation bug; we abort loudly.
    """


class InversionFails(QtcharError):
    """A residual with no dominant monomial appeared while inverting chi_qt."""


class NonIntegralShift(QtcharError):
    """Parity of the quadratic form violated while picking bar representatives."""


class InternalInconsistency(QtcharError):
    """Exact arithmetic produced a remainder where none is possible."""
