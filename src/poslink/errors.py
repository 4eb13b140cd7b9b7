"""Exception types shared across the package."""


class PoslinkError(Exception):
    """Base class for every error raised by this package."""


# Diagram parsing and validation.

class MalformedPD(PoslinkError, ValueError):
    """Input text does not match the PD grammar."""


class ArityError(MalformedPD):
    """A crossing tuple does not have exactly four entries."""


class ArcMultiplicity(MalformedPD):
    """Arc labels do not cover 1..2c with each label appearing exactly twice."""


class MalformedBraid(PoslinkError, ValueError):
    """Input text does not match the braid-word grammar."""


class ZeroLetter(MalformedBraid):
    """A braid word contains the letter 0, which names no generator."""


class GeneratorOutOfRange(MalformedBraid):
    """A braid letter references a generator outside 1..strands-1."""


class OrientationInconsistent(PoslinkError, ValueError):
    """The diagram's arcs cannot be consistently oriented."""


# Polynomials.

class MalformedPolynomial(PoslinkError, ValueError):
    """Input text does not match the Laurent polynomial grammar."""


class MixedParity(PoslinkError, ValueError):
    """Exponents mix integer and half-odd-integer values."""


class NotDivisible(PoslinkError, ValueError):
    """Exact polynomial division left a nonzero remainder."""


class ZeroPolynomial(PoslinkError, ValueError):
    """The zero polynomial has no degrees to summarize."""


class NotPositiveDiagram(PoslinkError, ValueError):
    """An operation restricted to positive diagrams was given a non-positive one."""


# Computation limits.

# the homology crossing cap unless one is given; here rather than in
# khovanov, so that reading the default does not load the homology code
DEFAULT_CROSSING_CAP = 16


class CrossingCapExceeded(PoslinkError, ValueError):
    """Crossing count exceeds the configured cap for this computation."""


# Khovanov homology.

class EmptyHomology(PoslinkError, RuntimeError):
    """No nonzero homology groups were found; impossible for a nonempty link."""


class MalformedKhPolynomial(PoslinkError, ValueError):
    """Input text does not match the t/q/T homology-polynomial grammar."""


class UnsupportedTorsionExponent(MalformedKhPolynomial):
    """A torsion marker T^k with k != 2 was encountered; reported, not guessed."""


# Obstruction tests.

class NotApplicableError(PoslinkError, ValueError):
    """The requested obstruction case falls outside the supported families."""


# Ingestion.

class FileUnreadable(PoslinkError, OSError):
    """The input file could not be opened or read."""


class ColumnMissing(PoslinkError, ValueError):
    """A declared CSV column is absent from the header."""
