"""Exception types shared across the package, and :class:`Value`, the base
of its field-wise value classes; every layer imports this module already,
so the base loads nothing new."""


class Value:
    """A record compared, hashed and shown by the fields its class names in
    ``__slots__``, in order: ``Name(field=value, ...)``.  Only instances of
    one class compare equal.  Constructors stay in the subclasses."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


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
    """Crossing count exceeds the configured cap for this computation, or
    free circles would double the homology's torsion factors past
    ``khovanov.MAX_TORSION_FACTORS``."""


# Khovanov homology.

class EmptyHomology(PoslinkError, RuntimeError):
    """No nonzero homology groups were found; impossible for a nonempty link."""


class MalformedKhPolynomial(PoslinkError, ValueError):
    """Input text does not match the t/q/T homology-polynomial grammar."""


# Obstruction tests.

class NotApplicableError(PoslinkError, ValueError):
    """The requested obstruction case falls outside the supported families."""


# Ingestion.

class FileUnreadable(PoslinkError, OSError):
    """The input file could not be opened or read."""


class ColumnMissing(PoslinkError, ValueError):
    """A declared CSV column is absent from the header."""
