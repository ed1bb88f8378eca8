"""Exception hierarchy shared by all modules."""


class GarsideHypError(Exception):
    """Base class for all library errors."""


class Inconclusive(GarsideHypError):
    """A cap or a truncation prevented a definite answer; it is not a 'no'."""


# --- Coxeter / group construction -----------------------------------------

class UnknownFamily(GarsideHypError):
    """Group spec token does not match any supported family."""


class RankOutOfRange(GarsideHypError):
    """Family is known but the rank is outside its legal range (e.g. D3)."""


class NonSpherical(GarsideHypError):
    """The diagram does not define a finite Coxeter group."""


class OrderOverflow(Inconclusive):
    """|W| exceeds the configured enumeration cap."""


class GroupMismatch(GarsideHypError):
    """Operands belong to different groups."""


class UnknownGenerator(GarsideHypError):
    """A word references a generator absent from the group."""


class EmptySubset(GarsideHypError):
    """An operation requires a nonempty generator subset."""


# --- Parabolic calculus -----------------------------------------------------

class ReducibleSubset(GarsideHypError):
    """Subset induces a disconnected sub-diagram where irreducibility is required."""


class ImproperSubset(GarsideHypError):
    """Subset equals the whole generator set where a proper one is required."""


class SameVertex(GarsideHypError):
    """Two parabolic-subgroup arguments coincide."""


class PreconditionViolated(GarsideHypError):
    """A documented precondition of the operation does not hold."""


class CapExceeded(Inconclusive):
    """A bounded search hit its cap; the answer is inconclusive, not 'no'."""


# --- Absorbable lab ----------------------------------------------------------

class IdentityInput(GarsideHypError):
    """The identity element is not accepted here."""


class NotAnAbsorptionPair(GarsideHypError):
    """The inf/sup equalities of an absorption pair fail."""


class ZeroLength(GarsideHypError):
    """A triangle of canonical length zero is degenerate."""


# --- Metric graphs -----------------------------------------------------------

class UniverseTooSmall(Inconclusive):
    """The truncation universe cannot contain the requested construction."""


class DisconnectedInput(GarsideHypError):
    """A graph that must be connected (the delta estimate) is not."""


class RepresentativeMissing(Inconclusive):
    """An orbit or edge representative is not a vertex of the supplied graph."""


class MalformedGraph(GarsideHypError):
    """Graph data names a duplicate vertex or an invalid, looped or repeated edge."""


# --- Braid topology ----------------------------------------------------------

class RankTooSmall(GarsideHypError):
    """Strand parameter too small for the construction."""


class IndexOutOfRange(GarsideHypError):
    """Puncture / generator index outside its legal range."""


class NotPureAtStrandOne(GarsideHypError):
    """The distinguished strand does not return to its starting position."""


class NotFoundWithinSearch(GarsideHypError):
    """Bounded search exhausted without a certificate."""
