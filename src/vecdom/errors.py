"""Exception hierarchy shared across the package."""


class VecdomError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(VecdomError):
    """Base class for graph construction and recognition errors."""


class OutOfRangeError(GraphError):
    """A vertex id falls outside the valid range."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered edge appears twice."""


class NotATreeError(GraphError):
    """The graph is not connected and acyclic."""


class NotCographError(GraphError):
    """The graph contains an induced four-vertex path."""


class NotThresholdError(GraphError):
    """The graph has no isolated-or-dominating elimination ordering."""


class NotCompleteError(GraphError):
    """The graph is missing at least one edge."""


class VariantError(VecdomError):
    """Base class for variant descriptor errors."""


class AlphaOutOfRangeError(VariantError):
    """A fractional threshold lies outside the open-closed unit interval."""


class UnknownVariantError(VariantError):
    """No catalogue entry matches the requested variant name."""


class MissingParamError(VariantError):
    """The requested variant needs a parameter that was not supplied."""


class WrongVariantError(VariantError):
    """An operation was applied to an instance it is not defined for."""


class AlreadyInSetError(VecdomError):
    """A vertex was offered to a partial solution that already holds it."""


class InfeasibleError(VecdomError):
    """No vertex subset satisfies the instance.

    ``method`` and ``quality`` name the solver that found out, if any.
    """

    method: str | None = None
    quality: str | None = None


class CertificationError(VecdomError):
    """A solver's own answer failed its feasibility check."""


class TooLargeError(VecdomError):
    """The instance exceeds the exhaustive-search size cap."""


class GadgetError(VecdomError):
    """Base class for gadget construction errors."""


class GadgetParameterError(GadgetError, ValueError):
    """A count that parameterizes a construction is below one."""


class IsolatedVertexError(GadgetError):
    """The base graph has an isolated vertex the construction cannot serve."""


class BlockTooSmallError(GadgetError):
    """A vertex needs more attachment neighbours than its block holds."""


class FeasibilityConditionViolatedError(GadgetError):
    """The construction parameters fail the required feasibility condition."""


class ParseError(VecdomError):
    """Base class for input file errors."""


class MalformedError(ParseError):
    """A line does not match the expected format."""


class CountMismatchError(ParseError):
    """The edge count in the header disagrees with the edge lines."""


class NegativeDemandError(ParseError):
    """A demand value is negative."""


class DuplicateVertexError(ParseError):
    """The same vertex appears twice where it may appear only once."""
