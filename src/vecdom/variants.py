"""The variant algebra: named domination problems and their normal form.

Every supported problem is described by three axes plus a threshold rule:

* neighbourhood: does a vertex count itself (``closed``) or not (``open``),
* scope: is the demand imposed on all vertices (``total``) or only on
  vertices outside the chosen set (``partial``),
* inequality: must the covered amount reach the threshold (``weak``) or
  exceed it (``strict``),
* threshold: a uniform integer, an explicit per-vertex vector, or a
  fraction of the neighbourhood size.

Compilation turns any such description into the normal form used by the
solvers: a graph, a neighbourhood convention, a scope, and one integer
demand per vertex.  Fractional thresholds are handled with exact rational
arithmetic, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, repeat
from operator import add, gt
from typing import Sequence

from .errors import (
    AlphaOutOfRangeError,
    InfeasibleError,
    MissingParamError,
    NegativeDemandError,
    UnknownVariantError,
)
from .graph import Graph

__all__ = [
    "Neighborhood",
    "Scope",
    "Inequality",
    "UniformThreshold",
    "FractionThreshold",
    "ExplicitThreshold",
    "VariantSpec",
    "Instance",
    "compile_variant",
    "named_variant",
    "variant_catalogue",
    "demand_bound",
    "reduce_forced",
]


class Neighborhood(str, Enum):
    OPEN = "open"
    CLOSED = "closed"


class Scope(str, Enum):
    TOTAL = "total"
    PARTIAL = "partial"


class Inequality(str, Enum):
    WEAK = "weak"
    STRICT = "strict"


@dataclass(frozen=True)
class UniformThreshold:
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise NegativeDemandError(f"uniform threshold {self.k} is negative")


@dataclass(frozen=True)
class FractionThreshold:
    alpha: Fraction

    def __post_init__(self) -> None:
        alpha = Fraction(self.alpha)
        if not 0 < alpha <= 1:
            raise AlphaOutOfRangeError(f"fraction {alpha} must satisfy 0 < a <= 1")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class ExplicitThreshold:
    demands: tuple[int, ...]

    def __post_init__(self) -> None:
        demands = tuple(self.demands)
        _check_signs(demands)
        object.__setattr__(self, "demands", demands)


Threshold = UniformThreshold | FractionThreshold | ExplicitThreshold


@dataclass(frozen=True)
class VariantSpec:
    """A point in the variant algebra, prior to compilation on a graph."""

    neighborhood: Neighborhood
    scope: Scope
    inequality: Inequality
    threshold: Threshold

    def __post_init__(self) -> None:
        if self.inequality is Inequality.STRICT and not isinstance(
            self.threshold, FractionThreshold
        ):
            raise AlphaOutOfRangeError(
                "strict inequalities are only defined for fractional thresholds"
            )


@dataclass(frozen=True)
class Instance:
    """Compiled normal form: graph, conventions, and integer demands."""

    graph: Graph
    neighborhood: Neighborhood
    scope: Scope
    demands: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.demands) != self.graph.n:
            raise MissingParamError(
                f"expected {self.graph.n} demands, got {len(self.demands)}"
            )
        _check_signs(self.demands)


def _check_signs(demands: Sequence[int]) -> None:
    if demands and min(demands) < 0:
        v = next(v for v, k in enumerate(demands) if k < 0)
        raise NegativeDemandError(f"demand {demands[v]} at vertex {v} is negative")


def demand_bound(neighborhood: Neighborhood, degree: int) -> int:
    """Largest demand a vertex of the given degree can definitionally meet."""
    return degree + 1 if neighborhood is Neighborhood.CLOSED else degree


def compile_variant(g: Graph, spec: VariantSpec) -> Instance:
    """Resolve a variant description into per-vertex integer demands."""
    t = spec.threshold
    if isinstance(t, UniformThreshold):
        demands = (t.k,) * g.n
    elif isinstance(t, ExplicitThreshold):
        if len(t.demands) != g.n:
            raise MissingParamError(
                f"expected {g.n} demands, got {len(t.demands)}"
            )
        demands = t.demands
    else:
        # the smallest integer >= alpha*count (weak) or > alpha*count (strict),
        # (p*count + q - 1) // q or (p*count + q) // q, once per distinct degree
        p, q = t.alpha.numerator, t.alpha.denominator
        top = q - 1 if spec.inequality is Inequality.WEAK else q
        degrees = g.degrees()
        rule = {d: (p * demand_bound(spec.neighborhood, d) + top) // q for d in set(degrees)}
        demands = tuple(map(rule.__getitem__, degrees))
    return Instance(g, spec.neighborhood, spec.scope, demands)


_CATALOGUE: dict[str, tuple[Neighborhood, Scope, Inequality, str]] = {
    # name -> (neighbourhood, scope, inequality, threshold parameter kind)
    "alpha-domination": (Neighborhood.OPEN, Scope.PARTIAL, Inequality.WEAK, "alpha"),
    "alpha-rate-domination": (Neighborhood.CLOSED, Scope.TOTAL, Inequality.WEAK, "alpha"),
    "domination": (Neighborhood.CLOSED, Scope.TOTAL, Inequality.WEAK, "one"),
    "k-domination": (Neighborhood.OPEN, Scope.PARTIAL, Inequality.WEAK, "k"),
    "k-tuple-domination": (Neighborhood.CLOSED, Scope.TOTAL, Inequality.WEAK, "k"),
    "k-tuple-total-domination": (Neighborhood.OPEN, Scope.TOTAL, Inequality.WEAK, "k"),
    "monopoly": (Neighborhood.CLOSED, Scope.TOTAL, Inequality.WEAK, "half"),
    "multiple-domination": (Neighborhood.CLOSED, Scope.TOTAL, Inequality.WEAK, "vector"),
    "partial-monopoly": (Neighborhood.OPEN, Scope.PARTIAL, Inequality.STRICT, "half"),
    "positive-influence-domination": (Neighborhood.OPEN, Scope.TOTAL, Inequality.WEAK, "half"),
    "strict-alpha-domination": (Neighborhood.OPEN, Scope.PARTIAL, Inequality.STRICT, "alpha"),
    "strict-total-alpha-domination": (Neighborhood.OPEN, Scope.TOTAL, Inequality.STRICT, "alpha"),
    "total-alpha-domination": (Neighborhood.OPEN, Scope.TOTAL, Inequality.WEAK, "alpha"),
    "total-domination": (Neighborhood.OPEN, Scope.TOTAL, Inequality.WEAK, "one"),
    "total-vector-domination": (Neighborhood.OPEN, Scope.TOTAL, Inequality.WEAK, "vector"),
    "vector-domination": (Neighborhood.OPEN, Scope.PARTIAL, Inequality.WEAK, "vector"),
    # demand equals the full degree; weak open fraction 1 compiles to exactly that
    "vertex-cover": (Neighborhood.OPEN, Scope.PARTIAL, Inequality.WEAK, "full"),
}

_ALIASES = {
    "vector": "vector-domination",
    "partial": "vector-domination",
    "total": "total-vector-domination",
    "multiple": "multiple-domination",
    "alpha": "alpha-domination",
    "total-alpha": "total-alpha-domination",
    "alpha-rate": "alpha-rate-domination",
}


def variant_catalogue() -> tuple[str, ...]:
    """All canonical variant names, sorted."""
    return tuple(sorted(_CATALOGUE))


def named_variant(
    name: str,
    *,
    alpha: Fraction | None = None,
    k: int | None = None,
    demands: Sequence[int] | None = None,
) -> VariantSpec:
    """Look up a variant by its catalogue name and bind its parameters.

    Raises:
        UnknownVariantError: the name matches no catalogue entry.
        MissingParamError: the entry needs ``alpha``, ``k``, or ``demands``
            and it was not supplied.
    """
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    key = _ALIASES.get(key, key)
    if key not in _CATALOGUE:
        raise UnknownVariantError(f"unknown variant {name!r}")
    neighborhood, scope, inequality, param = _CATALOGUE[key]
    threshold: Threshold
    if param == "alpha":
        if alpha is None:
            raise MissingParamError(f"variant {key!r} needs a fraction alpha")
        threshold = FractionThreshold(Fraction(alpha))
    elif param == "half":
        threshold = FractionThreshold(Fraction(1, 2))
    elif param == "full":
        threshold = FractionThreshold(Fraction(1))
    elif param == "one":
        threshold = UniformThreshold(1)
    elif param == "k":
        if k is None:
            raise MissingParamError(f"variant {key!r} needs an integer k")
        threshold = UniformThreshold(k)
    else:
        if demands is None:
            raise MissingParamError(f"variant {key!r} needs per-vertex demands")
        threshold = ExplicitThreshold(tuple(demands))
    return VariantSpec(neighborhood, scope, inequality, threshold)


def reduce_forced(inst: Instance) -> list[int]:
    """The forced vertices, in ascending order.

    Under partial scope every feasible set holds the over-demanded
    vertices.  Under total scope none may exist, and without one the whole
    vertex set is feasible, so nothing is forced.

    Raises:
        InfeasibleError: total scope and some vertex is over-demanded.
    """
    # over-demanded: more than the neighbourhood can ever supply
    adj = inst.graph._adj
    demands = inst.demands
    supply = map(len, adj)
    if inst.neighborhood is Neighborhood.CLOSED:
        supply = map(add, supply, repeat(1))
    over = list(compress(range(len(adj)), map(gt, demands, supply)))
    if over and inst.scope is Scope.TOTAL:
        v = over[0]
        bound = demand_bound(inst.neighborhood, inst.graph.degree(v))
        raise InfeasibleError(f"vertex {v} demands {demands[v]} of {bound} neighbours")
    return over
