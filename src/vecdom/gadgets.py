"""Instance constructions that sandwich one domination number by another.

Each builder returns the enlarged graph together with a machine-checkable
claim of the form ``a*base + b  <=  middle  <=  c*base + d``, where the
base quantity is an optimum of the input graph and the middle quantity is
an optimum of the construction under some other variant.
:func:`verify_sandwich` evaluates all three numbers by brute force and also
feeds the construction's own upper-bound witness through the feasibility
checker.

Per-vertex attachment demands follow the shared pattern: glue ``k_v`` extra
neighbours onto a vertex whose neighbourhood holds ``s`` vertices so that
the fraction of chosen neighbours it ends up with brackets the target
ratio exactly.  Both bracketing inequalities are asserted with exact
rationals at build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    AlphaOutOfRangeError,
    BlockTooSmallError,
    FeasibilityConditionViolatedError,
    GadgetParameterError,
    IsolatedVertexError,
)
from .exact import DEFAULT_ORACLE_CAP, brute_force_minimum
from .feasibility import Solution, is_feasible
from .graph import Graph, build_graph
from .io import MAX_VERTICES
from .variants import Neighborhood, compile_variant, demand_bound, named_variant

__all__ = [
    "SandwichClaim",
    "GadgetOutput",
    "SandwichReport",
    "gadget_replicate",
    "gadget_alpha_domination",
    "gadget_total_alpha",
    "gadget_alpha_rate",
    "gadget_k_domination",
    "upper_witness",
    "verify_sandwich",
]


@dataclass(frozen=True)
class SandwichClaim:
    """One checkable chain: lower <= middle optimum <= upper.

    ``lower`` and ``upper`` are (coefficient, offset) pairs applied to the
    base-variant optimum of the original graph; ``lower`` may be absent for
    upper-bound-only constructions.  ``alpha``/``k`` parameterize the
    middle variant where it needs them.
    """

    base_variant: str
    middle_variant: str
    alpha: Fraction | None
    k: int | None
    lower: tuple[int, int] | None
    upper: tuple[int, int]


@dataclass(frozen=True)
class GadgetOutput:
    """A built construction plus everything needed to check its claim.

    ``embeddings[j][v]`` is the id of base vertex ``v`` inside copy ``j``
    of the construction; ``attachment_demands[v]`` counts the extra
    neighbours glued onto each copy of ``v``; ``attachment_vertices`` are
    the glued-on vertices themselves (the edgeless pool or the clique).
    """

    construction: str
    base: Graph
    gprime: Graph
    embeddings: tuple[tuple[int, ...], ...]
    attachment_demands: tuple[int, ...]
    attachment_vertices: tuple[int, ...]
    claim: SandwichClaim


@dataclass(frozen=True)
class SandwichReport:
    lower: int | None
    middle: int
    upper: int
    passed: bool
    witness_size: int
    witness_feasible: bool


def _validated_alpha(alpha: Fraction | int | str) -> Fraction:
    a = Fraction(alpha)
    if not 0 < a < 1:
        raise AlphaOutOfRangeError(f"constructions need 0 < alpha < 1, got {a}")
    return a


def _reject_isolated(g: Graph) -> None:
    for v in range(g.n):
        if g.degree(v) == 0:
            raise IsolatedVertexError(f"vertex {v} is isolated")


def _require_positive(**counts: int | None) -> None:
    """Reject a count below one; ``None`` leaves it to its default."""
    for name, value in counts.items():
        if value is not None and value < 1:
            raise GadgetParameterError(f"{name} must be at least 1, got {value}")


def _require_buildable(g: Graph, copies: int, extra_vertices: int, extra_edges: int) -> None:
    """Reject a G' of ``copies`` copies of g plus the extras before it is built.

    Either count above ``MAX_VERTICES``, the limit on an input graph, is
    refused, so no parameter can make a construction exhaust memory.
    """
    vertices = copies * g.n + extra_vertices
    edges = copies * g.m + extra_edges
    if max(vertices, edges) > MAX_VERTICES:
        raise GadgetParameterError(
            f"G' would have {vertices} vertices and {edges} edges; "
            f"each must stay within {MAX_VERTICES}"
        )


def _default_factor(alpha: Fraction) -> int:
    """Pool multiplier and block factor unless given: ceil(alpha/(1-alpha))."""
    return math.ceil(alpha / (1 - alpha))


def _attachment_demand(alpha: Fraction, size: int) -> int:
    """Extra neighbours for a neighbourhood of ``size`` vertices.

    ``size`` is the degree, or the degree + 1 when neighbourhoods are
    closed.  With ``k`` extra neighbours the vertex needs exactly one
    chosen neighbour beyond them.
    """
    return math.ceil((alpha * size - 1) / (1 - alpha)) if size >= 2 else 0


def _attachment_demands(g: Graph, alpha: Fraction, nbhd: Neighborhood) -> tuple[int, ...]:
    return tuple(_attachment_demand(alpha, demand_bound(nbhd, g.degree(v))) for v in range(g.n))


def _attach(
    demands: tuple[int, ...], offsets: Sequence[int], start: int, size: int
) -> list[tuple[int, int]]:
    """Glue the copies at ``offsets`` round-robin onto ``start .. start+size-1``.

    Each copy of ``v`` gets ``demands[v]`` distinct neighbours there, and
    the rotation spreads the load evenly over the block.
    """
    top = max(demands, default=0)
    if top > size:
        raise BlockTooSmallError(f"attachment demand {top} exceeds the block size {size}")
    edges = []
    p = 0
    for off in offsets:
        for v, kv in enumerate(demands):
            edges.extend((off + v, start + (p + t) % size) for t in range(kv))
            p += kv
    return edges


def _assemble(
    construction: str,
    g: Graph,
    copies: int,
    blocks: int,
    block_size: int,
    clique: bool,
    demands: tuple[int, ...],
    claim: SandwichClaim,
) -> GadgetOutput:
    """Copies of g glued round-robin onto one attachment block: every construction's layout.

    Copy j takes ids ``j*n .. j*n + n-1`` and the block of ``blocks *
    block_size`` vertices follows the copies, a clique when ``clique`` is
    set and edgeless otherwise.  The block is cut into ``blocks`` runs of
    ``block_size``, and run b serves the b-th of ``blocks`` equal shares of
    the copies.
    """
    n, size = g.n, blocks * block_size
    clique_edges = size * (size - 1) // 2 if clique else 0
    _require_buildable(g, copies, size, clique_edges + copies * sum(demands))
    offsets = [j * n for j in range(copies)]
    start = copies * n
    edges = [(off + u, off + v) for off in offsets for u, v in g.edges()]
    if clique:
        edges += combinations(range(start, start + size), 2)
    for b in range(blocks):
        served = offsets[b * copies // blocks : (b + 1) * copies // blocks]
        edges += _attach(demands, served, start + b * block_size, block_size)
    return GadgetOutput(
        construction=construction,
        base=g,
        gprime=build_graph(start + size, edges),
        embeddings=tuple(tuple(range(off, off + n)) for off in offsets),
        attachment_demands=demands,
        attachment_vertices=tuple(range(start, start + size)),
        claim=claim,
    )


def gadget_replicate(g: Graph, copies: int) -> GadgetOutput:
    """Disjoint copies of the graph; the optimum scales by the copy count."""
    _require_positive(copies=copies)
    claim = SandwichClaim(
        "domination", "domination", alpha=None, k=None, lower=(copies, 0), upper=(copies, 0)
    )
    return _assemble("replicate", g, copies, 0, 0, False, (0,) * g.n, claim)


def gadget_alpha_domination(
    g: Graph, alpha: Fraction | int | str, multiplier: int | None = None
) -> GadgetOutput:
    """Attach an edgeless pool so fractional domination brackets domination.

    The pool holds ``multiplier * max_degree`` vertices (multiplier
    defaults to ceil(alpha/(1-alpha))); vertex ``v`` receives its demand's
    worth of pool neighbours round-robin.  Claim:
    base <= middle <= base + pool size.
    """
    a = _validated_alpha(alpha)
    _reject_isolated(g)
    _require_positive(multiplier=multiplier)
    mult = multiplier if multiplier is not None else _default_factor(a)
    pool_size = mult * g.max_degree()
    demands = _attachment_demands(g, a, Neighborhood.OPEN)
    claim = SandwichClaim(
        "domination", "alpha-domination", alpha=a, k=None, lower=(1, 0), upper=(1, pool_size)
    )
    return _assemble("alpha-domination", g, 1, 1, pool_size, False, demands, claim)


# construction -> (neighbourhoods, base variant, middle variant); the clique
# gate is twice as strict for open neighbourhoods as for closed ones
_CLIQUE_GADGETS = {
    "total-alpha": (Neighborhood.OPEN, "total-domination", "total-alpha-domination"),
    "alpha-rate": (Neighborhood.CLOSED, "domination", "alpha-rate-domination"),
}


def _copies_plus_clique(
    construction: str,
    g: Graph,
    alpha: Fraction | int | str,
    blocks: int | None,
    copies_per_block: int,
    block_factor: int | None,
) -> GadgetOutput:
    """Shared body: ``blocks`` runs of a clique, each serving ``copies_per_block`` copies of g.

    The gate checks the clique can absorb its copies, and the claim brackets
    the middle optimum by the copies' base optima plus the clique.
    """
    nbhd, base_variant, middle_variant = _CLIQUE_GADGETS[construction]
    a = _validated_alpha(alpha)
    _reject_isolated(g)
    _require_positive(blocks=blocks, copies_per_block=copies_per_block, block_factor=block_factor)
    bf = block_factor if block_factor is not None else _default_factor(a)
    gate = 2 if nbhd is Neighborhood.OPEN else 1
    need = gate * a * copies_per_block / ((1 - a) * bf)
    if blocks is None:
        blocks = math.ceil(need)
    elif blocks < need:
        raise FeasibilityConditionViolatedError(
            f"the clique cannot absorb its copies: need blocks >= {need}, got {blocks}"
        )
    demands = _attachment_demands(g, a, nbhd)
    copies, block_size = blocks * copies_per_block, bf * copies_per_block
    lower, upper = (copies, 0), (copies, blocks * block_size)
    claim = SandwichClaim(base_variant, middle_variant, alpha=a, k=None, lower=lower, upper=upper)
    return _assemble(construction, g, copies, blocks, block_size, True, demands, claim)


def gadget_total_alpha(
    g: Graph,
    alpha: Fraction | int | str,
    blocks: int | None,
    copies_per_block: int,
    block_factor: int | None = None,
) -> GadgetOutput:
    """Copies-plus-clique construction for total fractional domination.

    ``blocks * copies_per_block`` copies of the graph attach into a clique
    of ``block_factor * blocks * copies_per_block`` vertices split into
    equal blocks (block_factor defaults to ceil(alpha/(1-alpha))).  The
    clique must be big enough relative to the copies it absorbs:
    blocks >= 2*alpha*copies_per_block / ((1-alpha)*block_factor), checked
    exactly; ``blocks=None`` takes the smallest such count.  Claim:
    copies*base <= middle <= copies*base + clique size.
    """
    return _copies_plus_clique("total-alpha", g, alpha, blocks, copies_per_block, block_factor)


def gadget_alpha_rate(
    g: Graph,
    alpha: Fraction | int | str,
    blocks: int | None,
    copies_per_block: int,
    block_factor: int | None = None,
) -> GadgetOutput:
    """Copies-plus-clique construction for the closed-neighbourhood ratio.

    Same shape as :func:`gadget_total_alpha` with the closed-form
    attachment demand and the weaker clique condition
    blocks >= alpha*copies_per_block / ((1-alpha)*block_factor); the base
    quantity is plain domination.
    """
    return _copies_plus_clique("alpha-rate", g, alpha, blocks, copies_per_block, block_factor)


def gadget_k_domination(g: Graph, k: int) -> GadgetOutput:
    """Join a (k-1)-clique onto the graph; k-domination is bounded above.

    Every original vertex gains k-1 universal neighbours, so any
    dominating set of the base plus the whole clique k-dominates the
    result.  Upper bound only: middle <= base + k - 1.
    """
    _require_positive(k=k)
    claim = SandwichClaim(
        "domination", "k-domination", alpha=None, k=k, lower=None, upper=(1, k - 1)
    )
    return _assemble("k-domination", g, 1, 1, k - 1, True, (k - 1,) * g.n, claim)


def _base_optimum(out: GadgetOutput, cap: int) -> Solution:
    base_inst = compile_variant(out.base, named_variant(out.claim.base_variant))
    return brute_force_minimum(base_inst, cap)


def _embedded(out: GadgetOutput, base_vertices: frozenset[int]) -> frozenset[int]:
    members = set(out.attachment_vertices)
    for emb in out.embeddings:
        members.update(emb[v] for v in base_vertices)
    return frozenset(members)


def upper_witness(out: GadgetOutput, cap: int = DEFAULT_ORACLE_CAP) -> frozenset[int]:
    """The feasible set each construction's upper bound is built from.

    Always the attachment vertices plus an optimal base solution embedded
    into every copy.  It stays a function of its own: a
    :class:`SandwichReport` carries only the witness's size, and
    :func:`verify_sandwich` embeds the base optimum it already holds, since
    calling this would solve the base twice.
    """
    return _embedded(out, _base_optimum(out, cap).vertices)


def verify_sandwich(out: GadgetOutput, cap: int = DEFAULT_ORACLE_CAP) -> SandwichReport:
    """Evaluate the claim's three quantities by brute force.

    ``passed`` covers the inequality chain; the witness check is reported
    separately so a failing witness cannot hide behind a passing chain.

    Raises:
        TooLargeError: either graph exceeds the oracle cap.
    """
    claim = out.claim
    base = _base_optimum(out, cap)
    middle_spec = named_variant(claim.middle_variant, alpha=claim.alpha, k=claim.k)
    middle_inst = compile_variant(out.gprime, middle_spec)
    middle_size = brute_force_minimum(middle_inst, cap).size
    lower = None
    if claim.lower is not None:
        coeff, offset = claim.lower
        lower = coeff * base.size + offset
    coeff, offset = claim.upper
    upper = coeff * base.size + offset
    passed = (lower is None or lower <= middle_size) and middle_size <= upper
    witness = _embedded(out, base.vertices)
    feasible = is_feasible(middle_inst, witness).feasible
    return SandwichReport(
        lower=lower,
        middle=middle_size,
        upper=upper,
        passed=passed,
        witness_size=len(witness),
        witness_feasible=feasible,
    )
