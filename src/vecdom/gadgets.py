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
from .graph import Graph, build_graph, complete_graph, disjoint_union, join
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
    k = math.ceil((alpha * size - 1) / (1 - alpha)) if size >= 2 else 0
    # both sides are identities of the ceiling; checked exactly
    assert Fraction(k, size + k) < alpha <= Fraction(k + 1, size + k)
    return k


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


def gadget_replicate(g: Graph, copies: int) -> GadgetOutput:
    """Disjoint copies of the graph; the optimum scales by the copy count."""
    _require_positive(copies=copies)
    _require_buildable(g, copies, 0, 0)
    gprime, maps = disjoint_union([g] * copies)
    embeddings = tuple(tuple(mp[v] for v in range(g.n)) for mp in maps)
    claim = SandwichClaim(
        base_variant="domination",
        middle_variant="domination",
        alpha=None,
        k=None,
        lower=(copies, 0),
        upper=(copies, 0),
    )
    return GadgetOutput(
        construction="replicate",
        base=g,
        gprime=gprime,
        embeddings=embeddings,
        attachment_demands=(0,) * g.n,
        attachment_vertices=(),
        claim=claim,
    )


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
    _require_buildable(g, 1, pool_size, sum(demands))
    n = g.n
    edges = list(g.edges()) + _attach(demands, (0,), n, pool_size)
    gprime = build_graph(n + pool_size, edges)
    claim = SandwichClaim(
        base_variant="domination",
        middle_variant="alpha-domination",
        alpha=a,
        k=None,
        lower=(1, 0),
        upper=(1, pool_size),
    )
    return GadgetOutput(
        construction="alpha-domination",
        base=g,
        gprime=gprime,
        embeddings=(tuple(range(n)),),
        attachment_demands=demands,
        attachment_vertices=tuple(range(n, n + pool_size)),
        claim=claim,
    )


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
    """Shared body: many copies of g wired into a blocked clique.

    Block ``b`` of the clique serves the ``copies_per_block`` copies with
    index ``j // copies_per_block == b``; attachment edges rotate through
    the block so no clique vertex is overloaded.
    """
    nbhd, base_variant, middle_variant = _CLIQUE_GADGETS[construction]
    a = _validated_alpha(alpha)
    _reject_isolated(g)
    _require_positive(
        blocks=blocks, copies_per_block=copies_per_block, block_factor=block_factor
    )
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
    block_size = bf * copies_per_block
    copies, clique = blocks * copies_per_block, block_size * blocks
    _require_buildable(g, copies, clique, clique * (clique - 1) // 2 + copies * sum(demands))
    n = g.n
    offsets = [j * n for j in range(copies)]
    clique_start = copies * n
    clique_end = clique_start + clique
    edges = [(off + u, off + v) for off in offsets for u, v in g.edges()]
    edges += combinations(range(clique_start, clique_end), 2)
    for b in range(blocks):
        served = offsets[b * copies_per_block : (b + 1) * copies_per_block]
        edges += _attach(demands, served, clique_start + b * block_size, block_size)
    gprime = build_graph(clique_end, edges)
    claim = SandwichClaim(
        base_variant=base_variant,
        middle_variant=middle_variant,
        alpha=a,
        k=None,
        lower=(len(offsets), 0),
        upper=(len(offsets), clique_end - clique_start),
    )
    return GadgetOutput(
        construction=construction,
        base=g,
        gprime=gprime,
        embeddings=tuple(tuple(range(off, off + n)) for off in offsets),
        attachment_demands=demands,
        attachment_vertices=tuple(range(clique_start, clique_end)),
        claim=claim,
    )


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
    _require_buildable(g, 1, k - 1, (k - 1) * (k - 2) // 2 + g.n * (k - 1))
    gprime = join(g, complete_graph(k - 1))
    claim = SandwichClaim(
        base_variant="domination",
        middle_variant="k-domination",
        alpha=None,
        k=k,
        lower=None,
        upper=(1, k - 1),
    )
    return GadgetOutput(
        construction="k-domination",
        base=g,
        gprime=gprime,
        embeddings=(tuple(range(g.n)),),
        attachment_demands=(k - 1,) * g.n,
        attachment_vertices=tuple(range(g.n, g.n + k - 1)),
        claim=claim,
    )


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
    into every copy.
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
