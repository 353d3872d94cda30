"""Variant catalogue and demand compilation."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecdom import (
    FractionThreshold,
    Graph,
    Inequality,
    Neighborhood,
    Scope,
    UniformThreshold,
    VariantSpec,
    build_graph,
    compile_variant,
    cycle_graph,
    named_variant,
    path_graph,
    variant_catalogue,
)
from vecdom.errors import (
    AlphaOutOfRangeError,
    MissingParamError,
    UnknownVariantError,
)

from .strategies import PROPERTY_SETTINGS, THOROUGH_SETTINGS, graphs


def _fraction_spec(alpha: Fraction, *, neighborhood: Neighborhood, strict: bool) -> VariantSpec:
    return VariantSpec(
        neighborhood=neighborhood,
        scope=Scope.PARTIAL,
        inequality=Inequality.STRICT if strict else Inequality.WEAK,
        threshold=FractionThreshold(alpha=alpha),
    )


fractions_ = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
).filter(lambda a: a <= 1)


class TestCompile:
    def test_half_weak_on_cycle(self) -> None:
        inst = compile_variant(
            cycle_graph(4),
            _fraction_spec(Fraction(1, 2), neighborhood=Neighborhood.OPEN, strict=False),
        )
        assert inst.demands == (1, 1, 1, 1)

    def test_half_strict_on_cycle(self) -> None:
        # alpha*d lands exactly on an integer, so strict bumps it by one
        inst = compile_variant(
            cycle_graph(4),
            _fraction_spec(Fraction(1, 2), neighborhood=Neighborhood.OPEN, strict=True),
        )
        assert inst.demands == (2, 2, 2, 2)

    def test_alpha_one_gives_vertex_cover_demands(self) -> None:
        g = path_graph(4)
        inst = compile_variant(
            g, _fraction_spec(Fraction(1), neighborhood=Neighborhood.OPEN, strict=False)
        )
        assert inst.demands == tuple(g.degree(v) for v in range(g.n))

    def test_uniform_and_explicit_pass_through(self) -> None:
        g = path_graph(3)
        uniform = compile_variant(g, named_variant("k-domination", k=2))
        assert uniform.demands == (2, 2, 2)
        explicit = compile_variant(g, named_variant("vector-domination", demands=(0, 2, 1)))
        assert explicit.demands == (0, 2, 1)

    def test_closed_neighborhood_counts_self(self) -> None:
        g = path_graph(3)  # degrees 1, 2, 1
        spec = _fraction_spec(Fraction(1, 2), neighborhood=Neighborhood.CLOSED, strict=False)
        inst = compile_variant(g, spec)
        assert inst.demands == (1, 2, 1)  # ceil(s/2) with s = d+1

    def test_isolated_vertex_weak_demand_zero(self) -> None:
        g = build_graph(2, [])
        inst = compile_variant(
            g, _fraction_spec(Fraction(1, 2), neighborhood=Neighborhood.OPEN, strict=False)
        )
        assert inst.demands == (0, 0)

    def test_alpha_out_of_range(self) -> None:
        for bad in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(AlphaOutOfRangeError):
                compile_variant(
                    path_graph(2),
                    _fraction_spec(bad, neighborhood=Neighborhood.OPEN, strict=False),
                )

    @given(graphs(), fractions_, st.booleans(), st.booleans())
    @THOROUGH_SETTINGS
    def test_count_equivalence(self, g, alpha, strict, closed) -> None:
        """The compiled demand is the unique integer threshold equivalent
        to the fractional rule, checked by exhausting achievable counts."""
        neighborhood = Neighborhood.CLOSED if closed else Neighborhood.OPEN
        inst = compile_variant(
            g,
            VariantSpec(
                neighborhood=neighborhood,
                scope=Scope.PARTIAL,
                inequality=Inequality.STRICT if strict else Inequality.WEAK,
                threshold=FractionThreshold(alpha=alpha),
            ),
        )
        for v in range(g.n):
            size = g.degree(v) + (1 if closed else 0)
            for count in range(size + 1):
                fractional = count > alpha * size if strict else count >= alpha * size
                assert fractional == (count >= inst.demands[v])

    @given(graphs(), fractions_, fractions_)
    @PROPERTY_SETTINGS
    def test_alpha_monotone(self, g, a1, a2) -> None:
        lo, hi = sorted((a1, a2))
        spec_lo = _fraction_spec(lo, neighborhood=Neighborhood.OPEN, strict=False)
        spec_hi = _fraction_spec(hi, neighborhood=Neighborhood.OPEN, strict=False)
        d_lo = compile_variant(g, spec_lo).demands
        d_hi = compile_variant(g, spec_hi).demands
        assert all(a <= b for a, b in zip(d_lo, d_hi))

    @given(graphs(), fractions_)
    @PROPERTY_SETTINGS
    def test_small_degree_collapses_to_ones(self, g, alpha) -> None:
        # when max degree <= 1/alpha, the fractional model is plain domination
        if g.max_degree() > 1 / alpha:
            return
        inst = compile_variant(
            g, _fraction_spec(alpha, neighborhood=Neighborhood.OPEN, strict=False)
        )
        for v in range(g.n):
            assert inst.demands[v] == (1 if g.degree(v) > 0 else 0)


def _compile_demand(inequality: Inequality, scaled: Fraction) -> int:
    """The rational rule: smallest c with c >= alpha*count (weak) or c > alpha*count,
    given ``scaled`` = alpha*count."""
    if inequality is Inequality.WEAK:
        return math.ceil(scaled)
    return math.floor(scaled) + 1


def test_integer_compile_matches_fraction_rule() -> None:
    """compile_variant's integer arithmetic equals the Fraction rule on every
    degree 0..2000, every reduced p/q with q <= 40, and two awkward
    fractions, weak and strict, open and closed."""
    top = 2000
    # rows need only their lengths here: row d has degree d
    base = tuple(range(top))
    g = Graph(tuple(base[:d] for d in range(top + 1)), 0)
    alphas = [Fraction(p, q) for q in range(1, 41) for p in range(1, q + 1) if math.gcd(p, q) == 1]
    alphas += [Fraction(999, 1000), Fraction(1, 997)]
    checked = 0
    for alpha in alphas:
        # a closed vertex of degree d counts d + 1, so one row serves both
        scaled = [alpha * count for count in range(top + 2)]
        for inequality in Inequality:
            expected = [_compile_demand(inequality, x) for x in scaled]
            for neighborhood, shift in ((Neighborhood.OPEN, 0), (Neighborhood.CLOSED, 1)):
                spec = VariantSpec(neighborhood, Scope.PARTIAL, inequality, FractionThreshold(alpha))
                demands = compile_variant(g, spec).demands
                assert list(demands) == expected[shift:shift + top + 1], (alpha, inequality, neighborhood)
                checked += 1
    assert checked == 4 * len(alphas)


class TestNamedVariant:
    def test_monopoly_row(self) -> None:
        spec = named_variant("monopoly")
        assert spec.neighborhood is Neighborhood.CLOSED
        assert spec.scope is Scope.TOTAL
        assert spec.inequality is Inequality.WEAK
        assert spec.threshold == FractionThreshold(alpha=Fraction(1, 2))

    def test_k_domination_row(self) -> None:
        spec = named_variant("k-domination", k=3)
        assert spec.neighborhood is Neighborhood.OPEN
        assert spec.scope is Scope.PARTIAL
        assert spec.threshold == UniformThreshold(k=3)

    def test_partial_monopoly_row(self) -> None:
        spec = named_variant("partial-monopoly")
        assert spec.neighborhood is Neighborhood.OPEN
        assert spec.scope is Scope.PARTIAL
        assert spec.inequality is Inequality.STRICT
        assert spec.threshold == FractionThreshold(alpha=Fraction(1, 2))

    def test_unknown_name(self) -> None:
        with pytest.raises(UnknownVariantError):
            named_variant("no-such-model")

    def test_missing_param(self) -> None:
        with pytest.raises(MissingParamError):
            named_variant("k-domination")
        with pytest.raises(MissingParamError):
            named_variant("vector-domination")

    def test_catalogue_names_all_resolve(self) -> None:
        for name in variant_catalogue():
            spec = named_variant(name, alpha=Fraction(1, 3), k=2, demands=(0,))
            assert isinstance(spec, VariantSpec)

    def test_vertex_cover_two_readings_agree(self) -> None:
        # Table 1's k_v = d(v) row versus the alpha = 1 reading: same demands.
        for g in (path_graph(5), cycle_graph(6), build_graph(3, [])):
            via_name = compile_variant(g, named_variant("vertex-cover"))
            via_alpha = compile_variant(
                g, _fraction_spec(Fraction(1), neighborhood=Neighborhood.OPEN, strict=False)
            )
            assert via_name.demands == via_alpha.demands
            assert via_name.demands == tuple(g.degree(v) for v in range(g.n))

    def test_aliases(self) -> None:
        assert named_variant("total", demands=(1, 1)) == named_variant(
            "total-vector-domination", demands=(1, 1)
        )
        assert named_variant("alpha", alpha=Fraction(1, 3)) == named_variant(
            "alpha-domination", alpha=Fraction(1, 3)
        )
