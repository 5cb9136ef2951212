import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from polybottleneck import equilibria, generators, lower_bound, transform
from polybottleneck.errors import PreconditionError
from polybottleneck.expansion import (
    ResourceGraph,
    build_resource_graph,
    build_resource_graph_from_game,
    check_expansion,
    descendant_count_check,
    expansion_report,
    poa_within_general_bound,
    upper_bound_general,
    upper_bound_singleton,
)
from polybottleneck.game_core import Game


def star_graph(center_congestion=7, leaves=6, threshold=3, opt_cap=1, degree=1):
    congestion = np.array([center_congestion] + [threshold] * leaves, dtype=np.int64)
    return ResourceGraph(
        congestion=congestion,
        degree=degree,
        threshold=threshold,
        opt_cap=opt_cap,
        children={0: tuple(range(1, leaves + 1))},
        v1=frozenset({0}),
    )


class TestBuildGraph:
    def test_all_low_congestion_gives_empty_graph(self):
        game = Game.build(3, 1, [[[0]], [[1]], [[2]]])
        report = equilibria.price_of_anarchy(game)
        rg = build_resource_graph_from_game(game, report.worst_nash, report.optimal)
        assert not rg.v1
        assert rg.children == {}

    def test_family_after_transform(self):
        inst = lower_bound.generate(4, 1)
        tsg = transform.transform_to_singletons(
            inst.game, inst.state_all_direct, inst.state_all_paths
        )
        rg = build_resource_graph(tsg)
        # only the shared resource exceeds the threshold
        assert rg.v1 == {0}
        # children: the tracked detours of the three players that kept them
        assert set(rg.children[0]) == set(range(4, 16))

    def test_child_multiset_matches_recount(self):
        rng = np.random.default_rng(8)
        game, s_eq, s_opt = generators.forced_congestion_game(rng, degree=1)
        tsg = transform.transform_to_singletons(game, s_eq, s_opt)
        rg = build_resource_graph(tsg)
        for x in rg.v1:
            expected = Counter()
            for p in tsg.players.values():
                if p.is_singleton and p.eq_strategy[0] == x:
                    for y in p.opt_strategy:
                        if y != x:
                            expected[y] += 1
            assert Counter(rg.children[x]) == expected

    def test_multi_player_on_high_resource_rejected(self):
        # two players both playing {0,1} on top of three singles makes
        # resource 0 exceed any threshold while hosting multi players
        players = [[[0, 1], [2]]] * 2 + [[[0], [3]]] * 3
        game = Game.build(4, 1, players)
        profile = tuple([0] * 5)
        with pytest.raises(PreconditionError, match="multi-resource"):
            build_resource_graph_from_game(game, profile, profile, threshold=2, opt_cap=1)

    def test_no_self_children(self):
        inst = lower_bound.generate(4, 1)
        tsg = transform.transform_to_singletons(
            inst.game, inst.state_all_direct, inst.state_all_paths
        )
        rg = build_resource_graph(tsg)
        for x, ys in rg.children.items():
            assert x not in ys


class TestCheckExpansion:
    def test_synthetic_star_flags_non_equilibrium(self):
        # six terminal children cannot cover a center congested to 7:
        # lhs = 6 * 3 = 18 < rhs = (7-1)/(2*1) * 7 = 21
        rg = star_graph()
        lhs, rhs, holds = check_expansion(rg, 0)
        assert lhs == 18
        assert rhs == Fraction(21)
        assert not holds

    def test_rhs_positive_for_high_nodes(self):
        rg = star_graph(center_congestion=10, leaves=20)
        _, rhs, _ = check_expansion(rg, 0)
        assert rhs > 0

    def test_multiplicity_capped_at_opt_cap(self):
        congestion = np.array([7, 3], dtype=np.int64)
        rg = ResourceGraph(
            congestion=congestion, degree=1, threshold=3, opt_cap=2,
            children={0: tuple([1] * 10)}, v1=frozenset({0}),
        )
        lhs, _, _ = check_expansion(rg, 0)
        assert lhs == 2 * 3  # ten parallel edges count at most twice

    def test_holds_on_all_transformed_games(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            game, s_eq, s_opt = generators.forced_congestion_game(rng)
            tsg = transform.transform_to_singletons(game, s_eq, s_opt)
            rg = build_resource_graph(tsg)
            for x in rg.v1:
                _, _, holds = check_expansion(rg, x)
                assert holds

    def test_low_node_rejected(self):
        rg = star_graph()
        with pytest.raises(PreconditionError):
            check_expansion(rg, 1)


class TestDescendantCount:
    def test_star_counts_distinct_children(self):
        rg = star_graph(center_congestion=10, leaves=6)
        count, _ = descendant_count_check(rg, 0)
        assert count == 6

    def test_holds_on_transformed_games_at_max_root(self):
        for seed in range(10):
            rng = np.random.default_rng(30 + seed)
            game, s_eq, s_opt = generators.forced_congestion_game(rng)
            tsg = transform.transform_to_singletons(game, s_eq, s_opt)
            rg = build_resource_graph(tsg)
            if not rg.v1:
                continue
            root = max(rg.v1, key=lambda r: (int(rg.congestion[r]), -r))
            count, holds = descendant_count_check(rg, root)
            assert holds
            assert count <= rg.num_resources - 1

    def test_low_root_rejected(self):
        rg = star_graph()
        with pytest.raises(PreconditionError):
            descendant_count_check(rg, 3)


class TestBounds:
    def test_degenerate_single_resource(self):
        assert upper_bound_singleton(1, 1) == 2.0
        assert upper_bound_general(1, 1) == 14.0

    def test_direct_evaluations(self):
        assert upper_bound_singleton(16, 1) == pytest.approx(13.416407864998739)
        assert upper_bound_singleton(8, 2) == pytest.approx(6.316359597656378)
        assert upper_bound_general(16, 1) == pytest.approx(93.91485505499116)

    def test_monotone_in_resources(self):
        for m in (1, 2, 3):
            values = [upper_bound_singleton(z, m) for z in range(2, 40)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_growth_exponent_shrinks_with_degree(self):
        # slope of log(bound) vs log(resources) approaches 1/(degree+1)
        for m in (1, 2, 3):
            zs = np.array([10**3, 10**6])
            slopes = np.diff(np.log([upper_bound_singleton(int(z), m) for z in zs]))
            slope = slopes[0] / np.diff(np.log(zs))[0]
            assert slope == pytest.approx(1 / (m + 1), abs=0.01)

    def test_exact_rational_check_matches_float_bound(self):
        for z in (1, 2, 5, 16, 100):
            for m in (1, 2, 3):
                bound = upper_bound_general(z, m)
                for c_star in (1, 2):
                    for c in range(1, 40):
                        expected = c / c_star <= bound or math.isclose(c / c_star, bound)
                        assert poa_within_general_bound(c, c_star, z, m) == expected

    def test_boundary_equality_included(self):
        # 7 * sqrt(12 * 3) = 42 exactly: a ratio of exactly 42 must pass
        assert poa_within_general_bound(42, 1, 4, 1)
        assert not poa_within_general_bound(43, 1, 4, 1)


class TestReport:
    def test_family_report_shape(self):
        inst = lower_bound.generate(4, 1)
        tsg = transform.transform_to_singletons(
            inst.game, inst.state_all_direct, inst.state_all_paths
        )
        rg = build_resource_graph(tsg)
        report = expansion_report(rg)
        assert report["all_hold"]
        assert report["num_high_nodes"] == 1
        assert report["max_congestion_root"]["resource"] == 0
        assert report["max_congestion_root"]["holds"]
