import dataclasses
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
    check_expansion,
    descendant_count_check,
    expansion_report,
    poa_within_general_bound,
    upper_bound_general,
    upper_bound_singleton,
)
from polybottleneck.game_core import Game, bottleneck, congestion_of
from polybottleneck.transform import TwoStrategyGame, init_two_strategy


def reference_graph(game, nash_profile, optimal_profile):
    """The resource graph read straight off a game's two profiles, without the
    two-strategy form: the threshold and the multiplicity cap come from the
    optimal profile's bottleneck, the edges from each singleton player's
    optimal strategy."""
    congestion = congestion_of(game, nash_profile)
    cap = max(1, bottleneck(congestion_of(game, optimal_profile)))
    threshold = max(2 * game.degree, 3 * cap)
    v1 = frozenset(r for r, c in enumerate(congestion) if c > threshold)
    entries = [
        (game.chosen(tuple(nash_profile), i), game.chosen(tuple(optimal_profile), i))
        for i in range(game.num_players)
    ]
    for eq, _ in entries:
        if len(eq) > 1:
            for r in eq:
                if r in v1:
                    raise PreconditionError(
                        f"resource {r} is above the threshold but hosts a "
                        f"multi-resource player; transform the game first"
                    )
    children = {x: [] for x in sorted(v1)}
    for eq, opt in entries:
        if len(eq) == 1 and eq[0] in v1:
            children[eq[0]].extend(int(y) for y in opt if y != eq[0])
    return ResourceGraph(
        num_resources=game.num_resources,
        congestion={x: congestion[x] for x in sorted(v1)},
        degree=game.degree,
        threshold=threshold,
        opt_cap=cap,
        children={x: tuple(sorted(ys)) for x, ys in children.items()},
    )


def graph_fields(build, *args):
    """Every ``ResourceGraph`` field as plain values, or the error raised."""
    try:
        rg = build(*args)
    except PreconditionError as exc:
        return ("error", str(exc))
    return {f.name: getattr(rg, f.name) for f in dataclasses.fields(ResourceGraph)}


def star_graph(center_congestion=7, leaves=6, threshold=3, opt_cap=1, degree=1):
    """Resource 0 above the threshold, its leaves 1..leaves terminal."""
    return ResourceGraph(
        num_resources=leaves + 1,
        congestion={0: center_congestion},
        degree=degree,
        threshold=threshold,
        opt_cap=opt_cap,
        children={0: tuple(range(1, leaves + 1))},
    )


class TestBuildGraph:
    def test_all_low_congestion_gives_empty_graph(self):
        game = Game.build(3, 1, [[[0]], [[1]], [[2]]])
        report = equilibria.price_of_anarchy(game)
        rg = build_resource_graph(init_two_strategy(game, report.worst_nash, report.optimal))
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

    def test_congestion_is_plain_ints(self):
        # Outside the scan kernel every congestion count holds Python ints:
        # the dense vectors, and the sparse counts keyed by resource id.
        inst = lower_bound.generate(4, 1)
        tsg = init_two_strategy(inst.game, inst.state_all_direct, inst.state_all_paths)
        vectors = [congestion_of(inst.game, inst.state_all_direct), tsg.eq_congestion()]
        counts = [tsg.opt_congestion(), build_resource_graph(tsg).congestion]
        assert [type(v) for v in vectors] == [list, list]
        assert [type(c) for c in counts] == [Counter, dict]
        assert all(type(c) is int for v in vectors for c in v)
        assert all(counts)  # resource 0 is tracked, and above the threshold
        assert all(type(r) is int and type(c) is int for d in counts for r, c in d.items())

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
        # two players both playing {0,1} on top of three singles put resource
        # 0 at congestion 5, above the threshold of 2, while it hosts multi
        # players
        tsg = TwoStrategyGame(num_resources=4, degree=1, threshold=2,
                              eq_bottleneck=5, opt_bottleneck=1)
        for _ in range(2):
            tsg.add_player([0, 1], [2])
        for _ in range(3):
            tsg.add_player([0], [3])
        with pytest.raises(PreconditionError, match="multi-resource"):
            build_resource_graph(tsg)

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
        rg = ResourceGraph(
            num_resources=2, congestion={0: 7}, degree=1, threshold=3, opt_cap=2,
            children={0: tuple([1] * 10)},
        )
        lhs, _, _ = check_expansion(rg, 0)
        assert lhs == 2 * 3  # ten parallel edges count at most twice

    def test_holds_on_all_transformed_games(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            game, s_eq, s_opt = generators.forced_congestion_game(rng, int(rng.choice([1, 2])))
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
            game, s_eq, s_opt = generators.forced_congestion_game(rng, int(rng.choice([1, 2])))
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

    def test_walk_through_high_nodes_matches_a_bfs(self):
        # High nodes 0 -> 1 -> 2 form a chain, 2 <-> 3 a 2-cycle; terminal 10
        # is reached from 0, 1 and 3, and 13 only from the root 0.
        rg = ResourceGraph(
            num_resources=14,
            congestion={0: 9, 1: 8, 2: 7, 3: 6},
            degree=1,
            threshold=3,
            opt_cap=1,
            children={0: (1, 10, 13), 1: (2, 10), 2: (3, 11), 3: (2, 10, 12, 12)},
        )

        def bfs_terminals(root):
            seen, queue = {root}, [root]
            for node in queue:
                for y in rg.children.get(node, ()):
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            return {y for y in seen if y not in rg.congestion}

        counts = {root: descendant_count_check(rg, root)[0] for root in rg.v1}
        assert counts == {root: len(bfs_terminals(root)) for root in rg.v1}
        assert counts == {0: 4, 1: 3, 2: 3, 3: 3}


class TestBounds:
    def test_degenerate_single_resource(self):
        assert upper_bound_singleton(1, 1) == 2.0
        assert upper_bound_general(1, 1) == 14.0

    @pytest.mark.parametrize("num_resources, degree, message", [
        (0, 1, "num_resources must be >= 1, got 0"),
        (1, 0, "degree must be >= 1, got 0"),
    ])
    def test_rejects_no_resources_and_degree_zero(self, num_resources, degree, message):
        with pytest.raises(ValueError, match=message):
            upper_bound_singleton(num_resources, degree)

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

    def test_huge_degree_stays_finite(self):
        # 4 * 3**700 * 2 does not fit a float; its 701st root is about 3.
        assert math.isfinite(upper_bound_general(3, 700))
        assert upper_bound_singleton(3, 700) == pytest.approx(3 * (8 / 3) ** (1 / 701))
        assert upper_bound_singleton(1, 700) == 2.0

    def test_log_root_matches_the_direct_root(self):
        for m in range(1, 20):
            for z in range(1, 200, 7):
                direct = max(2.0, (4 * 3**m * (z - 1)) ** (1.0 / (m + 1)))
                assert round(upper_bound_singleton(z, m), 3) == round(direct, 3)
                assert round(upper_bound_general(z, m), 3) == round(7.0 * direct, 3)

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


class TestReferenceBuilder:
    """``build_resource_graph(init_two_strategy(...))`` against the graph read
    straight off the game's profiles."""

    def cases(self):
        for degree in (1, 2):
            for seed in range(20):
                yield generators.forced_congestion_game(np.random.default_rng(seed), degree)
        for degree, sizes in ((1, range(4, 13)), (2, range(3, 7))):
            for n in sizes:
                inst = lower_bound.generate(n, degree)
                yield inst.game, inst.state_all_direct, inst.state_all_paths
        rng = np.random.default_rng(606)
        for _ in range(100):
            game = generators.random_game(rng)
            report = equilibria.price_of_anarchy(game)
            yield game, report.worst_nash, report.optimal

    def test_same_graph_or_same_error(self):
        graphs = errors = 0
        for game, eq, opt in self.cases():
            expected = graph_fields(reference_graph, game, eq, opt)
            got = graph_fields(
                lambda *a: build_resource_graph(init_two_strategy(*a)), game, eq, opt
            )
            assert got == expected
            if isinstance(got, tuple):
                errors += 1
            elif got["congestion"]:  # a high node
                graphs += 1
        # both outcomes are exercised: high nodes with edges, and rejections
        assert graphs >= 10 and errors >= 10
