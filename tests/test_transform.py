import numpy as np
import pytest

from polybottleneck import equilibria, generators, lower_bound
from polybottleneck.errors import DominationError, PreconditionError, StructuralError
from polybottleneck.game_core import Game, bottleneck, congestion_of
from polybottleneck.transform import (
    PhaseState,
    TwoStrategyGame,
    clean_game,
    eliminate_high_congestion,
    greedy_cover_pairs,
    init_two_strategy,
    partition_pairs,
    run_phase,
    split_player,
    transform_to_singletons,
    verify_domination,
)

from conftest import oracle_is_nash


def family_tsg(n=4, degree=1):
    inst = lower_bound.generate(n, degree)
    return inst, init_two_strategy(
        inst.game, inst.state_all_direct, inst.state_all_paths
    )


class TestInit:
    def test_family_setup(self):
        inst, tsg = family_tsg()
        assert len(tsg.players) == 4
        assert tsg.eq_bottleneck == 4
        assert tsg.opt_bottleneck == 1
        assert tsg.threshold == 3
        p0 = tsg.players[0]
        assert p0.eq_strategy == (0,)
        assert p0.opt_strategy == (0, 1, 2, 3)

    def test_identity_on_two_strategy_form(self):
        game = Game.build(3, 1, [[[0], [1]], [[1], [2]]])
        report = equilibria.price_of_anarchy(game)
        tsg = init_two_strategy(game, report.worst_nash, report.optimal)
        for i in range(2):
            assert tsg.players[i].eq_strategy == game.chosen(report.worst_nash, i)
            assert tsg.players[i].opt_strategy == game.chosen(report.optimal, i)

    def test_rejects_non_equilibrium_state(self):
        inst = lower_bound.generate(4, 1)
        with pytest.raises(PreconditionError):
            init_two_strategy(inst.game, inst.state_all_paths, inst.state_all_paths)

    def test_induced_state_re_verifies(self, rng):
        for _ in range(10):
            game = generators.random_game(rng)
            report = equilibria.price_of_anarchy(game)
            tsg = init_two_strategy(game, report.worst_nash, report.optimal)
            induced, eq_profile = tsg.induced_game()
            assert equilibria.is_nash(induced, eq_profile)


class TestClean:
    def test_disjoint_player_untouched(self):
        game = Game.build(4, 1, [[[0, 1], [2, 3]], [[2], [0]]])
        report = equilibria.price_of_anarchy(game)
        tsg = init_two_strategy(game, report.worst_nash, report.optimal)
        before = {pid: (p.eq_strategy, p.opt_strategy) for pid, p in tsg.players.items()}
        clean_game(tsg)
        for pid, (eq, opt) in before.items():
            if not set(eq) & set(opt):
                assert tsg.players[pid].eq_strategy == eq

    def test_overlap_split_preserves_congestion(self):
        # one player with eq={a,b}, opt={b,c}: split into a singleton on b
        # plus a residual ({a}, {c})
        tsg = TwoStrategyGame(num_resources=3, degree=1, threshold=9,
                              eq_bottleneck=1, opt_bottleneck=1)
        tsg.add_player([0, 1], [1, 2])
        eq_before = tsg.eq_congestion()
        opt_before = tsg.opt_congestion()
        clean_game(tsg)
        assert np.array_equal(tsg.eq_congestion(), eq_before)
        assert np.array_equal(tsg.opt_congestion(), opt_before)
        shapes = sorted(
            (p.eq_strategy, p.opt_strategy) for p in tsg.players.values()
        )
        assert shapes == [((0,), (2,)), ((1,), (1,))]

    def test_no_overlapping_multi_player_remains(self, rng):
        for _ in range(20):
            game = generators.random_game(rng)
            report = equilibria.price_of_anarchy(game)
            tsg = init_two_strategy(game, report.worst_nash, report.optimal)
            clean_game(tsg)
            for p in tsg.players.values():
                if not p.is_singleton:
                    assert not set(p.eq_strategy) & set(p.opt_strategy)

    def test_contained_strategy_keeps_tracked_load(self):
        # eq strictly inside opt: the leftover tracked resources must move to
        # a split player rather than vanish
        tsg = TwoStrategyGame(num_resources=3, degree=1, threshold=9,
                              eq_bottleneck=1, opt_bottleneck=1)
        tsg.add_player([0, 1], [0, 1, 2])
        opt_before = tsg.opt_congestion()
        clean_game(tsg)
        assert np.array_equal(tsg.opt_congestion(), opt_before)


class TestGreedyCoverPairs:
    def test_single_played_resource_takes_two_covers(self):
        pairs = greedy_cover_pairs([(10, 3)], [(20, 1), (21, 1)], 1)
        assert len(pairs) == 1
        assert pairs[0].eq_part == (10,)
        assert pairs[0].opt_part == (20, 21)

    def test_one_big_cover_absorbs_the_strategy(self):
        pairs = greedy_cover_pairs([(10, 2), (11, 2)], [(20, 5)], 1)
        assert len(pairs) == 1
        assert pairs[0].eq_part == (10, 11)
        assert pairs[0].opt_part == (20,)

    def test_cover_dominates_absorbed_congestions(self):
        pairs = greedy_cover_pairs([(10, 2), (11, 2)], [(20, 5)], 1)
        assert 5 >= max(2, 2)

    def test_equilibrium_violation_rejected(self):
        with pytest.raises(PreconditionError):
            greedy_cover_pairs([(10, 3), (11, 3)], [(20, 1)], 1)

    def test_partition_requires_clean_player(self):
        tsg = TwoStrategyGame(num_resources=2, degree=1, threshold=9,
                              eq_bottleneck=1, opt_bottleneck=1)
        pid = tsg.add_player([0, 1], [1])
        with pytest.raises(PreconditionError, match="overlapping"):
            partition_pairs(tsg, pid)


class TestSplitPlayer:
    def test_single_pair_replaces_player(self):
        tsg = TwoStrategyGame(num_resources=4, degree=1, threshold=9,
                              eq_bottleneck=2, opt_bottleneck=1)
        pid = tsg.add_player([0, 1], [2, 3])
        new_ids = split_player(tsg, pid)
        assert pid not in tsg.players
        assert len(new_ids) >= 1

    def test_split_keeps_equilibrium_and_congestion(self, rng):
        for seed in range(10):
            local = np.random.default_rng(seed)
            game, s_eq, s_opt = generators.forced_congestion_game(local, degree=1)
            tsg = init_two_strategy(game, s_eq, s_opt)
            clean_game(tsg)
            eq_before = tsg.eq_congestion()
            multis = [pid for pid, p in sorted(tsg.players.items())
                      if not p.is_singleton]
            for pid in multis[:2]:
                split_player(tsg, pid)
            assert np.array_equal(tsg.eq_congestion(), eq_before)
            tsg.check_equilibrium()


class TestEliminate:
    def _manual_tsg(self):
        # resource 0 congested to 4 by singleton players; resource 1 is a
        # spare tracked target of one of them; resource 2 hosts the player
        # whose tracked strategy points at resource 0
        tsg = TwoStrategyGame(num_resources=3, degree=1, threshold=2,
                              eq_bottleneck=4, opt_bottleneck=1)
        donor = tsg.add_player([0], [1])       # largest tracked set on 0
        for _ in range(3):
            tsg.add_player([0], [0])
        mover = tsg.add_player([2], [0])
        # give resource 2 the congestion that makes the mover cost 3 == level
        tsg.add_player([2], [2])
        tsg.add_player([2], [2])
        tsg.add_player([1], [1])
        tsg.add_player([1], [1])
        tsg.add_player([1], [1])
        return tsg, donor, mover

    def test_noop_when_target_not_congested(self):
        tsg = TwoStrategyGame(num_resources=2, degree=1, threshold=1,
                              eq_bottleneck=2, opt_bottleneck=1)
        pid = tsg.add_player([0], [1])
        tsg.add_player([1], [1])
        tsg.add_player([1], [1])
        before = tsg.players[pid].opt_strategy
        eliminate_high_congestion(tsg, PhaseState(level=2), pid)
        assert tsg.players[pid].opt_strategy == before

    def test_single_iteration_rewires_both_players(self):
        tsg, donor, mover = self._manual_tsg()
        opt_before = tsg.opt_congestion()
        eliminate_high_congestion(tsg, PhaseState(level=3), mover)
        assert tsg.players[mover].opt_strategy == (1,)
        assert tsg.players[donor].opt_strategy == (0,)
        after = tsg.opt_congestion()
        assert np.array_equal(after, opt_before)
        tsg.check_equilibrium()

    def test_congestion_vectors_invariant(self):
        tsg, donor, mover = self._manual_tsg()
        eq_before = tsg.eq_congestion()
        eliminate_high_congestion(tsg, PhaseState(level=3), mover)
        assert np.array_equal(tsg.eq_congestion(), eq_before)


class TestRunPhase:
    def test_phase_with_empty_band_is_noop(self):
        game = Game.build(3, 1, [[[0]], [[1]], [[2]]])
        report = equilibria.price_of_anarchy(game)
        tsg = init_two_strategy(game, report.worst_nash, report.optimal)
        clean_game(tsg)
        summary = run_phase(tsg, 5)
        assert summary.splits == 0
        assert summary.markings == 0

    def test_phase_clears_its_cost_band(self):
        rng = np.random.default_rng(3)
        game, s_eq, s_opt = generators.forced_congestion_game(rng, degree=1)
        tsg = init_two_strategy(game, s_eq, s_opt)
        clean_game(tsg)
        # phase precondition: players beyond the top band are split up front
        top = (tsg.eq_bottleneck + 1) ** tsg.degree
        for pid in tsg.player_ids():
            if not tsg.players[pid].is_singleton and tsg.cost(pid) > top:
                split_player(tsg, pid)
        level = tsg.eq_bottleneck
        run_phase(tsg, level)
        for pid, p in tsg.players.items():
            if not p.is_singleton:
                assert tsg.cost(pid) <= level**tsg.degree

    def test_multi_player_above_the_band_is_rejected(self):
        # one player alone on six resources costs 6, above the band (4, 5] of level 4
        tsg = TwoStrategyGame(
            num_resources=8, degree=1, threshold=3, eq_bottleneck=4, opt_bottleneck=1
        )
        tsg.add_player(range(6), [7])
        with pytest.raises(StructuralError, match="above the band at level 4"):
            run_phase(tsg, 4)


class TestFullTransform:
    def test_all_singleton_game_only_cleans(self):
        inst = lower_bound.generate(4, 1)
        tsg = transform_to_singletons(
            inst.game, inst.state_all_direct, inst.state_all_paths
        )
        assert not tsg.no_op  # bottleneck 4 exceeds threshold 3
        assert all(p.is_singleton for p in tsg.players.values())
        assert bottleneck(tsg.eq_congestion()) == 4

    def test_degenerate_input_returns_cleaned_game(self):
        game = Game.build(3, 2, [[[0], [1]], [[1], [2]]])
        report = equilibria.price_of_anarchy(game)
        tsg = transform_to_singletons(game, report.worst_nash, report.optimal)
        assert tsg.no_op

    @pytest.mark.parametrize("degree", [1, 2])
    def test_postconditions_on_forced_games(self, degree):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            game, s_eq, s_opt = generators.forced_congestion_game(rng, degree=degree)
            tsg = transform_to_singletons(game, s_eq, s_opt)
            # equilibrium congestion preserved exactly
            assert np.array_equal(
                tsg.eq_congestion(), congestion_of(game, s_eq)
            )
            # resources above the threshold host only singleton players
            for p in tsg.players.values():
                if not p.is_singleton:
                    for r in p.eq_strategy:
                        assert tsg._eq_cong[r] <= tsg.threshold
            # the induced state is still a weak equilibrium (brute force)
            induced, eq_profile = tsg.induced_game()
            assert oracle_is_nash(induced, eq_profile)

    def test_no_new_resources(self):
        rng = np.random.default_rng(11)
        game, s_eq, s_opt = generators.forced_congestion_game(rng, degree=1)
        tsg = transform_to_singletons(game, s_eq, s_opt)
        used = set()
        for p in tsg.players.values():
            used.update(p.eq_strategy)
            used.update(p.opt_strategy)
        assert len(used) <= game.num_resources
        assert max(used) < game.num_resources


class TestVerifyDomination:
    def test_identity_growth_for_degenerate_transform(self):
        game = Game.build(3, 2, [[[0], [1]], [[1], [2]]])
        report = equilibria.price_of_anarchy(game)
        tsg = transform_to_singletons(game, report.worst_nash, report.optimal)
        dom = verify_domination(game, report.worst_nash, tsg)
        assert dom.growth == 1

    def test_growth_within_factor_seven(self):
        for seed in range(15):
            rng = np.random.default_rng(100 + seed)
            game, s_eq, s_opt = generators.forced_congestion_game(rng)
            tsg = transform_to_singletons(game, s_eq, s_opt)
            dom = verify_domination(game, s_eq, tsg)
            assert dom.all_ok
            assert dom.opt_bottleneck <= 7 * dom.original_opt_bottleneck

    def test_tampered_game_fails(self):
        rng = np.random.default_rng(5)
        game, s_eq, s_opt = generators.forced_congestion_game(rng, degree=1)
        tsg = transform_to_singletons(game, s_eq, s_opt)
        # force a fake tracked bottleneck by stacking one resource
        victim = next(iter(tsg.players.values()))
        victim.opt_strategy = tuple([victim.opt_strategy[0]] * 1)
        for p in tsg.players.values():
            p.opt_strategy = (victim.opt_strategy[0],)
        with pytest.raises(DominationError):
            verify_domination(game, s_eq, tsg)
