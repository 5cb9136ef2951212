import ast
import copy
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polybottleneck
from polybottleneck import equilibria, generators, lower_bound, transform
from polybottleneck.errors import DominationError, PreconditionError, StructuralError
from polybottleneck.game_core import Game, bottleneck, congestion_of, switch_cost
from polybottleneck.transform import (
    TwoStrategyGame,
    clean_game,
    eliminate_high_congestion,
    greedy_cover_pairs,
    init_two_strategy,
    run_phase,
    split_player,
    transform_to_singletons,
    verify_domination,
)

from conftest import oracle_power, stable_from_scratch


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
            assert stable_from_scratch(tsg)


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

    def test_raised_tracked_load_is_caught(self, monkeypatch):
        # A pruning that also tracks the player to a resource no one was
        # tracked to: the player stays stable, so only the load check fires.
        game, s_eq, s_opt = slack_hub_game(np.random.default_rng(0), 1)
        tsg = init_two_strategy(game, s_eq, s_opt)
        spare = min(set(range(game.num_resources)) - set(tsg.opt_congestion()))
        retrack = tsg.retrack
        monkeypatch.setattr(tsg, "retrack", lambda pid, s: retrack(pid, (*s, spare)))
        with pytest.raises(StructuralError, match="raised a tracked congestion"):
            clean_game(tsg)


def reference_prune(tsg):
    """The restart-from-scratch pruning loop that ``clean_game`` replaced:
    after every removal it scans the sorted tracked strategy again."""
    for pid in sorted(tsg.players):
        player = tsg.players[pid]
        if not player.is_singleton:
            continue
        if int(tsg._eq_cong[player.eq_strategy[0]]) <= tsg.threshold:
            continue
        changed = True
        while changed and len(player.opt_strategy) > 1:
            changed = False
            order = sorted(player.opt_strategy, key=lambda r: (int(tsg._eq_cong[r]), r))
            for r in order:
                pruned = tuple(x for x in player.opt_strategy if x != r)
                dev = tsg.deviation(pid, pruned)
                if dev is not None and tsg.cost(pid) <= dev:
                    player.opt_strategy = pruned
                    changed = True
                    tsg.record("prune", player=pid, removed=r)
                    break


def slack_hub_game(rng, degree):
    """Hub players above the threshold whose detours cover their cost with
    room to spare, so pruning removes several resources from one detour.
    Detour resources sit at congestion 0 or 1 (a fixed filler player)."""
    hub_users = int(rng.integers(7, 10))  # tracked bottleneck <= 2: threshold <= 6
    players, detours = [], []
    next_id = 1
    for _ in range(hub_users):
        need = hub_users**degree + int(rng.integers(0, 3 * 2**degree))
        detour, total = [], 0
        while total < need:
            if rng.random() < 0.5:
                players.append([[next_id]])
                total += 2**degree
            else:
                total += 1
            detour.append(next_id)
            next_id += 1
        detours.append(detour)
    fillers = len(players)
    players += [[[0], detour] for detour in detours]
    game = Game.build(next_id, degree, players)
    return game, (0,) * (fillers + hub_users), (0,) * fillers + (1,) * hub_users


def pruning_cases():
    for degree in (1, 2):
        for seed in range(10):
            yield slack_hub_game(np.random.default_rng(seed), degree)
    for degree in (1, 2):
        for seed in range(12):
            game, s_eq, s_opt = generators.forced_congestion_game(
                np.random.default_rng(seed), degree=degree
            )
            yield game, s_eq, s_opt
    for degree, sizes in ((1, range(4, 21)), (2, range(3, 9))):
        for n in sizes:
            inst = lower_bound.generate(n, degree)
            yield inst.game, inst.state_all_direct, inst.state_all_paths
    rng = np.random.default_rng(77)
    for _ in range(40):
        game = generators.random_game(rng, max_players=6, max_resources=5)
        nash = equilibria.enumerate_nash(game)
        yield game, nash[int(rng.integers(len(nash)))], equilibria.optimal_profile(game)[0]


class TestPruneReference:
    def test_one_pass_matches_restart_loop(self):
        prunes = 0
        for game, s_eq, s_opt in pruning_cases():
            fast = init_two_strategy(game, s_eq, s_opt, trace=[])
            clean_game(fast)
            # The reference runs clean_game with pruning switched off (no
            # congestion exceeds the threshold), then the old loop.
            ref = init_two_strategy(game, s_eq, s_opt, trace=[])
            threshold, ref.threshold = ref.threshold, sys.maxsize
            clean_game(ref)
            ref.threshold = threshold
            reference_prune(ref)
            assert fast.to_dict() == ref.to_dict()
            assert fast.trace == ref.trace
            prunes += sum(line["op"] == "prune" for line in fast.trace)
        assert prunes > 1000  # the cases really exercise pruning


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_transform_from_random_nash_state(seed, data):
    rng = np.random.default_rng(seed)
    game = generators.random_game(rng, max_players=5, max_resources=5)
    nash = equilibria.enumerate_nash(game)
    s_eq = nash[data.draw(st.integers(0, len(nash) - 1))]
    s_opt, _ = equilibria.optimal_profile(game)
    tsg = transform_to_singletons(game, s_eq, s_opt)
    assert np.array_equal(tsg.eq_congestion(), congestion_of(game, s_eq))
    for p in tsg.players.values():
        if not p.is_singleton:
            assert all(tsg._eq_cong[r] <= tsg.threshold for r in p.eq_strategy)
    assert stable_from_scratch(tsg)
    assert verify_domination(game, s_eq, tsg, strict=False).all_ok


class TestGreedyCoverPairs:
    def test_single_played_resource_takes_two_covers(self):
        pairs = greedy_cover_pairs([10], [20, 21], {10: 3, 20: 1, 21: 1}, 1)
        assert pairs == [((10,), (20, 21))]

    def test_one_big_cover_absorbs_the_strategy(self):
        pairs = greedy_cover_pairs([10, 11], [20], {10: 2, 11: 2, 20: 5}, 1)
        assert pairs == [((10, 11), (20,))]

    def test_cover_dominates_absorbed_congestions(self):
        # Resource 20 covers 10 and then 11; the last cover, 21 at congestion
        # 5 (capacity 6), absorbs 12, 13 and 14 (mass 6) and stops at 15 on
        # mass alone, so 15 takes 21 a second time.
        congestion = {10: 2, 11: 2, 12: 2, 13: 2, 14: 2, 15: 1, 20: 4, 21: 5}
        pairs = greedy_cover_pairs(range(10, 16), [20, 21], congestion, 1)
        assert pairs == [((10,), (20,)), ((11,), (20,)), ((12, 13, 14), (21,)), ((15,), (21,))]
        for played, tracked in pairs:
            assert all(congestion[r] <= congestion[tracked[0]] for r in played)

    def test_equilibrium_violation_rejected(self):
        with pytest.raises(PreconditionError):
            greedy_cover_pairs([10, 11], [20], {10: 3, 11: 3, 20: 1}, 1)

    def test_empty_played_strategy_rejected(self):
        with pytest.raises(PreconditionError, match="nothing to partition"):
            greedy_cover_pairs([], [20], {20: 1}, 1)

    def test_partition_requires_clean_player(self):
        tsg = TwoStrategyGame(num_resources=2, degree=1, threshold=9,
                              eq_bottleneck=1, opt_bottleneck=1)
        pid = tsg.add_player([0, 1], [1])
        with pytest.raises(PreconditionError, match="overlapping"):
            split_player(tsg, pid)

    def test_split_requires_multi_player(self):
        tsg = TwoStrategyGame(num_resources=3, degree=1, threshold=9,
                              eq_bottleneck=1, opt_bottleneck=1)
        pid = tsg.add_player([0], [1, 2])
        with pytest.raises(PreconditionError, match="single resource"):
            split_player(tsg, pid)


def reference_cover_pairs(played, tracked, congestion, degree):
    """The cover walk that ``greedy_cover_pairs`` replaced: it counts each
    tracked resource's uses, and reads the count at each pair's boundary and
    to find the leftovers."""
    if not played:
        raise PreconditionError("nothing to partition: empty equilibrium strategy")
    eq = sorted(played, key=lambda r: (-congestion[r], r))
    opt = sorted(tracked, key=lambda r: (congestion[r], r))
    m = len(opt)
    needs = [switch_cost(congestion, (r,), (r,), degree) for r in eq]
    values = [switch_cost(congestion, (), (r,), degree) for r in opt]
    if sum(values) < sum(needs):
        raise PreconditionError("player is not in equilibrium: "
                                "tracked resources cannot cover its cost")
    uses = [0] * m
    pairs = []
    start = 0
    i = 0
    while i < len(eq):
        need = needs[i]
        group = [eq[i]]
        cover = []
        total = 0
        q = boundary = start
        while total < need:
            if q >= m:
                raise StructuralError("ran out of tracked resources while forming cover pairs",
                                      state={"eq": eq, "opt": opt, "pairs": pairs})
            cover.append(opt[q])
            uses[q] += 1
            total += values[q]
            boundary = q
            if total < need:
                q += 1
        i += 1
        start = boundary if uses[boundary] < 2 else boundary + 1
        if len(cover) == 1 and boundary == m - 1:
            capacity = values[boundary]
            group_mass = need
            while i < len(eq) and group_mass + needs[i] <= capacity:
                group.append(eq[i])
                group_mass += needs[i]
                i += 1
        pairs.append((tuple(sorted(group)), tuple(sorted(cover))))
    leftover = [opt[j] for j in range(m) if uses[j] == 0]
    if leftover and len(pairs[-1][0]) == 1:
        group, cover = pairs[-1]
        pairs[-1] = (group, tuple(sorted({*cover, *leftover})))
    return pairs


@st.composite
def cover_inputs(draw):
    """Disjoint played and tracked ids with random congestion.  A played
    resource carries its player, so it sits at congestion 1 or more."""
    ids = draw(st.lists(st.integers(0, 40), unique=True, min_size=1, max_size=14))
    cut = draw(st.integers(1, len(ids)))
    top = draw(st.sampled_from([2, 5, 12, 30]))
    congestion = {r: draw(st.integers(int(k < cut), top)) for k, r in enumerate(ids)}
    return ids[:cut], ids[cut:], congestion, draw(st.integers(1, 3))


def cover_outcome(cover, args):
    try:
        return cover(*args)
    except (PreconditionError, StructuralError) as e:
        return type(e), str(e), getattr(e, "state", None)


# Fifteen played ids at congestion 1 against three tracked at 4, degree 1: the
# walk runs out although the covers are worth 15, the player's whole cost.
RUNS_OUT = (range(15), range(15, 18), {**dict.fromkeys(range(15), 1), 15: 4, 16: 4, 17: 4}, 1)


@settings(max_examples=400, deadline=None)
@given(cover_inputs())
@example(RUNS_OUT)
@example(([10, 11], [20], {10: 3, 11: 3, 20: 1}, 1))
def test_cover_pairs_match_the_use_counting_walk(args):
    assert cover_outcome(greedy_cover_pairs, args) == cover_outcome(reference_cover_pairs, args)


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

    def test_broken_split_is_caught_inside_the_split(self, monkeypatch):
        # Congestion 3, 1, 0, 3.  Player 5 pays 3 + 1 and would pay 1 + 4: stable.
        tsg = TwoStrategyGame(num_resources=4, degree=1, threshold=2,
                              eq_bottleneck=3, opt_bottleneck=1)
        for r in (0, 0, 3, 3, 3):
            tsg.add_player([r], [r])
        pid = tsg.add_player([0, 1], [2, 3])
        tsg.check_equilibrium()
        # A faulty partition: sub-player 6 would pay 3 on resource 0 and 1 on 2.
        monkeypatch.setattr(transform, "greedy_cover_pairs",
                            lambda *args: [((0,), (2,)), ((1,), (3,))])
        with pytest.raises(StructuralError, match="player 6 "):
            split_player(tsg, pid)


class TestEliminate:
    def _manual_tsg(self, idle=0):
        # resource 0 congested to 4 by singleton players; resource 1 is a
        # spare tracked target of one of them; resource 2 hosts the player
        # whose tracked strategy points at resource 0; ``idle`` more
        # resources that no one plays or is tracked to
        tsg = TwoStrategyGame(num_resources=3 + idle, degree=1, threshold=2,
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
        eliminate_high_congestion(tsg, 2, pid)
        assert tsg.players[pid].opt_strategy == before

    def test_single_iteration_rewires_both_players(self):
        tsg, donor, mover = self._manual_tsg()
        opt_before = tsg.opt_congestion()
        eliminate_high_congestion(tsg, 3, mover)
        assert tsg.players[mover].opt_strategy == (1,)
        assert tsg.players[donor].opt_strategy == (0,)
        after = tsg.opt_congestion()
        assert np.array_equal(after, opt_before)
        tsg.check_equilibrium()

    def test_raised_tracked_load_is_caught(self, monkeypatch):
        # A rewiring that also tracks both players to the idle resource 3:
        # both stay stable, so only the load check fires.
        tsg, donor, mover = self._manual_tsg(idle=1)
        retrack = tsg.retrack
        monkeypatch.setattr(tsg, "retrack", lambda pid, s: retrack(pid, (*s, 3)))
        with pytest.raises(StructuralError, match="tracked congestion increased"):
            eliminate_high_congestion(tsg, 3, mover)

    def test_congestion_vectors_invariant(self):
        tsg, donor, mover = self._manual_tsg()
        eq_before = tsg.eq_congestion()
        eliminate_high_congestion(tsg, 3, mover)
        assert np.array_equal(tsg.eq_congestion(), eq_before)

    def _donor_walk(self, host_opts, mover_eq, filled=(1, 2, 3)):
        # Degree 1, level 3: resource 0 at congestion 4 from four singleton
        # hosts, tracked to ``host_opts`` in id order, all of one size, so the
        # walk takes them by id.  The mover plays ``mover_eq`` and is tracked
        # to 0.  Players tracked to their own resource fill each resource in
        # ``filled`` to congestion 3.
        tsg = TwoStrategyGame(num_resources=4, degree=1, threshold=2,
                              eq_bottleneck=4, opt_bottleneck=1)
        hosts = [tsg.add_player([0], opt) for opt in host_opts]
        mover = tsg.add_player(mover_eq, [0])
        for r in filled:
            while tsg._eq_cong[r] < 3:
                tsg.add_player([r], [r])
        tsg.check_equilibrium()
        return tsg, hosts, mover

    def test_donor_tracked_to_the_resource_is_passed_over(self):
        # The first host would hand back resource 0: no progress.
        tsg, hosts, mover = self._donor_walk([(0,), (1,), (0,), (0,)], [2])
        eliminate_high_congestion(tsg, 3, mover)
        assert tsg.players[mover].opt_strategy == (1,)
        assert [tsg.players[q].opt_strategy for q in hosts] == [(0,)] * 4

    def test_multi_mover_passes_over_a_donor_on_its_own_resources(self):
        # The mover pays 3 + 1 on resources 1 and 2.  The first host offers
        # resource 1, which it plays; the second offers 3, worth 4.
        tsg, hosts, mover = self._donor_walk([(1,), (3,), (0,), (0,)], [1, 2], filled=(1, 3))
        eliminate_high_congestion(tsg, 3, mover)
        assert tsg.players[mover].opt_strategy == (3,)
        assert [tsg.players[q].opt_strategy for q in hosts] == [(1,), (0,), (0,), (0,)]
        tsg.check_equilibrium()

    def test_no_usable_donor_is_refused(self):
        tsg, _, mover = self._donor_walk([(0,)] * 4, [2])
        with pytest.raises(StructuralError, match="no usable donor on over-congested resource 0"):
            eliminate_high_congestion(tsg, 3, mover)

    def test_no_host_at_all_is_refused(self):
        # Resource 0 at congestion 4 hosts no singleton but the mover: three
        # multi players pay 4 + 1 there and on a private id, each indifferent
        # to a private detour of five ids.
        tsg = TwoStrategyGame(num_resources=19, degree=1, threshold=2,
                              eq_bottleneck=4, opt_bottleneck=1)
        mover = tsg.add_player([0], [0])
        for k in range(3):
            tsg.add_player([0, 1 + k], range(4 + 5 * k, 9 + 5 * k))
        tsg.check_equilibrium()
        with pytest.raises(StructuralError, match="no usable donor on over-congested resource 0"):
            eliminate_high_congestion(tsg, 3, mover)


def assert_index_matches_roster(tsg):
    """The singleton and multi indexes and the equilibrium congestion equal a
    recount from the players."""
    singles, multis = {}, set()
    counts = [0] * tsg.num_resources
    for pid, p in tsg.players.items():
        if p.is_singleton:
            singles.setdefault(p.eq_strategy[0], set()).add(pid)
        else:
            multis.add(pid)
        for r in p.eq_strategy:
            counts[r] += 1
    assert {r: ids for r, ids in tsg._singles.items() if ids} == singles
    assert tsg._multis == multis
    assert tsg._eq_cong == counts


class TestRosterIndex:
    @pytest.fixture(autouse=True)
    def check_after_every_record(self, monkeypatch):
        # Each change is checked where it happens, so at every step the trace
        # records, every player is stable when recounted from the roster.
        record = TwoStrategyGame.record
        self.ops = []

        def checked(tsg, op, **details):
            record(tsg, op, **details)
            assert_index_matches_roster(tsg)
            assert stable_from_scratch(tsg), op
            self.ops.append(op)

        monkeypatch.setattr(TwoStrategyGame, "record", checked)

    def test_transforms_keep_the_index(self):
        for game, s_eq, s_opt in pruning_cases():
            assert_index_matches_roster(transform_to_singletons(game, s_eq, s_opt))
        for op in ("clean_split", "prune", "split", "mark", "phase"):
            assert op in self.ops

    def test_eliminate_workspace_keeps_the_index(self):
        tsg, _, mover = TestEliminate()._manual_tsg()
        assert_index_matches_roster(tsg)
        eliminate_high_congestion(tsg, 3, mover)
        assert self.ops == ["eliminate"]


class TestIncrementalCheck:
    def _settled(self):
        # Congestion 3, 1, 0 on resources 0, 1, 2.  Player c pays 3 and would
        # pay 2 + 1 on its tracked pair: stable, with no slack.
        tsg = TwoStrategyGame(num_resources=3, degree=1, threshold=1,
                              eq_bottleneck=3, opt_bottleneck=1)
        a = tsg.add_player([0], [0])
        b = tsg.add_player([0], [0])
        c = tsg.add_player([0], [1, 2])
        d = tsg.add_player([1], [1])
        tsg.check_equilibrium()
        self.rechecked = []
        in_equilibrium = tsg.in_equilibrium

        def counted(eq, opt):
            self.rechecked.append((eq, opt))
            return in_equilibrium(eq, opt)

        tsg.in_equilibrium = counted
        return tsg, a, b, c, d

    def test_only_retracked_players_are_rechecked(self):
        # Each check is counted as the (played, tracked) pair it prices.
        tsg, a, b, _, _ = self._settled()
        tsg.retrack(b, [1, 2])
        assert self.rechecked == [((0,), (1, 2))]
        tsg.check_equilibrium()
        assert self.rechecked == [((0,), (1, 2))] + [
            (p.eq_strategy, p.opt_strategy) for _, p in sorted(tsg.players.items())]

    def test_retracked_player_is_caught(self):
        # The retrack itself raises, before anything else can run.
        tsg, a, _, _, _ = self._settled()
        with pytest.raises(StructuralError, match=f"player {a} "):
            tsg.retrack(a, [2])  # pays 3, would pay 1
        assert self.rechecked == [((0,), (2,))]

    def test_lowest_failing_player_is_reported(self):
        # Tracked strategies set directly, past retrack's own check: the full
        # check names the lowest failing id.
        tsg, a, b, _, _ = self._settled()
        tsg.players[b].opt_strategy = (2,)
        tsg.players[a].opt_strategy = (2,)
        with pytest.raises(StructuralError, match=f"player {a} "):
            tsg.check_equilibrium()

    def test_moved_congestion_rechecks_everyone(self):
        # A fourth user on resource 0 makes the clean player c prefer its
        # tracked pair.  add_player checks no one; the next check rechecks
        # every player in id order up to c.
        tsg, a, b, c, _ = self._settled()
        tsg.add_player([0], [0])
        assert self.rechecked == []
        with pytest.raises(StructuralError, match=f"player {c} "):
            tsg.check_equilibrium()
        assert self.rechecked == [((0,), (0,)), ((0,), (0,)), ((0,), (1, 2))]

    def test_net_zero_moves_keep_the_check_incremental(self):
        tsg, _, _, _, d = self._settled()
        twin = tsg.players[d]
        (new,) = tsg.replace(d, [(twin.eq_strategy, twin.opt_strategy)])
        assert self.rechecked == [((1,), (1,))]
        assert tsg.players[new] == twin

    @pytest.mark.parametrize("bad", [3, -1])
    def test_retrack_refuses_ids_outside_the_game(self, bad):
        # Refused before any congestion is read: -1 would read the last
        # resource, and 3 would index past the vector.
        tsg, a, _, _, _ = self._settled()
        with pytest.raises(StructuralError, match=r"leaves the resources \[0, 3\)"):
            tsg.retrack(a, [1, bad])
        assert tsg.players[a].opt_strategy == (0,)
        assert self.rechecked == []


def workspace_state(tsg):
    """A deep copy of everything replace, retrack and add_player may change."""
    return copy.deepcopy((tsg.players, tsg._singles, tsg._multis, tsg._eq_cong, tsg._next_id))


class TestReplace:
    def _workspace(self):
        # Congestion 1, 2, 0, 0.  Player p plays {0, 1} and is tracked to
        # {2}; q plays {1}.
        tsg = TwoStrategyGame(num_resources=4, degree=1, threshold=1,
                              eq_bottleneck=2, opt_bottleneck=1)
        p = tsg.add_player([0, 1], [2])
        tsg.add_player([1], [3])
        return tsg, p

    def test_parts_that_partition_the_strategy_take_the_players_place(self):
        tsg, p = self._workspace()
        cong = list(tsg._eq_cong)
        new_ids = tsg.replace(p, [([1], [2, 3]), ([0], [2])])
        assert p not in tsg.players
        assert [(tsg.players[n].eq_strategy, tsg.players[n].opt_strategy)
                for n in new_ids] == [((1,), (2, 3)), ((0,), (2,))]
        assert tsg._eq_cong == cong
        assert_index_matches_roster(tsg)

    def test_unstable_part_is_caught_at_once(self):
        # The new player on resource 1 pays 2 and would pay 1 on resource 2.
        # It is refused before p leaves or any new player enters.
        tsg, p = self._workspace()
        before = workspace_state(tsg)
        with pytest.raises(StructuralError, match="player 3 is no longer"):
            tsg.replace(p, [([0], [2]), ([1], [2])])
        assert workspace_state(tsg) == before

    def test_unstable_retrack_is_refused_unchanged(self):
        # q pays 2 on resource 1 and would pay 1 on resource 2.
        tsg, p = self._workspace()
        (q,) = set(tsg.players) - {p}
        before = workspace_state(tsg)
        with pytest.raises(StructuralError, match=f"player {q} is no longer"):
            tsg.retrack(q, [2])
        assert workspace_state(tsg) == before
        assert tsg.players[q].opt_strategy == (3,)

    @pytest.mark.parametrize("parts", [
        pytest.param([([0], [2])], id="drops_an_id"),
        pytest.param([([0], [2]), ([0, 1], [3])], id="repeats_an_id"),
        pytest.param([([0], [2]), ([1, 3], [2])], id="adds_an_id"),
        pytest.param([([0, 1], [2]), ([], [3])], id="empty_part"),
    ])
    def test_parts_that_do_not_partition_are_refused_unchanged(self, parts):
        tsg, p = self._workspace()
        before = workspace_state(tsg)
        with pytest.raises(StructuralError, match=f"partition the strategy .* of player {p}"):
            tsg.replace(p, parts)
        assert workspace_state(tsg) == before

    @pytest.mark.parametrize("call", [
        pytest.param(lambda tsg: tsg.replace(7, [([0], [2])]), id="replace"),
        pytest.param(lambda tsg: tsg.retrack(7, [2]), id="retrack"),
    ])
    def test_unknown_player_is_refused_unchanged(self, call):
        tsg, _ = self._workspace()
        before = workspace_state(tsg)
        with pytest.raises(StructuralError, match="player 7 is not in the roster"):
            call(tsg)
        assert workspace_state(tsg) == before


class TestRangeCheck:
    """Every strategy that enters the workspace is range-checked before
    anything changes: an id of ``num_resources`` would index past the
    congestion, and -1 would be priced as the last resource."""

    def _workspace(self):
        # Congestion 1, 2, 0, 1.  Player p plays {0, 1} and is tracked to
        # {2}; q plays {1}; r plays {3}, so -1 would read congestion 1.
        tsg = TwoStrategyGame(num_resources=4, degree=1, threshold=1,
                              eq_bottleneck=2, opt_bottleneck=1)
        p = tsg.add_player([0, 1], [2])
        tsg.add_player([1], [3])
        tsg.add_player([3], [3])
        return tsg, p

    @pytest.mark.parametrize("eq, opt", [
        pytest.param([-1], [0], id="played_minus_one"),
        pytest.param([4], [0], id="played_past_the_end"),
        pytest.param([0, 4], [1], id="played_pair_past_the_end"),
        pytest.param([0], [4], id="tracked_past_the_end"),
    ])
    def test_add_player_refuses_ids_outside_the_game(self, eq, opt):
        tsg, _ = self._workspace()
        before = workspace_state(tsg)
        with pytest.raises(StructuralError, match=r"leaves the resources \[0, 4\)"):
            tsg.add_player(eq, opt)
        assert workspace_state(tsg) == before

    def test_add_player_refuses_an_empty_played_strategy(self):
        tsg, _ = self._workspace()
        before = workspace_state(tsg)
        with pytest.raises(StructuralError, match="empty equilibrium strategy"):
            tsg.add_player([], [0])
        assert workspace_state(tsg) == before

    @pytest.mark.parametrize("bad", [4, -1])
    def test_replace_refuses_tracked_parts_outside_the_game(self, bad):
        tsg, p = self._workspace()
        before = workspace_state(tsg)
        with pytest.raises(StructuralError,
                           match=rf"strategy \[{bad}\] of player {p} leaves the resources"):
            tsg.replace(p, [([0], [2]), ([1], [bad])])
        assert workspace_state(tsg) == before


def test_no_player_is_rechecked_unchanged(monkeypatch):
    # Outside the final full check, a player is checked once per pair of
    # strategies it would hold: the congestion never moves, so a second check
    # of the same pair could only repeat the first.
    player_check = TwoStrategyGame._check
    check = TwoStrategyGame.check_equilibrium
    seen, repeats, in_full = set(), [], [False]

    def counted(tsg, pid, eq, opt):
        if not in_full[0]:
            key = (id(tsg), pid, eq, opt)
            if key in seen:
                repeats.append(key[1:])
            seen.add(key)
        return player_check(tsg, pid, eq, opt)

    def flagged(tsg):
        in_full[0] = True
        try:
            check(tsg)
        finally:
            in_full[0] = False

    monkeypatch.setattr(TwoStrategyGame, "_check", counted)
    monkeypatch.setattr(TwoStrategyGame, "check_equilibrium", flagged)
    kept = []  # keeps every workspace alive, so no id() is reused
    for seed in range(150):
        rng = np.random.default_rng(seed)
        for degree in (1, 1, 1, 2):
            game, s_eq, s_opt = generators.forced_congestion_game(rng, degree)
            kept.append(transform_to_singletons(game, s_eq, s_opt))
    assert seen
    assert not repeats, (len(repeats), repeats[:5])


def test_tracked_strategies_change_only_through_retrack():
    # Only retrack and replace check a changed player, and only the
    # workspace's own add_player and replace keep the equilibrium congestion.
    found = []
    for path in sorted(Path(polybottleneck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "TwoStrategyGame"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            found += [
                f"{path.name}:{node.lineno}"
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Attribute) and t.attr in ("opt_strategy", "eq_strategy")
                and id(node) not in inside
            ]
    assert not found, found


def test_only_replace_removes_a_player():
    # replace checks the partition that keeps the equilibrium congestion.
    found = []
    for path in sorted(Path(polybottleneck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "replace"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in allowed and (
                isinstance(node, ast.Delete) and any(
                    isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
                    and t.value.attr == "players" for t in node.targets)
                or isinstance(node, ast.Attribute) and node.attr in ("pop", "popitem", "clear")
                and isinstance(node.value, ast.Attribute) and node.value.attr == "players")
        ]
    assert not found, found


def test_only_check_equilibrium_decides_stability():
    # Its per-player step ``_check``, which replace and retrack also call, is
    # the one reader: every other path would skip the check of a change.
    found = []
    for path in sorted(Path(polybottleneck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_check"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "in_equilibrium"
            and isinstance(node.ctx, ast.Load) and id(node) not in allowed
        ]
    assert not found, found


def mark_sub_player_workspace(requeue):
    """Degree 2, level 5.  The locked player plays resource 0 (congestion 3)
    and 27 private ids and is tracked to resource 1 (congestion 5).  The
    first singleton of resource 1, the round's donor, is tracked to a fresh
    id and the hub, resource 2 at congestion 7.  The round leaves a multi
    sub-player on 26 private ids, costing 26 > 25, tracked to the hub.  With
    ``requeue`` the first hub host tracks resource 1 (and 13 fresh ids), so
    the sub-player is eliminated to resource 1 and queued again; otherwise
    it tracks 49 fresh ids, all below the level, and the sub-player is split.
    Returns the workspace and the locked player's id."""
    tsg = TwoStrategyGame(num_resources=200, degree=2, threshold=4, eq_bottleneck=7,
                          opt_bottleneck=1, trace=[])
    fresh = iter(range(3, 200))

    def take(k):
        return [next(fresh) for _ in range(k)]

    for _ in range(2):
        tsg.add_player([0], [0])
    tsg.add_player([1], [next(fresh), 2])
    for _ in range(4):
        tsg.add_player([1], take(25))
    tsg.add_player([2], [1, *take(13)] if requeue else take(49))
    for _ in range(6):
        tsg.add_player([2], [2])
    locked = tsg.add_player([0, *take(27)], [1])
    tsg.check_equilibrium()
    return tsg, locked


def unsplit_survivor_workspace():
    """Degree 1, level 4: a multi player on resource 0 (congestion 4) and a
    private id pays 5, in the band, tracked to five fresh ids.  Left unsplit,
    it survives the band tracked to more than one resource."""
    tsg = TwoStrategyGame(num_resources=7, degree=1, threshold=3, eq_bottleneck=4,
                          opt_bottleneck=1, trace=[])
    for _ in range(3):
        tsg.add_player([0], [0])
    pid = tsg.add_player([0, 1], range(2, 7))
    tsg.check_equilibrium()
    return tsg, pid


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
        for pid in sorted(tsg.players):
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

    def test_multi_player_on_a_resource_above_the_level_is_rejected(self):
        # The multi player plays resource 0 at congestion 5 and resource 1 at
        # congestion 1, so it pays 5 + 1, above the band (4, 5] of level 4:
        # the band check alone refuses a multi player above the level.
        tsg = TwoStrategyGame(
            num_resources=12, degree=1, threshold=3, eq_bottleneck=5, opt_bottleneck=1
        )
        for r in range(4):
            tsg.add_player([0], [2 + r])
        pid = tsg.add_player([0, 1], range(6, 12))
        with pytest.raises(StructuralError, match=f"multi player {pid} above the band at level 4"):
            run_phase(tsg, 4)

    @pytest.mark.parametrize("requeue", [True, False])
    def test_mark_round_sub_player_above_the_level(self, requeue):
        tsg, locked = mark_sub_player_workspace(requeue)
        phase = run_phase(tsg, 5)
        ops = [line["op"] for line in tsg.trace]
        # The band split is one part; the survivor is locked on resource 1.
        (survivor,) = tsg.trace[0]["new_ids"]
        assert tsg.trace[0]["player"] == locked
        mark = tsg.trace[2]
        assert (mark["op"], mark["player"], mark["resource"]) == ("mark", survivor, 1)
        *_, (sub_eq, sub_opt) = tsg.trace[1]["pairs"]
        sub = mark["new_ids"][-1]
        assert len(sub_eq) == 26 and sub_opt == [2]
        eliminate = tsg.trace[3]
        assert (eliminate["op"], eliminate["player"], eliminate["resource"]) == ("eliminate", sub, 2)
        if requeue:
            assert eliminate["new_opt"] == [1]
            assert ops == ["split", "split", "mark", "eliminate", "split", "mark", "phase"]
            assert tsg.trace[5]["player"] == sub
            assert (phase.splits, phase.markings) == (3, 2)
        else:
            assert all(tsg._eq_cong[r] < 5 for r in eliminate["new_opt"])
            assert ops == ["split", "split", "mark", "eliminate", "split", "phase"]
            assert tsg.trace[4]["player"] == sub
            assert (phase.splits, phase.markings) == (3, 1)
        assert all(tsg.cost(pid) <= 25 for pid in tsg.multi_ids())
        tsg.check_equilibrium()
        assert stable_from_scratch(tsg)

    def test_band_survivor_off_one_resource_is_rejected(self, monkeypatch):
        tsg, pid = unsplit_survivor_workspace()
        monkeypatch.setattr(transform, "split_player", lambda tsg, pid: [pid])
        with pytest.raises(StructuralError, match=f"band survivor {pid} is not tracked to one"):
            run_phase(tsg, 4)


PHASE_GUARDS = ("marking budget exhausted", "no unmarked donor available")


def phase_statements():
    """Line of every statement in ``run_phase`` and ``_erase_above``, but
    their docstrings and the two guard raises in ``PHASE_GUARDS``."""
    return statements((run_phase, transform._erase_above), PHASE_GUARDS)


def statements(funcs, allowed):
    """Line of every statement in ``funcs``, but their docstrings and one
    raise per message in ``allowed``."""
    lines, guards = {}, 0
    for func in funcs:
        source, start = inspect.getsourcelines(func)
        text = textwrap.dedent("".join(source))
        (node,) = ast.parse(text).body
        docstring = node.body[0]
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.stmt) or stmt in (node, docstring):
                continue
            if isinstance(stmt, ast.Raise) and any(
                    guard in ast.get_source_segment(text, stmt) for guard in allowed):
                guards += 1
                continue
            lines[stmt.lineno + start - 1] = f"{func.__name__}: {ast.unparse(stmt).splitlines()[0]}"
    assert guards == len(allowed)
    return lines


def test_every_phase_statement_runs_in_a_pinned_case(monkeypatch):
    """``coverage`` is not a dependency, so ``sys.settrace`` records the lines
    of the phase code that the golden transform runs and the workspace cases
    above reach; every statement but the two guards must run."""
    from test_golden import CASES, run_case

    codes = {run_phase.__code__, transform._erase_above.__code__}
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for name in sorted(CASES):
            if name.startswith("transform_"):
                assert run_case(CASES[name])[0] == 0, name
        for requeue in (True, False):
            run_phase(mark_sub_player_workspace(requeue)[0], 5)
        monkeypatch.setattr(transform, "split_player", lambda tsg, pid: [pid])
        with pytest.raises(StructuralError, match="band survivor"):
            run_phase(unsplit_survivor_workspace()[0], 4)
    finally:
        sys.settrace(previous)
    statements = phase_statements()
    assert not [text for line, text in sorted(statements.items()) if line not in ran]


COVER_GUARDS = ("ran out of tracked resources",)


def test_every_cover_clean_and_eliminate_statement_runs_in_a_pinned_case(monkeypatch):
    """Under ``sys.settrace``, as above: every statement of
    ``greedy_cover_pairs``, ``clean_game`` and ``eliminate_high_congestion``
    runs in the golden transform cases and the workspace cases of their test
    classes, but the raise in ``COVER_GUARDS``.  The cover walk runs out only
    through a fault of the cover construction (``RUNS_OUT`` is one such
    player, and a weak Nash game can hold it), so no pinned case takes it as
    intended output; ``test_cover_pairs_match_the_use_counting_walk`` runs it
    against the reference walk."""
    from test_golden import CASES, run_case

    funcs = (greedy_cover_pairs, clean_game, eliminate_high_congestion)
    codes = {func.__code__ for func in funcs}
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes else None

    covers, clean, eliminate = TestGreedyCoverPairs(), TestClean(), TestEliminate()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for name in sorted(CASES):
            if name.startswith("transform_"):
                assert run_case(CASES[name])[0] == 0, name
        for case in (covers.test_cover_dominates_absorbed_congestions,
                     covers.test_equilibrium_violation_rejected,
                     covers.test_empty_played_strategy_rejected,
                     clean.test_overlap_split_preserves_congestion,
                     clean.test_contained_strategy_keeps_tracked_load,
                     eliminate.test_donor_tracked_to_the_resource_is_passed_over,
                     eliminate.test_multi_mover_passes_over_a_donor_on_its_own_resources,
                     eliminate.test_no_usable_donor_is_refused):
            case()
        for case in (clean.test_raised_tracked_load_is_caught,
                     eliminate.test_raised_tracked_load_is_caught):
            case(monkeypatch)
            monkeypatch.undo()
    finally:
        sys.settrace(previous)
    lines = statements(funcs, COVER_GUARDS)
    assert not [text for line, text in sorted(lines.items()) if line not in ran]


class TestFullTransform:
    def test_final_band_check_catches_a_phase_that_left_a_multi_player(self, monkeypatch):
        # Degree 1, threshold 3: hub 0 at congestion 4, resources 1 and 2 at
        # congestion 3 and 2.  The multi player on {1, 2} pays 5, in the band
        # of level 4, above delay(threshold + 1) = 4, yet on no resource above
        # the threshold.  Every player is indifferent to its private detour.
        fresh = iter(range(3, 100))
        players = [[[0], [next(fresh) for _ in range(4)]] for _ in range(4)]
        players += [[[1], [next(fresh) for _ in range(3)]] for _ in range(2)]
        players += [[[2], [next(fresh) for _ in range(2)]]]
        players += [[[1, 2], [next(fresh) for _ in range(5)]]]
        game = Game.build(next(fresh), 1, players)
        nash, opt = (0,) * len(players), (1,) * len(players)
        assert transform_to_singletons(game, nash, opt).threshold == 3
        monkeypatch.setattr(transform, "run_phase", lambda tsg, level: None)
        with pytest.raises(StructuralError, match="multi player 7 above the band at level 3"):
            transform_to_singletons(game, nash, opt)

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
            # every player is still stable (recounted from the roster)
            assert stable_from_scratch(tsg)

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
            game, s_eq, s_opt = generators.forced_congestion_game(rng, int(rng.choice([1, 2])))
            tsg = transform_to_singletons(game, s_eq, s_opt)
            dom = verify_domination(game, s_eq, tsg)
            assert dom.all_ok
            assert dom.opt_bottleneck <= 7 * dom.original_opt_bottleneck

    @pytest.mark.parametrize("case, flag", [
        ("eq_rewritten_in_place", "eq_congestion_ok"),
        ("tracked_id_past_range", "resources_ok"),
        ("tracked_id_negative", "resources_ok"),
        ("hub_retracked_to_idle", "equilibrium_ok"),
        ("tracked_stacked", "within_factor_seven"),
    ])
    def test_tampered_game_fails(self, case, flag):
        game, s_eq, s_opt = generators.forced_congestion_game(np.random.default_rng(5), degree=1)
        tsg = transform_to_singletons(game, s_eq, s_opt)
        assert verify_domination(game, s_eq, tsg).all_ok
        tamper(case, game, tsg)
        report = verify_domination(game, s_eq, tsg, strict=False)
        assert [k for k, v in report.to_dict().items() if v is False] == [flag, "all_ok"]
        with pytest.raises(DominationError):
            verify_domination(game, s_eq, tsg)


    @pytest.mark.parametrize("case", ["tracked_id_past_range", "tracked_id_negative"])
    def test_out_of_range_tracked_id_is_counted_apart(self, case):
        # Everyone but one player is tracked to the last resource; that one
        # is tracked to an id outside the game.  It must count on its own:
        # not raise, and not land on the last resource.  The strategies are
        # set directly: retrack would refuse the bad id and unstable players.
        game, s_eq, s_opt = generators.forced_congestion_game(np.random.default_rng(5), degree=1)
        tsg = transform_to_singletons(game, s_eq, s_opt)
        first, *rest = sorted(tsg.players)
        for qid in rest:
            tsg.players[qid].opt_strategy = (game.num_resources - 1,)
        bad = game.num_resources if case == "tracked_id_past_range" else -1
        tsg.players[first].opt_strategy = (bad,)
        assert tsg.opt_congestion() == {game.num_resources - 1: len(rest), bad: 1}
        assert tsg.tracked_opt_bottleneck() == len(rest)
        assert tsg.to_dict()["tracked_opt_bottleneck"] == len(rest)
        report = verify_domination(game, s_eq, tsg, strict=False)
        assert report.opt_bottleneck == len(rest) and not report.resources_ok


def tamper(case, game, tsg):
    """Break one domination flag of a transformed roster.  The player edited
    is the lowest-id singleton on the equilibrium bottleneck resource (the
    hub); the idle resource is the lowest one that no one plays.  Tracked
    strategies are set directly, since ``retrack`` refuses the broken ones."""
    cong = tsg.eq_congestion()
    hub, idle = cong.index(tsg.eq_bottleneck), cong.index(0)
    pid = tsg.singles_on(hub)[0]
    player = tsg.players[pid]
    if case == "eq_rewritten_in_place":  # past add_player and replace
        player.eq_strategy = (idle,)
    elif case == "tracked_id_past_range":
        player.opt_strategy += (game.num_resources,)
    elif case == "tracked_id_negative":
        player.opt_strategy = (-1,) + player.opt_strategy
    elif case == "hub_retracked_to_idle":  # a detour at congestion 1 beats the hub
        player.opt_strategy = (idle,)
    elif case == "tracked_stacked":  # everyone tracked to the hub: stable, but 7x exceeded
        for qid in sorted(tsg.players):
            tsg.retrack(qid, (hub,))
