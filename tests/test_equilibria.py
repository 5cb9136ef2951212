import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybottleneck import generators, kernels, lower_bound
from polybottleneck.equilibria import (
    best_response,
    best_response_dynamics,
    enumerate_nash,
    is_nash,
    optimal_profile,
    price_of_anarchy,
    rosenthal_potential,
)
from polybottleneck.errors import (
    InvalidProfileError,
    NonConvergenceError,
    StateSpaceTooLargeError,
)
from polybottleneck.game_core import Game, bottleneck, congestion_of, player_cost

from conftest import (
    oracle_best_response,
    oracle_is_nash,
    oracle_nash_profiles,
    oracle_optimal,
    oracle_player_cost,
    oracle_poa,
    oracle_potential,
)


def reference_dynamics(game, start):
    """Round-robin strict best-response walk built on the brute-force oracle."""
    profile = list(start)
    moves = stable = player = 0
    while stable < game.num_players:
        best = oracle_best_response(game, profile, player)
        trial = profile[:player] + [best] + profile[player + 1:]
        if oracle_player_cost(game, trial, player) < oracle_player_cost(game, profile, player):
            profile = trial
            moves += 1
            stable = 0
        else:
            stable += 1
        player = (player + 1) % game.num_players
    return tuple(profile), moves


class TestBestResponse:
    def test_fixed_point_when_uniquely_optimal(self):
        game = Game.build(2, 1, [[[0], [1]], [[0]]])
        # player 0 shares resource 0 with player 1; resource 1 is free
        assert best_response(game, (1, 0), 0) == 1

    @pytest.mark.parametrize("player", [-1, 2])
    def test_player_outside_the_game_is_refused(self, player):
        # As player_cost refuses it: -1 would answer for the last player, and
        # 2 would index past the strategy lists.
        game = Game.build(2, 1, [[[0], [1]], [[0]]])
        with pytest.raises(InvalidProfileError, match=f"no player {player} in a 2-player game"):
            best_response(game, (1, 0), player)

    @pytest.mark.parametrize("player", [True, 1.0])
    def test_player_that_is_not_an_integer_is_refused(self, player):
        # True would answer for player 1, and 1.0 would index with a float.
        game = Game.build(2, 1, [[[0], [1]], [[0]]])
        with pytest.raises(InvalidProfileError, match=f"no player {player!r} in a 2-player game"):
            best_response(game, (1, 0), player)

    def test_numpy_player_id_is_taken(self):
        game = Game.build(2, 1, [[[0], [1]], [[0]]])
        assert best_response(game, (0, 0), np.int64(0)) == 1

    def test_family_direct_state_is_retained(self):
        inst = lower_bound.generate(4, 1)
        for i in range(4):
            # deviation cost equals current cost, so the tie keeps index 0
            assert best_response(inst.game, inst.state_all_direct, i) == 0

    def test_matches_bruteforce_argmin(self, rng):
        for _ in range(50):
            game = generators.random_game(rng)
            profile = tuple(int(rng.integers(0, len(s))) for s in game.strategies)
            for i in range(game.num_players):
                assert best_response(game, profile, i) == oracle_best_response(
                    game, profile, i
                )


class TestIsNash:
    def test_single_player_at_minimum(self):
        game = Game.build(2, 1, [[[0], [0, 1]]])
        assert is_nash(game, (0,))
        assert not is_nash(game, (1,))

    def test_family_direct_state(self):
        inst = lower_bound.generate(4, 1)
        assert is_nash(inst.game, inst.state_all_direct)

    @pytest.mark.parametrize("n,degree", [(2, 1), (4, 1), (2, 2), (3, 2)])
    def test_family_path_state_agrees_with_bruteforce(self, n, degree):
        inst = lower_bound.generate(n, degree)
        assert is_nash(inst.game, inst.state_all_paths) == oracle_is_nash(
            inst.game, inst.state_all_paths
        )

    def test_matches_oracle_on_random_games(self, rng):
        for _ in range(40):
            game = generators.random_game(rng)
            profile = tuple(int(rng.integers(0, len(s))) for s in game.strategies)
            assert is_nash(game, profile) == oracle_is_nash(game, profile)


class TestPotential:
    def test_empty_congestion(self):
        game = Game.build(2, 3, [[[0]]])
        # only one resource used once: potential is 1
        assert rosenthal_potential(game, (0,)) == 1

    def test_two_players_one_resource(self):
        game = Game.build(1, 2, [[[0]], [[0]]])
        assert rosenthal_potential(game, (0, 0)) == 1 + 4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 30), st.data())
    def test_matches_oracle(self, seed, degree, data):
        rng = np.random.default_rng(seed)
        game = generators.random_game(rng, max_players=6, degrees=(degree,))
        profile = tuple(data.draw(st.integers(0, len(s) - 1)) for s in game.strategies)
        assert rosenthal_potential(game, profile) == oracle_potential(game, profile)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_unilateral_move_shifts_potential_by_cost_delta(self, seed, data):
        rng = np.random.default_rng(seed)
        game = generators.random_game(rng)
        profile = list(
            data.draw(st.integers(0, len(s) - 1)) for s in game.strategies
        )
        player = data.draw(st.integers(0, game.num_players - 1))
        alt = data.draw(st.integers(0, len(game.strategies[player]) - 1))
        before_phi = rosenthal_potential(game, tuple(profile))
        before_cost = oracle_player_cost(game, tuple(profile), player)
        profile[player] = alt
        after_phi = rosenthal_potential(game, tuple(profile))
        after_cost = oracle_player_cost(game, tuple(profile), player)
        assert before_phi - after_phi == before_cost - after_cost


class TestDynamics:
    def test_already_stable_start(self):
        inst = lower_bound.generate(4, 1)
        report = best_response_dynamics(inst.game, inst.state_all_direct)
        assert report.profile == inst.state_all_direct
        assert report.moves == 0
        assert is_nash(inst.game, report.profile)

    def test_converges_within_potential_budget(self, rng):
        for _ in range(60):
            game = generators.random_game(rng)
            start = tuple(int(rng.integers(0, len(s))) for s in game.strategies)
            budget = rosenthal_potential(game, start)
            report = best_response_dynamics(game, start, max_steps=budget + 1)
            assert report.moves <= budget
            assert oracle_is_nash(game, report.profile)

    def test_matches_oracle_round_robin(self, rng):
        for _ in range(60):
            game = generators.random_game(rng, max_players=6)
            start = tuple(int(rng.integers(0, len(s))) for s in game.strategies)
            report = best_response_dynamics(game, start)
            assert (report.profile, report.moves) == reference_dynamics(game, start)
            assert report.bottleneck == max(congestion_of(game, report.profile))
            assert report.potential == rosenthal_potential(game, report.profile)

    def test_budget_exhaustion_raises(self):
        game = Game.build(2, 1, [[[0], [1]], [[0], [1]]])
        # (0, 0) is unstable; zero budget cannot reach equilibrium
        with pytest.raises(NonConvergenceError):
            best_response_dynamics(game, (0, 0), max_steps=0)


def chain(n):
    """n players of n distinct types: player i picks resource i or i + 1."""
    return Game.build(n + 1, 1, [[[i], [i + 1]] for i in range(n)])


class TestEnumeration:
    def test_cap_is_enforced(self):
        game = chain(10)
        with pytest.raises(StateSpaceTooLargeError):
            enumerate_nash(game, cap=100)
        with pytest.raises(StateSpaceTooLargeError):
            optimal_profile(game, cap=100)
        with pytest.raises(StateSpaceTooLargeError):
            price_of_anarchy(game, cap=100)

    def test_cap_env_default(self):
        # 2**10 = 1024 states fit: every player can sit alone
        assert optimal_profile(chain(10), cap=2000)[1] == 1
        # without cap= the default cap of 10**7 applies: 2**24 orbits are over
        with pytest.raises(StateSpaceTooLargeError):
            price_of_anarchy(chain(24))

    def test_cap_counts_orbits_of_identical_players(self):
        # 24 identical players have 25 orbits: the default cap lets them
        # through, and only the even split is stable
        report = price_of_anarchy(Game.build(2, 1, [[[0], [1]]] * 24))
        assert (report.C, report.C_star) == (12, 12)
        assert report.nash_count == math.comb(24, 12)
        assert report.worst_nash == report.optimal == (0,) * 12 + (1,) * 12
        # Nash enumeration lists every profile, so its cap counts profiles
        with pytest.raises(StateSpaceTooLargeError):
            enumerate_nash(Game.build(2, 1, [[[0], [1]]] * 24))

    def test_nash_count_beyond_int64(self):
        report = price_of_anarchy(Game.build(2, 1, [[[0], [1]]] * 70))
        assert report.nash_count == math.comb(70, 35) > 2**63


def template_game(seed: int) -> Game:
    """Two or three template players copied into random positions.  Each
    template holds strategies over five shared resources, and a template
    with a detour gives every copy its own fresh detour resources, so
    copies agree only once private resources become counts."""
    rng = np.random.default_rng(seed)
    shared = 5
    templates = []
    for _ in range(int(rng.integers(2, 4))):
        strategies = [sorted(int(r) for r in rng.choice(shared, int(rng.integers(1, 3)),
                                                         replace=False))
                      for _ in range(int(rng.integers(1, 4)))]
        templates.append((strategies, int(rng.integers(0, 3))))  # detour length
    order = [int(t) for t in rng.integers(0, len(templates), int(rng.integers(3, 7)))]
    # at most 400 profiles keep the oracle quick
    while math.prod(len(templates[t][0]) + (templates[t][1] > 0) for t in order) > 400:
        order.pop()
    players, fresh = [], shared
    for t in order:
        strategies, detour = templates[t]
        if detour:
            strategies = strategies + [[0] + list(range(fresh, fresh + detour))]
            fresh += detour
        players.append(strategies)
    return Game.build(fresh, int(rng.integers(1, 3)), players)


class TestOrbits:
    @pytest.mark.parametrize("seed", range(40))
    def test_repeated_types_match_the_oracle(self, seed):
        game = template_game(seed)
        report = price_of_anarchy(game)
        C, c_star, count, worst, optimal = oracle_poa(game)
        assert (report.C, report.C_star, report.nash_count) == (C, c_star, count)
        assert (report.worst_nash, report.optimal) == (worst, optimal)
        assert enumerate_nash(game) == oracle_nash_profiles(game)

    def test_templates_repeat_types(self):
        sizes = [len(kernels.encode_game(template_game(seed)).members) for seed in range(40)]
        games = [template_game(seed).num_players for seed in range(40)]
        assert sum(t < n for t, n in zip(sizes, games)) >= 30

    @pytest.mark.parametrize("seed", range(40))
    def test_ties_across_chunks_of_interleaved_types(self, seed, monkeypatch):
        # Three orbits per chunk, so a tie often meets an earlier chunk's
        # orbit, and types whose members interleave, so orbit order is not
        # the lexicographic order of the representatives.
        monkeypatch.setattr(kernels, "CHUNK", 3)
        game = interleaved_game(seed)
        report = price_of_anarchy(game)
        C, c_star, count, worst, optimal = oracle_poa(game)
        assert (report.C, report.C_star, report.nash_count) == (C, c_star, count)
        assert (report.worst_nash, report.optimal) == (worst, optimal)
        assert enumerate_nash(game) == oracle_nash_profiles(game)

    def test_interleaved_games_are_out_of_order(self):
        assert sum(not kernels.encode_game(interleaved_game(seed)).in_order
                   for seed in range(40)) >= 20


def interleaved_game(seed: int) -> Game:
    """A 2-3 player random game with every player doubled, the copies
    shuffled."""
    rng = np.random.default_rng(1000 + seed)
    game = generators.random_game(rng, max_players=3)
    players = [list(map(list, s)) for s in game.strategies] * 2
    order = rng.permutation(len(players))
    return Game.build(game.num_resources, game.degree, [players[int(i)] for i in order])


class TestOptimal:
    def test_disjoint_singletons(self):
        game = Game.build(3, 1, [[[0]], [[1]], [[2]]])
        profile, c_star = optimal_profile(game)
        assert c_star == 1

    def test_family_optimum_value(self):
        inst = lower_bound.generate(4, 1)
        profile, c_star = optimal_profile(inst.game)
        assert c_star == 1
        assert bottleneck(congestion_of(inst.game, profile)) == 1
        # lexicographic tie-break: player 0 may stay direct since its detour
        # contains the shared resource anyway
        assert profile == (0, 1, 1, 1)

    def test_matches_full_scan(self, rng):
        for _ in range(30):
            game = generators.random_game(rng)
            profile, c_star = optimal_profile(game)
            _, expected = oracle_optimal(game)
            assert c_star == expected
            assert max(congestion_of(game, profile)) == expected


class TestNashEnumeration:
    def test_single_player_min_cost_strategies(self):
        game = Game.build(2, 1, [[[0], [1], [0, 1]]])
        assert enumerate_nash(game) == [(0,), (1,)]

    def test_family_contains_direct_state(self):
        inst = lower_bound.generate(4, 1)
        nash = enumerate_nash(inst.game)
        assert inst.state_all_direct in nash
        # with four players the all-path state is unstable (the shared
        # resource is cheap), so it must not be reported
        assert inst.state_all_paths not in nash

    def test_path_state_is_never_stable(self):
        # the player whose detour contains the shared resource can always
        # shortcut to the shared resource alone, so the all-path state is
        # unstable for every family size
        for n, degree in [(2, 1), (3, 1), (2, 2)]:
            inst = lower_bound.generate(n, degree)
            assert not is_nash(inst.game, inst.state_all_paths)
            assert inst.state_all_paths not in enumerate_nash(inst.game)

    def test_matches_oracle_and_existence(self, rng):
        for _ in range(30):
            game = generators.random_game(rng)
            nash = enumerate_nash(game)
            assert nash == oracle_nash_profiles(game)
            assert len(nash) >= 1

    def test_invariant_under_player_reordering(self, rng):
        for _ in range(10):
            game = generators.random_game(rng, max_players=3)
            order = list(range(game.num_players))
            rng.shuffle(order)
            permuted = Game.build(
                game.num_resources,
                game.degree,
                [list(map(list, game.strategies[i])) for i in order],
            )
            original = {tuple(p[order.index(i)] for i in range(game.num_players))
                        for p in enumerate_nash(permuted)}
            assert original == set(enumerate_nash(game))


class TestPriceOfAnarchy:
    def test_unique_state_game(self):
        game = Game.build(2, 1, [[[0]], [[1]]])
        report = price_of_anarchy(game)
        assert report.poa == 1
        assert report.nash_count == 1

    def test_family_degree_one(self):
        inst = lower_bound.generate(4, 1)
        report = price_of_anarchy(inst.game)
        assert report.poa == Fraction(4, 1)
        assert report.C == 4 and report.C_star == 1
        assert inst.num_resources ** (1 / 2) == pytest.approx(4.0)

    def test_family_degree_two(self):
        inst = lower_bound.generate(2, 2)
        report = price_of_anarchy(inst.game)
        assert report.poa == Fraction(2, 1)
        assert inst.num_resources == 8
        assert 8 ** (1 / 3) == pytest.approx(2.0)

    def test_report_dict_fields(self):
        inst = lower_bound.generate(2, 1)
        payload = price_of_anarchy(inst.game).to_dict()
        assert set(payload) == {
            "C", "C_star", "poa_num", "poa_den", "nash_count",
            "worst_nash_choice", "optimal_choice",
        }

    def test_worst_nash_is_actually_worst(self, rng):
        for _ in range(20):
            game = generators.random_game(rng)
            report = price_of_anarchy(game)
            worst = max(
                max(congestion_of(game, p)) for p in oracle_nash_profiles(game)
            )
            assert report.C == worst
            assert oracle_is_nash(game, report.worst_nash)
