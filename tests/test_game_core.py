import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybottleneck import lower_bound
from polybottleneck.equilibria import is_nash
from polybottleneck.errors import GameFormatError, InvalidProfileError
from polybottleneck.game_core import (
    Game,
    bottleneck,
    congestion_of,
    delay,
    game_from_dict,
    game_to_dict,
    load_game,
    player_cost,
    power_table,
    save_game,
    switch_cost,
    validate_profile,
)

from conftest import (
    oracle_congestion,
    oracle_is_nash,
    oracle_player_cost,
    oracle_power,
)


def small_games(max_players=4):
    """Hypothesis strategy producing small valid games."""

    @st.composite
    def build(draw):
        z = draw(st.integers(2, 5))
        degree = draw(st.integers(1, 3))
        n = draw(st.integers(1, max_players))
        players = []
        for _ in range(n):
            k = draw(st.integers(1, 3))
            strategies = []
            for _ in range(k):
                size = draw(st.integers(1, min(3, z)))
                strategies.append(draw(st.permutations(range(z)))[:size])
            players.append(strategies)
        return Game.build(z, degree, players)

    return build()


def any_profile(game, draw_ints):
    return tuple(draw_ints[i] % len(game.strategies[i]) for i in range(game.num_players))


class TestCongestion:
    def test_disjoint_players_stay_below_one(self):
        game = Game.build(3, 1, [[[0]], [[1]], [[2]]])
        counts = congestion_of(game, (0, 0, 0))
        assert max(counts) <= 1

    def test_shared_edge_counts_all_users(self):
        inst = lower_bound.generate(4, 1)
        counts = congestion_of(inst.game, inst.state_all_direct)
        assert counts[0] == 4
        assert max(counts[1:]) == 0

    def test_matches_recount_oracle(self, rng):
        game = Game.build(4, 2, [
            [[0, 1], [2]],
            [[1, 2], [3], [0, 3]],
            [[2], [0, 1, 3]],
        ])
        for _ in range(20):
            profile = tuple(int(rng.integers(0, len(s))) for s in game.strategies)
            assert list(congestion_of(game, profile)) == oracle_congestion(game, profile)

    def test_invalid_profile_rejected(self):
        game = Game.build(2, 1, [[[0], [1]]])
        with pytest.raises(InvalidProfileError):
            congestion_of(game, (2,))
        with pytest.raises(InvalidProfileError):
            congestion_of(game, (0, 0))
        # A choice must be an integer: a float or a bool would index as one,
        # and a string would reach the range comparison.
        game = Game.build(3, 1, [[[0], [1]], [[0], [2]]])
        for bad in ([0.7, 1], [True, 0], ["a", 0]):
            with pytest.raises(InvalidProfileError, match="is not an integer"):
                validate_profile(game, bad)
        assert validate_profile(game, np.array([1, 0])) == (1, 0)


class TestBottleneck:
    def test_zero_vector(self):
        assert bottleneck(np.zeros(4, dtype=np.int64)) == 0
        assert bottleneck(np.zeros(0, dtype=np.int64)) == 0

    def test_family_states(self):
        inst = lower_bound.generate(4, 1)
        assert bottleneck(congestion_of(inst.game, inst.state_all_direct)) == 4
        assert bottleneck(congestion_of(inst.game, inst.state_all_paths)) == 1


class TestDelay:
    def test_zero_congestion(self):
        for m in (1, 2, 5):
            assert delay(0, m) == 0

    def test_direct_powers(self):
        assert delay(4, 1) == 4
        assert delay(4, 2) == 16

    def test_matches_repeated_multiplication(self):
        assert delay(12, 3) == oracle_power(12, 3) == 1728
        for c in range(10):
            for m in range(1, 6):
                assert delay(c, m) == oracle_power(c, m)

    def test_wide_values_are_exact(self):
        # far beyond 64-bit width
        assert delay(3000, 8) == 3000**8

    def test_strictly_increasing_in_congestion(self):
        for m in (1, 2, 3, 8):
            values = [delay(c, m) for c in range(6)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            delay(-1, 1)
        with pytest.raises(ValueError):
            delay(2, 0)


class TestPowerTable:
    def test_negative_count_raises_like_delay(self):
        power_table(2, 10)  # index -1 of this list would read 10**2
        with pytest.raises(ValueError) as from_delay:
            delay(-1, 2)
        for counts in ([-1], np.array([-1])):
            with pytest.raises(ValueError) as from_switch:
                switch_cost(counts, (0,), (0,), 2)
            assert str(from_switch.value) == str(from_delay.value)
        with pytest.raises(ValueError) as from_table:
            power_table(2, -1)
        assert str(from_table.value) == str(from_delay.value)

    def test_bad_degree_raises_like_delay(self):
        with pytest.raises(ValueError) as from_delay:
            delay(0, 0)
        with pytest.raises(ValueError) as from_switch:
            switch_cost([1], (), (0,), 0)
        assert str(from_switch.value) == str(from_delay.value)

    @settings(max_examples=30, deadline=None)
    @given(small_games(max_players=6), st.integers(1, 41), st.data())
    def test_costs_and_nash_match_oracle_at_any_degree(self, shape, drawn, data):
        # Degrees 1, 30, 1 in turn: one table per degree, so a lookup at
        # degree 1 after degree 30 must not read a degree-30 entry.
        profile = tuple(data.draw(st.integers(0, len(s) - 1)) for s in shape.strategies)
        wide = data.draw(st.lists(st.integers(0, 60), min_size=shape.num_resources,
                                  max_size=shape.num_resources))
        for degree in (1, 30, 1, drawn):
            game = Game(shape.num_resources, degree, shape.strategies)
            counts = congestion_of(game, profile)
            for i in range(game.num_players):
                current = game.chosen(profile, i)
                for s, target in enumerate(game.strategies[i]):
                    moved = profile[:i] + (s,) + profile[i + 1:]
                    expected = oracle_player_cost(game, moved, i)
                    assert switch_cost(counts, current, target, degree) == expected
                    assert switch_cost(np.array(counts), current, target, degree) == expected
                    # counts up to 61: entries far beyond int64 at degree >= 11
                    assert switch_cost(wide, current, target, degree) == sum(
                        oracle_power(wide[r] + (r not in current), degree) for r in target
                    )
            assert is_nash(game, profile) == oracle_is_nash(game, profile)
            assert switch_cost([40], (), (0,), degree) == oracle_power(41, degree)
        assert oracle_power(41, 30) > 2**63


class TestPlayerCost:
    def test_single_player_single_resource(self):
        for m in (1, 3, 7):
            game = Game.build(1, m, [[[0]]])
            assert player_cost(game, (0,), 0) == 1

    def test_family_direct_cost(self):
        inst = lower_bound.generate(4, 1)
        for i in range(4):
            assert player_cost(inst.game, inst.state_all_direct, i) == 4

    def test_family_deviation_cost(self):
        # degree 2, 3 players: a detour has 9 resources at congestion 1
        inst = lower_bound.generate(3, 2)
        profile = list(inst.state_all_direct)
        profile[1] = 1
        assert player_cost(inst.game, tuple(profile), 1) == 9

    def test_unknown_player_rejected(self):
        game = Game.build(1, 1, [[[0]]])
        with pytest.raises(InvalidProfileError):
            player_cost(game, (0,), 3)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_games(), st.data())
    def test_congestion_conservation(self, game, data):
        profile = tuple(
            data.draw(st.integers(0, len(s) - 1)) for s in game.strategies
        )
        counts = congestion_of(game, profile)
        incidences = sum(len(game.chosen(profile, i)) for i in range(game.num_players))
        assert sum(counts) == incidences

    @settings(max_examples=40, deadline=None)
    @given(small_games(), st.data())
    def test_costs_match_oracle(self, game, data):
        profile = tuple(
            data.draw(st.integers(0, len(s) - 1)) for s in game.strategies
        )
        for i in range(game.num_players):
            assert player_cost(game, profile, i) == oracle_player_cost(game, profile, i)

    @settings(max_examples=40, deadline=None)
    @given(small_games(), st.data())
    def test_switch_cost_is_cost_after_the_move(self, game, data):
        profile = tuple(
            data.draw(st.integers(0, len(s) - 1)) for s in game.strategies
        )
        counts = congestion_of(game, profile)
        for i in range(game.num_players):
            current = game.chosen(profile, i)
            for s, target in enumerate(game.strategies[i]):
                moved = profile[:i] + (s,) + profile[i + 1:]
                expected = oracle_player_cost(game, moved, i)
                assert switch_cost(counts, current, target, game.degree) == expected
            # joining on top of everyone else: every resource gets one more user
            others = oracle_congestion(game, profile)
            joined = sum(oracle_power(others[r] + 1, game.degree) for r in current)
            assert switch_cost(counts, (), current, game.degree) == joined

    def test_adding_a_player_never_lowers_costs(self, rng):
        base = Game.build(3, 2, [[[0, 1], [2]], [[1], [0, 2]]])
        extended = Game.build(3, 2, [[[0, 1], [2]], [[1], [0, 2]], [[0], [1, 2]]])
        for profile in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            for extra in (0, 1):
                for i in range(2):
                    assert (
                        player_cost(extended, profile + (extra,), i)
                        >= player_cost(base, profile, i)
                    )


def reference_normalize(raw, num_resources, where):
    """Strategy validation as it was before the error location became lazy."""
    resources = list(raw)
    if not resources:
        raise GameFormatError(f"{where}: empty strategy")
    for r in resources:
        if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
            raise GameFormatError(f"{where}: resource id {r!r} is not an integer")
        if r < 0 or r >= num_resources:
            raise GameFormatError(
                f"{where}: resource id {r} out of range [0, {num_resources})"
            )
    if len(set(resources)) != len(resources):
        raise GameFormatError(f"{where}: duplicate resource in strategy {sorted(resources)}")
    return tuple(sorted(int(r) for r in resources))


def raw_resource_ids(num_resources):
    """Mostly valid ids, plain or numpy, with bools, floats, negatives and
    out-of-range ids mixed in."""
    valid = st.integers(0, num_resources - 1)
    ids = st.integers(-2, num_resources + 1)
    return st.one_of(valid, valid.map(np.int64), valid, ids, ids.map(np.int64),
                     st.booleans(), st.floats(-2, num_resources + 1))


class TestGameFormat:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_build_matches_reference_validation(self, data):
        # One drawn strategy, as strategy s of player i; every other one is valid.
        z = data.draw(st.integers(1, 5))
        raw = data.draw(st.lists(raw_resource_ids(z), max_size=4))
        i, s = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        players = [[[0]]] * i + [[[0]] * s + [raw]]
        try:
            expected = tuple(
                tuple(reference_normalize(strategy, z, f"player {i} strategy {s}")
                      for s, strategy in enumerate(strat_set))
                for i, strat_set in enumerate(players)
            )
        except GameFormatError as exc:
            with pytest.raises(GameFormatError) as caught:
                Game.build(z, 1, players)
            assert str(caught.value) == str(exc)
        else:
            built = Game.build(z, 1, players).strategies
            assert built == expected
            assert all(type(r) is int for strat_set in built for s in strat_set for r in s)

    @pytest.mark.parametrize("field, problem", [
        pytest.param({"num_resources": 0}, "num_resources must be >= 1", id="no_resources"),
        pytest.param({"degree": 0}, "degree must be >= 1", id="degree_zero"),
        pytest.param({"strategies": ()}, "at least one player", id="no_players"),
        pytest.param({"strategies": (((0,),), ())}, "player 1: empty strategy set",
                     id="empty_strategy_set"),
    ])
    def test_game_checks_its_fields(self, field, problem):
        # Built directly, past Game.build and the file checks.
        fields = {"num_resources": 2, "degree": 1, "strategies": (((0,), (1,)),)}
        Game(**fields)
        with pytest.raises(GameFormatError, match=problem):
            Game(**{**fields, **field})

    def test_round_trip(self, tmp_path):
        game = Game.build(4, 2, [[[0, 1], [2]], [[3], [1, 2]]])
        path = str(tmp_path / "game.json")
        save_game(game, path)
        assert load_game(path) == game

    def test_dict_round_trip(self):
        game = Game.build(2, 1, [[[0], [1]]])
        assert game_from_dict(game_to_dict(game)) == game

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(GameFormatError, match="out of range"):
            game_from_dict({"degree": 1, "num_resources": 2, "players": [[[0, 2]]]})

    def test_rejects_empty_strategy(self):
        with pytest.raises(GameFormatError, match="empty strategy"):
            game_from_dict({"degree": 1, "num_resources": 2, "players": [[[]]]})

    def test_rejects_bad_degree(self):
        with pytest.raises(GameFormatError, match="degree"):
            game_from_dict({"degree": 0, "num_resources": 2, "players": [[[0]]]})

    def test_rejects_duplicate_resource_in_strategy(self):
        with pytest.raises(GameFormatError, match="duplicate"):
            Game.build(2, 1, [[[0, 0]]])

    def test_rejects_empty_players(self):
        with pytest.raises(GameFormatError, match="players"):
            game_from_dict({"degree": 1, "num_resources": 2, "players": []})

    def test_rejects_garbage_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(GameFormatError, match="invalid JSON"):
            load_game(str(path))

    def test_rejects_missing_field(self):
        with pytest.raises(GameFormatError, match="num_resources"):
            game_from_dict({"degree": 1, "players": [[[0]]]})

    def test_file_output_is_stable(self, tmp_path):
        game = Game.build(2, 1, [[[0], [1]]])
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_game(game, a)
        save_game(game, b)
        assert Path(a).read_text() == Path(b).read_text()
        json.loads(Path(a).read_text())
