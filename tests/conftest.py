"""Shared fixtures and independent brute-force oracles.

The oracles recompute everything from the raw game definition with plain
loops and repeated multiplication; they never call the code paths they are
used to check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from polybottleneck.game_core import Game


def oracle_power(base: int, exponent: int) -> int:
    out = 1
    for _ in range(exponent):
        out *= base
    return out


def oracle_congestion(game: Game, profile) -> list[int]:
    counts = []
    for r in range(game.num_resources):
        used = 0
        for i, choice in enumerate(profile):
            if r in game.strategies[i][choice]:
                used += 1
        counts.append(used)
    return counts


def oracle_player_cost(game: Game, profile, player: int) -> int:
    counts = oracle_congestion(game, profile)
    return sum(oracle_power(counts[r], game.degree)
               for r in game.strategies[player][profile[player]])


def oracle_potential(game: Game, profile) -> int:
    counts = oracle_congestion(game, profile)
    return sum(oracle_power(j, game.degree) for c in counts for j in range(1, c + 1))


def oracle_best_response(game: Game, profile, player: int) -> int:
    best_idx, best_cost = None, None
    for s in range(len(game.strategies[player])):
        trial = list(profile)
        trial[player] = s
        cost = oracle_player_cost(game, trial, player)
        if best_cost is None or cost < best_cost:
            best_idx, best_cost = s, cost
    return best_idx


def oracle_is_nash(game: Game, profile) -> bool:
    for i in range(game.num_players):
        cur = oracle_player_cost(game, profile, i)
        for s in range(len(game.strategies[i])):
            if s == profile[i]:
                continue
            trial = list(profile)
            trial[i] = s
            if oracle_player_cost(game, trial, i) < cur:
                return False
    return True


def oracle_all_profiles(game: Game):
    return itertools.product(*[range(len(s)) for s in game.strategies])


def oracle_optimal(game: Game) -> tuple[tuple, int]:
    best, best_c = None, None
    for profile in oracle_all_profiles(game):
        c = max(oracle_congestion(game, profile))
        if best_c is None or c < best_c:
            best, best_c = profile, c
    return best, best_c


def oracle_nash_profiles(game: Game) -> list[tuple]:
    return [p for p in oracle_all_profiles(game) if oracle_is_nash(game, p)]


def oracle_poa(game: Game) -> tuple[int, int, int, tuple, tuple]:
    """(C, C*, Nash count, worst Nash profile, optimal profile) over every
    profile; ties go to the lexicographically first profile."""
    nash = oracle_nash_profiles(game)
    worst = max(nash, key=lambda p: (max(oracle_congestion(game, p)), [-c for c in p]))
    optimal, c_star = oracle_optimal(game)
    return max(oracle_congestion(game, worst)), c_star, len(nash), worst, optimal


def stable_from_scratch(tsg):
    """Every player's stability, recomputed from the roster alone: neither the
    workspace's congestion vector nor its cost rule is used."""
    counts = [0] * tsg.num_resources
    for p in tsg.players.values():
        for r in p.eq_strategy:
            counts[r] += 1

    def paid(strategy, current):
        return sum(oracle_power(counts[r] + (r not in current), tsg.degree) for r in strategy)

    return all(
        not p.opt_strategy
        or paid(p.eq_strategy, p.eq_strategy) <= paid(p.opt_strategy, p.eq_strategy)
        for p in tsg.players.values()
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
