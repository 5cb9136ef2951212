"""Seeded game generators for the randomized verification suites."""

from __future__ import annotations

import itertools

import numpy as np

from . import equilibria
from .errors import StructuralError, UsageError
from .game_core import Game, Profile, bottleneck, congestion_of


def random_game(
    rng: np.random.Generator,
    max_players: int = 4,
    max_resources: int = 6,
    max_strategies: int = 3,
    degrees: tuple[int, ...] = (1, 2, 3),
) -> Game:
    """Small random game: 2..max players, strategies are uniform nonempty
    resource subsets of size at most 3."""
    for name, value in (("max_players", max_players), ("max_resources", max_resources),
                        ("max_strategies", max_strategies)):
        if value < 2:
            raise UsageError(f"{name} must be at least 2, got {value}")
    n = int(rng.integers(2, max_players + 1))
    z = int(rng.integers(2, max_resources + 1))
    degree = int(rng.choice(np.asarray(degrees)))
    players = []
    for _ in range(n):
        k = int(rng.integers(2, max_strategies + 1))
        strategies = []
        for _ in range(k):
            size = int(rng.integers(1, min(3, z) + 1))
            picks = rng.choice(z, size=size, replace=False)
            strategies.append(sorted(int(r) for r in picks))
        players.append(strategies)
    return Game.build(num_resources=z, degree=degree, players=players)


def forced_congestion_game(
    rng: np.random.Generator,
    degree: int,
) -> tuple[Game, Profile, Profile]:
    """Two-strategy game whose equilibrium bottleneck exceeds the
    transformation threshold, with optimal bottleneck exactly 1.

    Structure: a shared hub resource crowded past the threshold, with every
    hub player exactly indifferent to a private detour; optionally a second,
    lower hub plus mid-congestion resources hosting a multi-resource player
    whose tracked strategy is pinned to the second hub (this exercises the
    donor-marking rounds of the transformation).  Returns the game, the
    all-first-strategy equilibrium state, and the all-detour optimal state.
    """
    m = int(degree)
    thr = max(2 * m, 3)  # optimal bottleneck is 1 by construction
    hub_users = int(rng.integers(thr + 1, thr + 4))
    ids = itertools.count()  # fresh resource ids, in order of use

    def take(count: int = 1) -> list[int]:
        return list(itertools.islice(ids, count))

    (hub,) = take()

    # eq_strategies[i] built first; detours sized afterwards from the final
    # congestion counts so every player is exactly indifferent.
    eq_strategies: list[list[int]] = []

    for _ in range(hub_users):
        roll = rng.random()
        if roll < 0.45:
            extras = 0
        elif roll < 0.75:
            extras = 1
        else:
            extras = 2
        if m >= 2 and rng.random() < 0.25:
            # Heavy player: cost beyond (bottleneck+1)**degree, so it is
            # rewritten before the phase loop even starts.
            extras = (hub_users + 1) ** m - hub_users**m + int(rng.integers(1, 4))
        eq_strategies.append([hub] + take(extras))

    if rng.random() < 0.7 and hub_users - 1 > thr:
        # Second hub at a lower congestion level with its own singleton
        # players, plus one multi player pinned to it.
        level2 = int(rng.integers(thr + 1, hub_users))
        (second_hub,) = take()
        for _ in range(level2):
            eq_strategies.append([second_hub])
        pinned_eq: list[int] = []
        if m == 1:
            # mid congestions level2-1 and 2: cost = level2 + 1, in band
            mid_a, mid_b = take(2)
            for _ in range(level2 - 2):
                eq_strategies.append([mid_a])
            eq_strategies.append([mid_b])
            pinned_eq = [mid_a, mid_b]
        else:
            # one mid at level2-1 plus private units filling the cost band
            (mid_a,) = take()
            for _ in range(level2 - 2):
                eq_strategies.append([mid_a])
            target = level2**m + 1 + int(rng.integers(0, 2 * level2))
            ones = target - (level2 - 1) ** m
            pinned_eq = [mid_a] + take(ones)
        pinned = pinned_eq
        eq_strategies.append(pinned)
        pinned_index = len(eq_strategies) - 1
        pinned_opt = [second_hub]
    else:
        pinned_index = None
        pinned_opt = []

    # Final congestion counts of the all-first-strategy state.
    counts: dict[int, int] = {}
    for strat in eq_strategies:
        for r in strat:
            counts[r] = counts.get(r, 0) + 1

    players = []
    for i, strat in enumerate(eq_strategies):
        if i == pinned_index:
            players.append([sorted(strat), pinned_opt])
            continue
        cost = sum(counts[r] ** m for r in strat)
        players.append([sorted(strat), take(cost)])

    game = Game.build(num_resources=next(ids), degree=m, players=players)
    state_eq = tuple([0] * len(players))
    state_opt = tuple([1] * len(players))

    # The construction is exactly indifferent; fail loudly if assembly broke it.
    if not equilibria.is_nash(game, state_eq):
        raise StructuralError("forced game is not in equilibrium")
    if bottleneck(congestion_of(game, state_opt)) != 1:
        raise StructuralError("forced game has optimal bottleneck above 1")
    if bottleneck(congestion_of(game, state_eq)) <= thr:
        raise StructuralError(f"forced game equilibrium bottleneck is not above {thr}")
    return game, state_eq, state_opt
