"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; every tolerance is exact unless stated otherwise.
"""

import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from polybottleneck import equilibria, expansion, generators, lower_bound, transform
from polybottleneck.game_core import bottleneck, congestion_of, switch_cost
from polybottleneck.transform import greedy_cover_pairs

from conftest import oracle_is_nash, stable_from_scratch


def _report(name: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.2f}s"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # one-time JIT compilation must not count against the runtime budgets
    inst = lower_bound.generate(2, 1)
    equilibria.price_of_anarchy(inst.game)


@pytest.fixture(scope="module")
def random_games_200():
    rng = np.random.default_rng(2024)
    return [generators.random_game(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def forced_games_50():
    games = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        degree = 1 if seed % 2 == 0 else 2
        games.append(generators.forced_congestion_game(rng, degree=degree))
    return games


@pytest.fixture(scope="module")
def transformed_50(forced_games_50):
    out = []
    for game, s_eq, s_opt in forced_games_50:
        tsg = transform.transform_to_singletons(game, s_eq, s_opt)
        out.append((game, s_eq, s_opt, tsg))
    return out


def test_criterion_1_lower_bound_exactness():
    start = time.monotonic()
    checked = 0
    for degree in (1, 2, 3):
        for n in (2, 3, 4):
            if n ** (degree + 1) > 10**4:
                continue
            inst = lower_bound.generate(n, degree)
            assert equilibria.is_nash(inst.game, inst.state_all_direct)
            assert bottleneck(congestion_of(inst.game, inst.state_all_direct)) == n
            assert bottleneck(congestion_of(inst.game, inst.state_all_paths)) == 1
            report = equilibria.price_of_anarchy(inst.game)
            assert report.poa == Fraction(n, 1), (n, degree, report.poa)
            checked += 1
    elapsed = time.monotonic() - start
    _report("1 lower-bound exactness", checked == 9, elapsed, 1.0,
            f"{checked} instances, PoA == n exactly")


def test_criterion_2_scaling_exponent():
    start = time.monotonic()
    worst = 0.0
    for degree, ns in [(1, range(2, 7)), (2, range(2, 5))]:
        sizes, poas = [], []
        for n in ns:
            inst = lower_bound.generate(n, degree)
            report = lower_bound.verify(inst)
            sizes.append(inst.num_resources)
            poas.append(report.poa.numerator / report.poa.denominator)
        slope = np.polyfit(np.log(sizes), np.log(poas), 1)[0]
        worst = max(worst, abs(slope - 1 / (degree + 1)))
    elapsed = time.monotonic() - start
    _report("2 scaling exponent", worst < 0.01, elapsed, 5.0,
            f"max slope deviation {worst:.2e} (tolerance 0.01)")


def test_criterion_3_upper_bound_inequality(random_games_200):
    start = time.monotonic()
    games = nash_total = 0
    for game in random_games_200:
        _, c_star = equilibria.optimal_profile(game)
        for profile in equilibria.enumerate_nash(game):
            c = bottleneck(congestion_of(game, profile))
            assert expansion.poa_within_general_bound(
                c, c_star, game.num_resources, game.degree
            ), (game, profile)
            nash_total += 1
        games += 1
    elapsed = time.monotonic() - start
    _report("3 upper-bound inequality", games == 200, elapsed, 30.0,
            f"{nash_total} equilibria across {games} games within the exact bound")


def test_criterion_4_potential_convergence(random_games_200):
    start = time.monotonic()
    runs = 0
    rng = np.random.default_rng(4096)
    for game in random_games_200:
        for _ in range(5):
            profile = [int(rng.integers(0, len(s))) for s in game.strategies]
            start_profile = tuple(profile)
            budget = equilibria.rosenthal_potential(game, start_profile)
            moves = 0
            stable = 0
            player = 0
            # explicit walk so each move's potential drop is checked here
            while stable < game.num_players:
                counts = congestion_of(game, tuple(profile))
                current = game.strategies[player][profile[player]]
                cur = switch_cost(counts, current, current, game.degree)
                best = equilibria.best_response(game, tuple(profile), player)
                best_cost = switch_cost(
                    counts, current, game.strategies[player][best], game.degree
                )
                if best_cost < cur:
                    phi_before = equilibria.rosenthal_potential(game, tuple(profile))
                    profile[player] = best
                    phi_after = equilibria.rosenthal_potential(game, tuple(profile))
                    assert phi_before - phi_after == cur - best_cost
                    moves += 1
                    stable = 0
                else:
                    stable += 1
                player = (player + 1) % game.num_players
            assert moves <= budget
            assert oracle_is_nash(game, tuple(profile))
            # the library walk from the same start must converge within the
            # same potential budget to a state the oracle accepts
            report = equilibria.best_response_dynamics(
                game, start_profile, max_steps=budget + 1
            )
            assert report.moves <= budget
            assert report.profile == tuple(profile)
            assert oracle_is_nash(game, report.profile)
            runs += 1
    elapsed = time.monotonic() - start
    _report("4 potential convergence", runs == 1000, elapsed, 30.0,
            f"{runs} dynamics runs, moves <= potential, exact potential drops")


def test_criterion_5_partition_properties():
    start = time.monotonic()
    rng = np.random.default_rng(555)
    checked = 0
    while checked < 1000:
        degree = int(rng.integers(1, 4))
        eq = [(100 + j, int(rng.integers(1, 10)))
              for j in range(int(rng.integers(1, 7)))]
        needs = sum(c**degree for _, c in eq)
        opt = []
        j = 0
        while sum((c + 1) ** degree for _, c in opt) < needs:
            opt.append((200 + j, int(rng.integers(0, 10))))
            j += 1
        pairs = greedy_cover_pairs(eq, opt, degree)
        cong = dict(eq) | dict(opt)
        # (a) played sides disjointly cover the equilibrium strategy
        played = [r for p in pairs for r in p.eq_part]
        assert sorted(played) == sorted(r for r, _ in eq)
        for p in pairs:
            # (b) cover inequality, exact integers
            assert (
                sum((cong[r] + 1) ** degree for r in p.opt_part)
                >= sum(cong[r] ** degree for r in p.eq_part)
            )
            # (c) a singleton side in every pair
            assert len(p.eq_part) == 1 or len(p.opt_part) == 1
            if len(p.eq_part) > 1:
                assert cong[p.opt_part[0]] >= max(cong[r] for r in p.eq_part)
        # (d) consecutive overlap at most one resource
        for a, b in zip(pairs, pairs[1:]):
            assert len(set(a.opt_part) & set(b.opt_part)) <= 1
        # (e) no tracked resource in more than two pairs
        usage = Counter(r for p in pairs for r in set(p.opt_part))
        assert all(v <= 2 for v in usage.values())
        checked += 1
    elapsed = time.monotonic() - start
    _report("5 partition properties", checked == 1000, elapsed, 5.0,
            f"{checked} random partitions satisfy cover/overlap/usage rules")


def test_criterion_6_transformation_postconditions(transformed_50):
    start = time.monotonic()
    count = 0
    for game, s_eq, s_opt, tsg in transformed_50:
        # equilibrium congestion vector unchanged
        assert np.array_equal(tsg.eq_congestion(), congestion_of(game, s_eq))
        # resources above the threshold host only singleton players
        for p in tsg.players.values():
            if not p.is_singleton:
                for r in p.eq_strategy:
                    assert int(tsg.eq_congestion()[r]) <= tsg.threshold
        # every player still stable, recounted from the roster (independent check)
        assert stable_from_scratch(tsg)
        # tracked optimal bottleneck within 7x
        original = bottleneck(congestion_of(game, s_opt))
        assert tsg.tracked_opt_bottleneck() <= 7 * original
        count += 1
    elapsed = time.monotonic() - start
    _report("6 transformation postconditions", count == 50, elapsed, 60.0,
            f"{count} forced games: congestion preserved, stability kept, growth <= 7x")


def test_criterion_7_expansion_inequality(transformed_50):
    start = time.monotonic()
    graphs = nodes = 0
    for game, s_eq, s_opt, tsg in transformed_50:
        rg = expansion.build_resource_graph(tsg)
        assert rg.v1, "forced games must have resources above the threshold"
        for x in sorted(rg.v1):
            _, _, holds = expansion.check_expansion(rg, x)
            assert holds, (x, rg.congestion[x])
            nodes += 1
        root = max(rg.v1, key=lambda r: (int(rg.congestion[r]), -r))
        count, holds = expansion.descendant_count_check(rg, root)
        assert holds
        assert count <= rg.num_resources - 1
        graphs += 1
    elapsed = time.monotonic() - start
    _report("7 expansion inequality", graphs == 50, elapsed, 10.0,
            f"{nodes} high nodes across {graphs} graphs satisfy the expansion bound")
