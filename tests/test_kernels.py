import collections
import copy
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polybottleneck import equilibria, generators, kernels, lower_bound
from polybottleneck.cli import main
from polybottleneck.errors import PreconditionError
from polybottleneck.game_core import Game, power_table, save_game

from conftest import oracle_all_profiles, oracle_congestion, oracle_is_nash, oracle_poa


def scan_all(enc, fn):
    chunks = []
    for start in range(0, enc.num_orbits, 7):  # odd chunk size on purpose
        stop = min(start + 7, enc.num_orbits)
        chunks.append(fn(enc, start, stop))
    return np.concatenate(chunks)


# Scalar loop form of the scan, kept as a reference for the vectorized
# kernel: congestion is recounted for every profile, and each deviation adds
# one user only on resources the player does not already use.

def bottlenecks_loop(counts, weights, player_ptr, strat_ptr, strat_res, z, start, stop):
    n = counts.shape[0]
    out = np.zeros(stop - start, dtype=np.int64)
    cong = np.zeros(z, dtype=np.int64)
    for k in range(stop - start):
        idx = start + k
        for r in range(z):
            cong[r] = 0
        for i in range(n):
            c = (idx // weights[i]) % counts[i]
            row = player_ptr[i] + c
            for e in range(strat_ptr[row], strat_ptr[row + 1]):
                cong[strat_res[e]] += 1
        best = 0
        for r in range(z):
            if cong[r] > best:
                best = cong[r]
        out[k] = best
    return out


def nash_mask_loop(counts, weights, player_ptr, strat_ptr, strat_res, pow_table, z, start, stop):
    n = counts.shape[0]
    out = np.ones(stop - start, dtype=np.bool_)
    cong = np.zeros(z, dtype=np.int64)
    used = np.zeros(z, dtype=np.bool_)
    for k in range(stop - start):
        idx = start + k
        for r in range(z):
            cong[r] = 0
        for i in range(n):
            c = (idx // weights[i]) % counts[i]
            row = player_ptr[i] + c
            for e in range(strat_ptr[row], strat_ptr[row + 1]):
                cong[strat_res[e]] += 1
        ok = True
        for i in range(n):
            c = (idx // weights[i]) % counts[i]
            row = player_ptr[i] + c
            cur = np.int64(0)
            for e in range(strat_ptr[row], strat_ptr[row + 1]):
                r = strat_res[e]
                used[r] = True
                cur += pow_table[cong[r]]
            for s in range(counts[i]):
                if s == c:
                    continue
                alt = player_ptr[i] + s
                dev = np.int64(0)
                for e in range(strat_ptr[alt], strat_ptr[alt + 1]):
                    r = strat_res[e]
                    if used[r]:
                        dev += pow_table[cong[r]]
                    else:
                        dev += pow_table[cong[r] + 1]
                if dev < cur:
                    ok = False
                    break
            for e in range(strat_ptr[row], strat_ptr[row + 1]):
                used[strat_res[e]] = False
            if not ok:
                break
        out[k] = ok
    return out


def reference_deviations(game):
    """Each type's (alt, private) as built through one game-wide table: every
    strategy ghost-padded to the game's longest shared part, then each type's
    rows, those of its first member, cut to the type's width and transposed."""
    flat = [s for strat_set in game.strategies for s in strat_set]
    holders = collections.Counter(r for strat_set in game.strategies
                                  for r in set(itertools.chain(*strat_set)))
    compact = {r: j for j, r in enumerate(sorted(r for r, c in holders.items() if c > 1))}
    z = len(compact)
    rows = [[compact[r] for r in s if r in compact] for s in flat]
    private = [len(s) - len(row) for s, row in zip(flat, rows)]
    max_len = max(map(len, rows))
    table = np.array([row + [z] * (max_len - len(row)) for row in rows],
                     dtype=np.int64).reshape(len(rows), max_len)
    starts = list(itertools.accumulate(map(len, game.strategies), initial=0))
    first = {}
    for p0, p1 in zip(starts, starts[1:]):
        first.setdefault((tuple(map(tuple, rows[p0:p1])), tuple(private[p0:p1])), p0)
    out = []
    for (type_rows, priv), p0 in first.items():
        k, width = len(priv), max(map(len, type_rows))
        out.append((table[p0:p0 + k, :width].T.copy(), None if min(priv) == max(priv)
                    else np.array(priv, dtype=np.int64)[:, None]))
    return out


def assert_deviations_match_reference(game):
    enc = kernels.encode_game(game)
    expected = reference_deviations(game)
    assert len(enc.deviations) == len(expected) == len(enc.members)
    for (alt, private), (ref_alt, ref_private) in zip(enc.deviations, expected):
        assert alt.dtype == ref_alt.dtype and alt.shape == ref_alt.shape
        assert alt.flags.c_contiguous and np.array_equal(alt, ref_alt)
        assert (private is None) == (ref_private is None)
        if private is not None:
            assert private.dtype == ref_private.dtype and private.shape == ref_private.shape
            assert np.array_equal(private, ref_private)


def array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v) for v in value)
    return 0


# Most have twelve states or more, so the chunks of 7 cross a boundary.
EDGE_GAMES = {
    # strategies of unequal length: rows are padded with the ghost id
    "unequal_lengths": Game.build(
        6, 2, [[[0], [1, 2, 3]], [[1, 2], [4], [0, 5]], [[3], [0, 1, 4, 5]]]
    ),
    # one player's strategies overlap, so deviations keep some resources
    "shared_within_player": Game.build(
        4, 1, [[[0, 1], [1, 2], [0, 2]], [[1], [2, 3]], [[0, 1, 2], [3]]]
    ),
    # most resource ids are never used and get compacted away
    "unused_ids": Game.build(
        50, 3, [[[3, 42], [17]], [[17], [42], [3, 49]], [[42], [3, 17]]]
    ),
    # delays overflow int64: the exact object-dtype path
    "object_path": Game.build(
        7, 41, [[[0], [1, 2]], [[1], [0, 3, 4]], [[2, 5], [6], [0]]]
    ),
    # player 0's strategies overlap and differ in length, so a current row
    # with ghost slots shares a resource with an alternative
    "overlap_with_ghost_slots": Game.build(
        4, 2, [[[0], [0, 1], [1, 2, 3]], [[0, 2], [3]], [[1], [2]]]
    ),
    # private resources 5 and 6 of player 0 each sit in two of its
    # strategies, so a deviation may keep some of them
    "private_in_several_strategies": Game.build(
        8, 2, [[[0, 5], [5, 6], [1, 6, 7]], [[0], [1, 2]], [[2, 3], [4]]]
    ),
    # every resource is private: the encoded table has zero width
    "no_shared_resource": Game.build(
        10, 2, [[[0], [1, 2]], [[3], [4], [5, 6, 7]], [[8], [8, 9]]]
    ),
    # exact object-dtype path with long private detours beside the shared hops
    "object_path_private_detours": Game.build(
        40, 41, [[[0], list(range(10, 22))], [[0], [1], list(range(22, 34))],
                 [[0, 1], list(range(34, 40)) + [1]]]
    ),
    # no shared resource, and delays past int64 (2**63, 3**41): a zero-width
    # table must not let the delay table itself through the int64 guard
    "object_path_no_shared_single_player": Game.build(3, 63, [[[0], [1, 2]]]),
    "object_path_no_shared_two_players": Game.build(
        5, 41, [[[0], [1, 2]], [[3], [4], [3, 4]]]
    ),
    # Costs above 2**53, where float64 sums round (degree 24, 10 players).
    # Player 0 ties exactly: 5**24 plus 5 private hops against 5**24 plus
    # five shared hops nobody uses, once 4 of the type on [[0], [11]] sit on
    # resource 0 and player 9 sits on its own resource 12.  Summed in slot
    # order, the five 1s vanish into 5**24 but the private 5 rounds it up.
    "object_path_exact_tie": Game.build(
        13, 24, [[[0, 6, 7, 8, 9, 10], [0, 1, 2, 3, 4, 5]]] + [[[0], [11]]] * 8
        + [[[1, 2, 3, 4, 5], [12]]]
    ),
    # Player 0 on [1, 2] pays 5**24 + 1 with 4 others on each of resources
    # 0 and 1: one more than [0], a difference float64 loses.
    "object_path_differ_by_one": Game.build(3, 24, [[[0], [1, 2]]] + [[[0], [1]]] * 8),
    # 5**700 overflows float64: the scan stays in exact integers
    "object_path_float_overflow": Game.build(
        3, 700, [[[0], [1]], [[1], [2]], [[0], [2]], [[0], [1], [2]]]
    ),
    # a three-strategy type of three members interleaved with a two-member
    # type: compositions hold one, two or three distinct strategies
    "three_strategy_type": Game.build(6, 2, [
        [[0], [1, 2], [3]], [[0, 3], [4], [2, 5]], [[0], [1, 2], [3]],
        [[0, 3], [4], [2, 5]], [[0], [1, 2], [3]],
    ]),
    # the tight family: every resource but resource 0 is a private detour hop
    **{f"tight_n{n}_d{d}": lower_bound.generate(n, d).game for d in (1, 2) for n in range(2, 7)},
    # twelve one-strategy players on a chain [i, i+1] beside two
    # two-strategy players: lone types of one choice in the prefix and suffix
    "one_strategy_chain": Game.build(
        13, 2, [[[i, i + 1]] for i in range(12)] + [[[0], [12]], [[1], [11]]]
    ),
    # Suffix blocks (see BLOCK_SHAPES).  Counts 3, 1, 2, 4, 2 over wide shared
    # strategies: the chunk is small, so the suffix is the last two players
    # and the prefix decodes in mixed radix 3, 1, 2.
    "block_mixed_radix": Game.build(220, 1, [
        [[0, 110], [1, 2, 111], [3]],
        [[4, 160]],
        [[5, 6], [170]],
        [[r for r in range(220) if r % 20 != k] for k in range(4)],
        [list(range(110)), list(range(110, 220))],
    ]),
    # the same counts, narrow: the whole game lies in the suffix
    "block_all_suffix": Game.build(
        6, 2, [[[0], [1, 2], [3]], [[4]], [[0, 5], [2]], [[1], [3], [0, 4], [5]], [[2, 3], [4, 5]]]
    ),
    # 40 strategies for the last player: it alone fills the suffix
    "block_single_suffix_player": Game.build(
        44, 2, [[[0], [1, 2]], [[0, 3], [1]], [[s % 4, 4 + s] for s in range(40)]]
    ),
    # count-1 players first (in the prefix) and last (in the suffix)
    "block_count1_both_ends": Game.build(45, 1, [
        [[0, 1]], [[0], [1], [2, 3]], [[2], [0, 3]], [[s % 4, 5 + s] for s in range(40)], [[3, 4]],
    ]),
    # wide enough that 40 * 40 exceeds the chunk: the suffix holds only the
    # count-1 last player, so B = 1 and every profile is its own prefix
    "block_empty_suffix": Game.build(12, 1, [
        [[0, 1], [2]], [[1], [2, 3], [0]],
        [[s % 12, (s + 1) % 12, (s + 3) % 12, (s + 5) % 12] for s in range(40)], [[4, 5, 6, 7]],
    ]),
    # a three-member type with 20 compositions, interleaved with a player of
    # six strategies: 20 * 6 orbits exceed sqrt(CHUNK), so the type sits in
    # the prefix and its congestion comes from its compositions there
    "block_multi_type_prefix": Game.build(5, 2, [
        [[0], [1], [2], [0, 3]], [[0], [1], [2], [3], [1, 2], [0, 4]],
        [[0], [1], [2], [0, 3]], [[0], [1], [2], [0, 3]],
    ]),
}

# name -> (prefix types, suffix choices B) under the default chunk budget.
BLOCK_SHAPES = {
    "block_mixed_radix": (3, 8),
    "block_all_suffix": (0, 48),
    "block_single_suffix_player": (2, 40),
    "block_count1_both_ends": (3, 40),
    "block_empty_suffix": (3, 1),
    "block_multi_type_prefix": (1, 6),
}


@st.composite
def typed_games(draw):
    """Players copied from a few templates.  A template strategy holds ids
    from a small pool (perhaps none) and a number of private hops; each copy
    takes fresh ids for its hops, so copies of a template form one type and
    some strategies are private only."""
    pool = draw(st.integers(1, 5))
    strategy = st.tuples(st.lists(st.integers(0, pool - 1), max_size=3, unique=True),
                         st.integers(0, 3)).filter(lambda t: t[0] or t[1])
    templates = draw(st.lists(st.lists(strategy, min_size=1, max_size=4), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=6))
    players, fresh = [], pool
    for t in picks:
        players.append([])
        for ids, hops in templates[t]:
            players[-1].append(ids + list(range(fresh, fresh + hops)))
            fresh += hops
    return Game.build(fresh, draw(st.integers(1, 3)), players)


class TestEncoding:
    def test_profile_index_round_trip(self):
        game = Game.build(3, 1, [[[0], [1]], [[2], [0], [1]], [[0, 1]]])
        enc = kernels.encode_game(game)
        assert enc.num_orbits == 6
        expected = list(itertools.product(range(2), range(3), range(1)))
        assert [kernels.profile_from_index(enc, idx) for idx in range(6)] == expected

    @pytest.mark.parametrize("idx", [-1, 3])
    def test_index_outside_the_orbits_is_refused(self, idx):
        enc = kernels.encode_game(Game.build(3, 1, [[[0], [1]], [[0], [2]]]))
        assert idx in (-1, enc.num_orbits)
        with pytest.raises(PreconditionError, match=rf"orbit index {idx} is not in \[0, 3\)"):
            kernels.profile_from_index(enc, idx)

    def test_lexicographic_order(self):
        game = Game.build(2, 1, [[[0], [1]], [[1], [0]]])
        enc = kernels.encode_game(game)
        profiles = [kernels.profile_from_index(enc, i) for i in range(4)]
        assert profiles == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_identical_players_share_orbits(self):
        # two identical players: three orbits, represented in ascending order
        game = Game.build(2, 1, [[[0], [1]], [[0], [1]]])
        enc = kernels.encode_game(game)
        assert enc.num_orbits == 3
        profiles = [kernels.profile_from_index(enc, i) for i in range(3)]
        assert profiles == [(0, 0), (0, 1), (1, 1)]
        assert list(kernels.orbit_sizes(enc, np.arange(3))) == [1, 2, 1]

    def test_interleaved_types_order_orbits_by_first_member(self):
        # types A = players 0, 2 and B = player 1: A varies slowest, and an
        # orbit's representative seats A's members in ascending order
        a, b = [[0], [1], [2]], [[0, 1], [2]]
        enc = kernels.encode_game(Game.build(3, 1, [a, b, a]))
        assert enc.members == [(0, 2), (1,)] and not enc.in_order
        reps = [kernels.profile_from_index(enc, i) for i in range(enc.num_orbits)]
        assert reps[:3] == [(0, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert len(set(reps)) == enc.num_orbits == 6 * 2
        assert kernels.first_orbit(enc, [1, 2]) == 2

    @pytest.mark.parametrize("m, k", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 5), (3, 4)])
    def test_orbit_tables_list_every_composition_once(self, m, k):
        # descending lexicographic order of the member counts, whichever of
        # the two listings (counts for k <= m, representatives otherwise)
        expected = sorted((c for c in itertools.product(range(m + 1), repeat=k) if sum(c) == m),
                          reverse=True)
        held, mult = kernels._orbit_tables(m, k)
        assert held.shape == mult.shape == (len(expected), min(m, k))
        for h, c, comp in zip(held, mult, expected):
            assert [int(x) for x in np.bincount(h, weights=c, minlength=k)] == list(comp)
            strategies = [s for s in range(k) if comp[s]]
            assert list(h) == strategies + [strategies[-1]] * (len(h) - len(strategies))

    def test_private_detours_count_not_ids(self):
        # each tight-family player but player 0 has its own detour ids, yet
        # they form one type: two orbits for player 0 times n for the rest
        enc = kernels.encode_game(lower_bound.generate(7, 2).game)
        assert [len(m) for m in enc.members] == [1, 6]
        assert enc.num_orbits == 2 * 7 and enc.in_order

    def test_memory_independent_of_num_resources(self, tmp_path, capsys):
        # the degree-1 tight instance at n=2, spread over a million resource ids
        ids = [0, 999_999, 123_456, 777_777]
        game = Game.build(
            10**6, 1, [[[ids[0]], [ids[0], ids[1]]], [[ids[0]], [ids[2], ids[3]]]]
        )
        enc = kernels.encode_game(game)
        assert enc.num_orbits == 4
        assert array_bytes(list(vars(enc).values())) < 64 * 1024
        path = str(tmp_path / "sparse.json")
        save_game(game, path)
        assert main(["analyze", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["C"], payload["C_star"]) == (2, 1)
        assert (payload["poa_num"], payload["poa_den"]) == (2, 1)

    def test_private_resources_take_no_column(self):
        # tight n=20, degree 2: 7,999 of the 8,000 resources are private
        enc = kernels.encode_game(lower_bound.generate(20, 2).game)
        assert enc.num_used == 1
        assert max(alt.shape[0] for alt, _ in enc.deviations) == 1
        assert enc.chunk == kernels.CHUNK
        assert array_bytes(list(vars(enc).values())) < 64 * 1024

    @pytest.mark.parametrize("name", sorted(BLOCK_SHAPES))
    def test_block_edge_games_have_their_shape(self, name):
        enc = kernels.encode_game(EDGE_GAMES[name])
        assert (enc.prefix_players, len(enc.suffix_cong)) == BLOCK_SHAPES[name]

    def test_many_strategies_take_memory_linear_in_them(self):
        # 600 strategies of 6 out of 60 resources, all shared with the
        # second player: a table over strategy pairs would hold 600 * 600 * 6
        # cells (about 17 MB in int64).
        rng = np.random.default_rng(14)
        game = Game.build(60, 2, [
            [sorted(int(r) for r in rng.choice(60, 6, replace=False)) for _ in range(600)],
            [list(range(0, 20)), list(range(20, 40)), list(range(40, 60))],
        ])
        enc = kernels.encode_game(game)
        assert enc.num_used == 60
        assert array_bytes(list(vars(enc).values())) < 2**20
        report = equilibria.price_of_anarchy(game)
        profiles = list(oracle_all_profiles(game))
        assert report.C_star == min(max(oracle_congestion(game, q)) for q in profiles)
        assert oracle_is_nash(game, report.worst_nash)
        assert report.C == max(oracle_congestion(game, report.worst_nash))
        mask = scan_all(enc, kernels.nash_mask_range)
        assert report.nash_count == int(mask.sum())
        for idx in rng.choice(enc.num_orbits, 40, replace=False):
            profile = kernels.profile_from_index(enc, int(idx))
            assert bool(mask[idx]) == oracle_is_nash(game, profile)

    @pytest.mark.parametrize("name", ["block_all_suffix", "block_mixed_radix",
                                      "object_path_exact_tie"])
    def test_scan_leaves_the_encoding_untouched(self, name):
        # The scan writes into the congestion rows of its chunk; on a game
        # without prefix players those rows start as a slice of suffix_cong.
        # Read-only arrays make even a write that is later undone raise, so
        # encodings can be shared by concurrent scans.
        enc = kernels.encode_game(EDGE_GAMES[name])
        before = copy.deepcopy(vars(enc))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (list, tuple)):
                for v in value:
                    yield from arrays(v)

        for a in arrays(list(vars(enc).values())):
            a.flags.writeable = False
        scan_all(enc, kernels.nash_mask_range)
        assert before.keys() == vars(enc).keys()
        for key, value in before.items():
            old, new = list(arrays(value)), list(arrays(getattr(enc, key)))
            assert len(old) == len(new), key
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(old, new)), key
            if not old:
                assert value == getattr(enc, key), key

    # 2,000 one-strategy players on a chain [i, i+1].  Beside two
    # two-strategy players they share 2,001 resources: a count over every
    # strategy row times every shared resource would peak at about 32 MB.
    # Beside one player whose second strategy holds 2,000 shared ids: every
    # strategy padded to that width would peak at about 60 MB.
    @pytest.mark.parametrize("extra, used, orbits", [
        pytest.param([[[0], [2000]], [[1], [1999]]], 2001, 4, id="two_strategy_pair"),
        pytest.param([[[0], list(range(2000))]], 2000, 2, id="one_wide_strategy"),
    ])
    def test_encode_peak_grows_with_the_input(self, extra, used, orbits):
        n = 2000
        game = Game.build(n + 1, 1, [[[i, i + 1]] for i in range(n)] + extra)
        tracemalloc.start()
        try:
            enc = kernels.encode_game(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert enc.num_used == used and enc.num_orbits == orbits
        assert peak <= 4 * kernels._CHUNK_CELLS * 8

    @pytest.mark.parametrize("name", sorted(EDGE_GAMES))
    def test_deviations_match_the_padded_reference(self, name):
        assert_deviations_match_reference(EDGE_GAMES[name])

    @settings(max_examples=150, deadline=None)
    @given(typed_games())
    def test_deviations_of_repeated_types_match_the_padded_reference(self, game):
        assert_deviations_match_reference(game)

    def test_float_table_only_on_the_object_path_below_overflow(self):
        assert kernels.encode_game(EDGE_GAMES["unequal_lengths"]).pow_float is None
        assert kernels.encode_game(EDGE_GAMES["object_path_float_overflow"]).pow_float is None
        enc = kernels.encode_game(EDGE_GAMES["object_path_exact_tie"])
        assert enc.pow_float.dtype == np.float64
        assert [int(x) for x in enc.pow_float] == [int(float(x)) for x in enc.pow_table]

    def test_int64_guard_trips_on_huge_delays(self):
        game = Game.build(2, 40, [[[0, 1]], [[0], [1]], [[0], [1]]])
        enc = kernels.encode_game(game)
        assert not enc.int64_safe
        assert enc.pow_table.dtype == object


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_backends_match_each_other_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        game = generators.random_game(rng)
        enc = kernels.encode_game(game)
        bottlenecks = scan_all(enc, kernels.bottlenecks_range)
        mask = scan_all(enc, kernels.nash_mask_range)
        for idx in range(enc.num_orbits):
            profile = kernels.profile_from_index(enc, idx)
            assert bottlenecks[idx] == max(oracle_congestion(game, profile))
            assert bool(mask[idx]) == oracle_is_nash(game, profile)

    def test_object_dtype_path_is_exact(self):
        # degree large enough that int64 would overflow: the kernel must fall
        # back to unbounded integers and still agree with the oracle
        game = Game.build(2, 41, [[[0], [1]], [[0], [1]], [[0], [1]]])
        enc = kernels.encode_game(game)
        assert not enc.int64_safe
        mask = scan_all(enc, kernels.nash_mask_range)
        for idx in range(enc.num_orbits):
            profile = kernels.profile_from_index(enc, idx)
            assert bool(mask[idx]) == oracle_is_nash(game, profile)

    @pytest.mark.parametrize("name", sorted(EDGE_GAMES))
    def test_edge_inputs_match_oracle(self, name):
        game = EDGE_GAMES[name]
        enc = kernels.encode_game(game)
        assert enc.int64_safe == (not name.startswith("object_path"))
        bottlenecks = scan_all(enc, kernels.bottlenecks_range)
        mask = scan_all(enc, kernels.nash_mask_range)
        whole = kernels.scan_range(enc, 0, enc.num_orbits)
        assert np.array_equal(whole[0], bottlenecks)
        assert np.array_equal(whole[1], mask)
        for idx in range(enc.num_orbits):
            profile = kernels.profile_from_index(enc, idx)
            assert bottlenecks[idx] == max(oracle_congestion(game, profile))
            assert bool(mask[idx]) == oracle_is_nash(game, profile)

    @pytest.mark.parametrize(
        "game",
        [g for name, g in sorted(EDGE_GAMES.items()) if not name.startswith("object_path")]
        + [generators.random_game(np.random.default_rng(seed)) for seed in range(4)],
    )
    def test_loop_kernels_match_scan_range(self, game):
        # The loops read the game itself, with its original resource ids, so
        # they do not share the kernel's encoding.  They index profiles, so
        # each orbit is compared at its representative's profile index.
        enc = kernels.encode_game(game)
        counts = [len(s) for s in game.strategies]
        weights = [math.prod(counts[i + 1:]) for i in range(len(counts))]
        flat = [strategy for strat_set in game.strategies for strategy in strat_set]
        args = (
            np.array(counts),
            np.array(weights),
            np.array(list(itertools.accumulate(counts, initial=0))),
            np.array(list(itertools.accumulate(map(len, flat), initial=0))),
            np.array([r for strategy in flat for r in strategy]),
        )
        z = game.num_resources
        pow_table = np.array(power_table(game.degree, game.num_players + 1), dtype=np.int64)
        total = game.num_states()
        loop_b = bottlenecks_loop(*args, z, 0, total)
        loop_m = nash_mask_loop(*args, pow_table, z, 0, total)
        for start in range(0, enc.num_orbits, 7):
            stop = min(start + 7, enc.num_orbits)
            bottlenecks, mask = kernels.scan_range(enc, start, stop)
            reps = [sum(c * w for c, w in zip(kernels.profile_from_index(enc, idx), weights))
                    for idx in range(start, stop)]
            assert np.array_equal(loop_b[reps], bottlenecks)
            assert np.array_equal(loop_m[reps], mask)
        if len(enc.members) == game.num_players:
            assert enc.num_orbits == total  # so every profile was compared

    @pytest.mark.parametrize("chunk", [3, 7, 8192])
    @pytest.mark.parametrize("name", sorted(EDGE_GAMES))
    def test_scan_matches_oracle_at_every_chunk_size(self, name, chunk):
        # At CHUNK 3 the suffix holds only types of one choice, so every
        # other type is decoded in the prefix, lone or composed.
        game = EDGE_GAMES[name]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "CHUNK", chunk)
            enc = kernels.encode_game(game)
        if chunk == 3:
            assert all(c == 1 for c in enc.counts[enc.prefix_players:])
        C, worst, c_star, optimal, count = kernels.scan(enc)
        assert (C, c_star, count, worst, optimal) == oracle_poa(game)

    @pytest.mark.parametrize("name", sorted(EDGE_GAMES))
    def test_edge_totals_match_full_enumeration(self, name):
        game = EDGE_GAMES[name]
        report = equilibria.price_of_anarchy(game)
        C, c_star, count, worst, optimal = oracle_poa(game)
        assert (report.C, report.C_star, report.nash_count) == (C, c_star, count)
        assert (report.worst_nash, report.optimal) == (worst, optimal)


@st.composite
def object_path_games(draw):
    """2-5 players over a few resources at degree 25-80, some of them
    repeated so that types have several members: costs far above 2**53,
    with ties and near ties common."""
    z = draw(st.integers(2, 6))
    strategy = st.lists(st.integers(0, z - 1), min_size=1, max_size=3, unique=True)
    players = draw(st.lists(st.lists(strategy, min_size=1, max_size=3), min_size=1, max_size=4))
    players += draw(st.lists(st.sampled_from(players), min_size=max(0, 2 - len(players)),
                             max_size=5 - len(players)))
    return Game.build(z, draw(st.integers(25, 80)), players)


class TestFloatFilter:
    @settings(max_examples=80, deadline=None)
    @given(object_path_games(), st.sampled_from([3, 7]))
    def test_object_path_flags_match_oracle(self, game, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "CHUNK", chunk)
            enc = kernels.encode_game(game)
        assume(not enc.int64_safe)
        assert enc.pow_float is not None and enc.chunk <= chunk
        for start in range(0, enc.num_orbits, enc.chunk):
            _, mask = kernels.scan_range(enc, start, min(start + enc.chunk, enc.num_orbits))
            for q, flag in enumerate(mask):
                profile = kernels.profile_from_index(enc, start + q)
                assert bool(flag) == oracle_is_nash(game, profile)


class TestBlocks:
    @pytest.mark.parametrize("start, stop", [(0, 11), (5, 3), (3, 3), (-1, 2), (8, 9)])
    def test_scan_range_rejects_ranges_outside_the_states(self, start, stop):
        # 2 * 4 profiles, 2 * 3 orbits: player 0 and two identical players
        enc = kernels.encode_game(lower_bound.generate(3, 1).game)
        assert enc.num_orbits == 6
        with pytest.raises(PreconditionError):
            kernels.scan_range(enc, start, stop)

    @pytest.mark.parametrize(
        "name", [name for name, (p, _) in sorted(BLOCK_SHAPES.items()) if p]
    )
    def test_unaligned_ranges_across_block_boundaries(self, name):
        game = EDGE_GAMES[name]
        enc = kernels.encode_game(game)
        block = len(enc.suffix_cong)
        total = enc.num_orbits
        whole_b, whole_m = kernels.scan_range(enc, 0, total)
        cuts = {block - 1, block, block + 1} | {k * block + 3 for k in range(total // block)}
        cuts = sorted({c for c in cuts if 0 < c < total} | {0, total})
        ranges = list(zip(cuts, cuts[1:])) + [(block - 1, min(2 * block + 3, total))]
        for start, stop in ranges:
            b, m = kernels.scan_range(enc, start, stop)
            assert np.array_equal(b, whole_b[start:stop])
            assert np.array_equal(m, whole_m[start:stop])
        for idx in range(total):
            profile = kernels.profile_from_index(enc, idx)
            assert whole_b[idx] == max(oracle_congestion(game, profile))
            assert bool(whole_m[idx]) == oracle_is_nash(game, profile)

    def test_scan_memory_stays_within_the_cell_budget(self):
        # 12 players, 3 strategies of 40 out of 400 resources each: most
        # resources are shared, so congestion rows are wide and chunks short.
        rng = np.random.default_rng(0)
        game = Game.build(400, 2, [
            [sorted(int(r) for r in rng.choice(400, 40, replace=False)) for _ in range(3)]
            for _ in range(12)
        ])
        enc = kernels.encode_game(game)
        budget = kernels._CHUNK_CELLS * 8
        assert enc.num_used > 300 and enc.prefix_players > 0
        assert enc.suffix_cong.size <= kernels._CHUNK_CELLS
        tracemalloc.start()
        try:
            kernels.scan_range(enc, 5, 5 + enc.chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * budget
