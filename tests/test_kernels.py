import json
import subprocess
import sys

import numpy as np
import pytest

from polybottleneck import generators, kernels
from polybottleneck.cli import main
from polybottleneck.game_core import Game, save_game

from conftest import oracle_congestion, oracle_is_nash


def scan_all(enc, fn, backend):
    chunks = []
    for start in range(0, enc.num_states, 7):  # odd chunk size on purpose
        stop = min(start + 7, enc.num_states)
        chunks.append(fn(enc, start, stop, backend))
    return np.concatenate(chunks)


def array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v) for v in value)
    return 0


# Twelve states each, so the chunks of 7 cross a boundary.
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
}


class TestEncoding:
    def test_profile_index_round_trip(self):
        game = Game.build(3, 1, [[[0], [1]], [[2], [0], [1]], [[0, 1]]])
        enc = kernels.encode_game(game)
        assert enc.num_states == 6
        for idx in range(6):
            profile = kernels.profile_from_index(enc, idx)
            assert kernels.index_of_profile(enc, profile) == idx

    def test_lexicographic_order(self):
        game = Game.build(2, 1, [[[0], [1]], [[0], [1]]])
        enc = kernels.encode_game(game)
        profiles = [kernels.profile_from_index(enc, i) for i in range(4)]
        assert profiles == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_memory_independent_of_num_resources(self, tmp_path, capsys):
        # the degree-1 tight instance at n=2, spread over a million resource ids
        ids = [0, 999_999, 123_456, 777_777]
        game = Game.build(
            10**6, 1, [[[ids[0]], [ids[0], ids[1]]], [[ids[0]], [ids[2], ids[3]]]]
        )
        enc = kernels.encode_game(game)
        assert enc.num_states == 4
        assert array_bytes(list(vars(enc).values())) < 64 * 1024
        path = str(tmp_path / "sparse.json")
        save_game(game, path)
        assert main(["analyze", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["C"], payload["C_star"]) == (2, 1)
        assert (payload["poa_num"], payload["poa_den"]) == (2, 1)

    def test_int64_guard_trips_on_huge_delays(self):
        game = Game.build(2, 40, [[[0, 1]], [[0], [1]], [[0], [1]]])
        enc = kernels.encode_game(game)
        assert not enc.int64_safe
        assert enc.pow_int is None


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_backends_match_each_other_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        game = generators.random_game(rng)
        enc = kernels.encode_game(game)
        backends = ["numpy"]
        if kernels.numba_available():
            backends.append("numba")
        results = {b: scan_all(enc, kernels.bottlenecks_range, b) for b in backends}
        masks = {b: scan_all(enc, kernels.nash_mask_range, b) for b in backends}
        for b in backends[1:]:
            assert np.array_equal(results[b], results[backends[0]])
            assert np.array_equal(masks[b], masks[backends[0]])
        for idx in range(enc.num_states):
            profile = kernels.profile_from_index(enc, idx)
            assert results[backends[0]][idx] == max(oracle_congestion(game, profile))
            assert bool(masks[backends[0]][idx]) == oracle_is_nash(game, profile)

    def test_object_dtype_path_is_exact(self):
        # degree large enough that int64 would overflow: the kernel must fall
        # back to unbounded integers and still agree with the oracle
        game = Game.build(2, 41, [[[0], [1]], [[0], [1]], [[0], [1]]])
        enc = kernels.encode_game(game)
        assert not enc.int64_safe
        mask = scan_all(enc, kernels.nash_mask_range, "numpy")
        for idx in range(enc.num_states):
            profile = kernels.profile_from_index(enc, idx)
            assert bool(mask[idx]) == oracle_is_nash(game, profile)

    @pytest.mark.parametrize("name", sorted(EDGE_GAMES))
    def test_edge_inputs_match_oracle(self, name):
        game = EDGE_GAMES[name]
        enc = kernels.encode_game(game)
        assert enc.int64_safe == (name != "object_path")
        bottlenecks = scan_all(enc, kernels.bottlenecks_range, "numpy")
        mask = scan_all(enc, kernels.nash_mask_range, "numpy")
        whole = kernels.scan_range(enc, 0, enc.num_states, "numpy")
        assert np.array_equal(whole[0], bottlenecks)
        assert np.array_equal(whole[1], mask)
        for idx in range(enc.num_states):
            profile = kernels.profile_from_index(enc, idx)
            assert bottlenecks[idx] == max(oracle_congestion(game, profile))
            assert bool(mask[idx]) == oracle_is_nash(game, profile)

    @pytest.mark.parametrize(
        "game",
        [g for name, g in sorted(EDGE_GAMES.items()) if name != "object_path"]
        + [generators.random_game(np.random.default_rng(seed)) for seed in range(4)],
    )
    def test_loop_kernels_match_scan_range(self, game):
        # The numba kernels run here as plain Python, so they are checked
        # even where numba is not installed.
        enc = kernels.encode_game(game)
        args = (enc.counts, enc.weights, enc.player_ptr, enc.strat_ptr, enc.strat_res)
        for start in range(0, enc.num_states, 7):
            stop = min(start + 7, enc.num_states)
            bottlenecks, mask = kernels.scan_range(enc, start, stop, "numpy")
            loop_b = kernels._bottlenecks_loop(*args, enc.num_used, start, stop)
            loop_m = kernels._nash_mask_loop(*args, enc.pow_int, enc.num_used, start, stop)
            assert np.array_equal(loop_b, bottlenecks)
            assert np.array_equal(loop_m, mask)

    @pytest.mark.skipif(not kernels.numba_available(), reason="numba not importable")
    def test_numba_request_falls_back_when_unsafe(self):
        game = Game.build(2, 41, [[[0], [1]], [[0], [1]]])
        enc = kernels.encode_game(game)
        out = kernels.bottlenecks_range(enc, 0, enc.num_states, "numba")
        assert out.max() == 2


class TestBackendSelection:
    def _run(self, env_value):
        code = (
            "from polybottleneck import kernels; print(kernels.default_backend())"
        )
        import os

        env = dict(os.environ)
        if env_value is None:
            env.pop("POLYBOTTLENECK_BACKEND", None)
        else:
            env["POLYBOTTLENECK_BACKEND"] = env_value
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )

    def test_env_flag_forces_numpy(self):
        proc = self._run("numpy")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "numpy"

    def test_default_prefers_numba_when_present(self):
        proc = self._run(None)
        assert proc.returncode == 0
        assert proc.stdout.strip() in ("numba", "numpy")

    def test_invalid_value_rejected(self):
        proc = self._run("cuda")
        assert proc.returncode != 0
        assert "POLYBOTTLENECK_BACKEND" in proc.stderr

    def test_numpy_mode_never_imports_numba(self):
        code = (
            "import sys; from polybottleneck import kernels; "
            "print('numba' in sys.modules)"
        )
        import os

        env = dict(os.environ)
        env["POLYBOTTLENECK_BACKEND"] = "numpy"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.stdout.strip() == "False"
