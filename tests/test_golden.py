"""Golden-output test: fixed CLI runs must reproduce committed bytes.

Each case runs ``cli.main`` in-process and compares its exit code, stdout and
stderr (the ``--trace`` JSON lines) byte for byte with the files under
``tests/golden/``.  A change that alters any of them on purpose regenerates
the files with ``python tests/test_golden.py`` and says so in its notes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; "@file" is a game file under tests/golden/.
CASES = {
    "analyze_tight12": ["analyze", "@tight12.json"],
    "analyze_forced_d1": ["analyze", "@forced_d1.json"],
    "analyze_random_d24": ["analyze", "@random_d24.json"],
    "analyze_tight12_shuffled": ["analyze", "@tight12_shuffled.json"],
    "analyze_interleaved_types": ["analyze", "@interleaved_types.json"],
    "suite_count10_seed7": ["suite", "--count", "10", "--seed", "7"],
    "suite_object_path": ["suite", "--count", "5", "--seed", "3", "--degrees", "30", "41"],
    "sweep_degree1": ["sweep", "--degree", "1", "--n-range", "2..10"],
    "lower_bound_n9_degree2": ["lower-bound", "--n", "9", "--degree", "2"],
    "transform_tight6": ["transform", "@tight6.json", "--trace"],
    "transform_forced_d1": ["transform", "@forced_d1.json", "--trace"],
    "transform_forced_d2": ["transform", "@forced_d2.json", "--trace"],
    "transform_slack_hub_d2": ["transform", "@slack_hub_d2.json", "--trace"],
    "transform_tight12": ["transform", "@tight12.json", "--trace"],
    "transform_forced_mark_d1": ["transform", "@forced_mark_d1.json", "--trace"],
    "transform_clean_leftover": ["transform", "@clean_leftover.json", "--trace"],
    "transform_eliminate_probe": ["transform", "@eliminate_probe.json", "--trace"],
    "transform_survivor_spread": ["transform", "@survivor_spread.json", "--trace"],
    "transform_runs_out_d1": ["transform", "@runs_out_d1.json", "--trace"],
    "expansion_tight6": ["expansion", "@tight6.json"],
    "expansion_tight6_first": ["expansion", "@tight6.json", "--transform-first"],
    "expansion_forced_d1": ["expansion", "@forced_d1.json"],
    "expansion_forced_d1_first": ["expansion", "@forced_d1.json", "--transform-first"],
}


def run_case(argv: list[str]) -> tuple[int, bytes, bytes]:
    from polybottleneck.cli import main

    argv = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    expected_rc = json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    rc, out, err = run_case(CASES[name])
    assert rc == expected_rc
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()


def regenerate() -> None:
    """Write the input games and every case's expected output."""
    import numpy as np

    from polybottleneck import generators, lower_bound
    from polybottleneck.game_core import Game, save_game
    from test_transform import slack_hub_game

    GOLDEN.mkdir(exist_ok=True)
    for n in (6, 12):
        save_game(lower_bound.generate(n, 1).game, str(GOLDEN / f"tight{n}.json"))
    for degree, seed in ((1, 2), (2, 20)):
        game, _, _ = generators.forced_congestion_game(np.random.default_rng(seed), degree)
        save_game(game, str(GOLDEN / f"forced_d{degree}.json"))
    # The CLI transforms the lowest-index worst equilibrium and optimum, which
    # leave the pinned multi player tracked to its own strategy.  Listing the
    # second hub's players after the others and the pinned player last, with
    # its strategies swapped, makes both tie-breaks pick the generator's
    # states, so the trace reaches ``mark``.
    game, _, _ = generators.forced_congestion_game(np.random.default_rng(2), 1)
    (pinned,) = [i for i, s in enumerate(game.strategies) if len(s[1]) == 1 < len(s[0])]
    on_hub2 = [i for i in range(pinned) if game.strategies[i][0] == game.strategies[pinned][1]]
    order = [i for i in range(pinned) if i not in on_hub2] + on_hub2
    strategies = tuple(game.strategies[i] for i in order) + (game.strategies[pinned][::-1],)
    game = Game(game.num_resources, game.degree, strategies)
    save_game(game, str(GOLDEN / "forced_mark_d1.json"))
    # Hub players whose detours have slack: the trace reaches ``prune``.
    game, _, _ = slack_hub_game(np.random.default_rng(6), 2)
    save_game(game, str(GOLDEN / "slack_hub_d2.json"))
    # 13 players with 2 strategies of 1-3 resources each, at degree 24: the
    # int64 guard sends the 8,192-state scan down the exact object path.
    rng = np.random.default_rng(24)
    z = int(rng.integers(16, 25))
    players = [[sorted(int(r) for r in rng.choice(z, int(rng.integers(1, 4)), replace=False))
                for _ in range(2)] for _ in range(13)]
    save_game(Game.build(z, 24, players), str(GOLDEN / "random_d24.json"))
    # The tight instance at n=12 with resource ids and player order permuted
    # as the benchmark's first tight_scan job (seed 1) does: player 0, alone
    # in its type, lands between members of the other type.
    base = lower_bound.generate(12, 1).game
    rng = np.random.default_rng([1, 1])
    relabel = rng.permutation(base.num_resources)
    order = rng.permutation(base.num_players)
    players = [[sorted(int(relabel[r]) for r in s) for s in base.strategies[i]] for i in order]
    save_game(Game.build(base.num_resources, 1, players), str(GOLDEN / "tight12_shuffled.json"))
    # Players alternate between two types of four; four orbits tie on the
    # worst Nash bottleneck and nine on the optimum, and in both the orbit
    # scanned first is not the one holding the lexicographically first profile.
    a, b = [[2, 4], [0, 3], [3, 5]], [[0, 2], [3]]
    save_game(Game.build(6, 1, [a, b] * 4), str(GOLDEN / "interleaved_types.json"))
    # Player 0 plays {0,1} and is tracked to {0,1,3}: cleaning splits off both
    # shared resources, and the leftover tracked resource 3 goes to the first
    # split, since no played resource is left for a residual player.
    save_game(generators.random_game(np.random.default_rng(16)),
              str(GOLDEN / "clean_leftover.json"))
    # Player 0 plays 0 or 1; six players play 0 or six private resources and
    # four play 1 or five.  The CLI's states put player 0 on resource 1 at
    # congestion 5, tracked to resource 0 at 6, so at level 5 the trace
    # reaches ``eliminate``: a singleton of resource 0 donates its detour.
    fresh = iter(range(2, 58))
    players = [[[0], [1]]]
    players += [[[0], [next(fresh) for _ in range(6)]] for _ in range(6)]
    players += [[[1], [next(fresh) for _ in range(5)]] for _ in range(4)]
    save_game(Game.build(58, 1, players), str(GOLDEN / "eliminate_probe.json"))
    # Player 0 plays {1, 2} or 0; seven players play 0 or seven private
    # resources and four play 1 or five.  At level 5 player 0 costs 6 and is
    # tracked to resource 0 at 7: ``eliminate`` hands it a donor's whole
    # detour, seven resources below the level, and the phase splits it there.
    fresh = iter(range(3, 72))
    players = [[[0], [1, 2]]]
    players += [[[0], [next(fresh) for _ in range(7)]] for _ in range(7)]
    players += [[[1], [next(fresh) for _ in range(5)]] for _ in range(4)]
    save_game(Game.build(72, 1, players), str(GOLDEN / "survivor_spread.json"))
    # Player 0 plays its own ids 4-18 or the covers 0-2, as ``RUNS_OUT`` in
    # test_transform.py: at level 14 its need of 15 meets three covers worth
    # 5 each.  Four players play each cover or 4 fresh ids, and 15 play the
    # hub, 3, or 15 ids: the first two detour through player 0's ids, so no
    # optimum at bottleneck 1 leaves player 0 on them, the others through
    # fresh ids.
    fresh = iter(range(19, 262))
    own = list(range(4, 19))
    players = [[own, [0, 1, 2]]]
    players += [[[c], [next(fresh) for _ in range(4)]] for c in range(3) for _ in range(4)]
    players += [[[3], own] for _ in range(2)]
    players += [[[3], [next(fresh) for _ in range(15)]] for _ in range(13)]
    save_game(Game.build(262, 1, players), str(GOLDEN / "runs_out_d1.json"))
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out, err = run_case(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    regenerate()
