"""Parity sweep: one SHA-256 per output family, for comparing two checkouts.

    python tests/parity.py

A change meant to leave every output as it was prints the same lines in its
own checkout as in its parent's.  The families:

* ``suite``: the stdout and exit code of ``suite --count 40 --seed 11``;
* ``encode_game``: every ``GameArrays`` field (dtype, shape, contiguity and
  values of each array) over 806 games: 600 small random games, 200 games of
  repeated player types at degrees 1, 2, 3, 24 and 700, the tight family at
  n = 2, 5, 12 and 20, and the two games of the encoding peak test;
* ``chain``: ``to_dict``, ``verify_domination``, ``expansion_report`` and the
  ``--trace`` records of ``transform_to_singletons`` on 600 forced games, the
  tight family at n = 40, 60 and 80, and 300 random games from their worst
  equilibrium and optimum.

pytest does not collect this file; it imports the package from the ``src``
of its own checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polybottleneck import cli, equilibria, expansion, generators, kernels, lower_bound  # noqa: E402
from polybottleneck import transform  # noqa: E402
from polybottleneck.errors import PolyBottleneckError  # noqa: E402
from polybottleneck.game_core import Game  # noqa: E402


def suite_digest() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["suite", "--count", "40", "--seed", "11"])
    return hashlib.sha256(f"{rc}\n{out.getvalue()}".encode()).hexdigest()


def feed(h, value) -> None:
    """Hash ``value`` with its types, and each array's layout with it."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype} {value.shape} {value.flags.c_contiguous} ".encode())
        h.update(repr(value.tolist()).encode())
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__} {len(value)} [".encode())
        for item in value:
            feed(h, item)
        h.update(b"]")
    else:
        h.update(f"{type(value).__name__} {value!r};".encode())


def typed_game(rng: np.random.Generator, degree: int) -> Game:
    """Copies of one to three template players in shuffled order.  A
    template strategy holds ids from a small pool (perhaps none) and private
    hops; each copy takes fresh ids for its hops."""
    pool = int(rng.integers(1, 6))
    templates = []
    for _ in range(int(rng.integers(1, 4))):
        strategies = []
        for _ in range(int(rng.integers(1, 4))):
            ids = sorted(int(r) for r in rng.choice(pool, int(rng.integers(0, min(pool, 3) + 1)),
                                                    replace=False))
            strategies.append((ids, int(rng.integers(0 if ids else 1, 4))))
        templates.append(strategies)
    picks = [t for t in range(len(templates)) for _ in range(int(rng.integers(1, 4)))]
    players, fresh = [], pool
    for t in rng.permutation(picks):
        players.append([])
        for ids, hops in templates[t]:
            players[-1].append(ids + list(range(fresh, fresh + hops)))
            fresh += hops
    return Game.build(fresh, degree, players)


def encode_games() -> list[Game]:
    n = 2000
    chain = [[[i, i + 1]] for i in range(n)]
    return (
        [generators.random_game(np.random.default_rng([4, i]), max_players=5, max_resources=7,
                                max_strategies=4) for i in range(600)]
        + [typed_game(np.random.default_rng([5, i]), (1, 2, 3, 24, 700)[i % 5])
           for i in range(200)]
        + [lower_bound.generate(size, 1).game for size in (2, 5, 12, 20)]
        + [Game.build(n + 1, 1, chain + [[[0], [n]], [[1], [n - 1]]]),
           Game.build(n + 1, 1, chain + [[[0], list(range(n))]])]
    )


def encode_digest(games: list[Game]) -> str:
    h = hashlib.sha256()
    for game in games:
        enc = kernels.encode_game(game)
        for key, value in vars(enc).items():
            h.update(key.encode())
            feed(h, value)
    return h.hexdigest()


def chain_record(game: Game, eq, opt) -> str:
    trace: list = []
    try:
        tsg = transform.transform_to_singletons(game, eq, opt, trace=trace)
        record = {
            "transformed": tsg.to_dict(),
            "domination": transform.verify_domination(game, eq, tsg, strict=False).to_dict(),
            "expansion": expansion.expansion_report(expansion.build_resource_graph(tsg)),
        }
    except PolyBottleneckError as exc:
        record = {"error": f"{type(exc).__name__}: {exc}"}
    record["trace"] = [json.dumps(line, sort_keys=True) for line in trace]
    return json.dumps(record, sort_keys=True, default=str)


def chain_cases():
    for i in range(300):
        for degree in (1, 2):
            yield generators.forced_congestion_game(np.random.default_rng([2, i, degree]), degree)
    for size in (40, 60, 80):
        inst = lower_bound.generate(size, 1)
        yield inst.game, inst.state_all_direct, inst.state_all_paths
    for i in range(300):
        game = generators.random_game(np.random.default_rng([3, i]))
        poa = equilibria.price_of_anarchy(game)
        yield game, poa.worst_nash, poa.optimal


def chain_digest() -> tuple[str, int]:
    h, count = hashlib.sha256(), 0
    for game, eq, opt in chain_cases():
        h.update(chain_record(game, eq, opt).encode() + b"\n")
        count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    print(f"suite        {suite_digest()}  (--count 40 --seed 11)")
    games = encode_games()
    print(f"encode_game  {encode_digest(games)}  ({len(games)} games)")
    digest, count = chain_digest()
    print(f"chain        {digest}  ({count} chains)")
