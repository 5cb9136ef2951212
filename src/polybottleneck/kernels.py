"""State-space scan kernel.

Exhaustive enumeration over the product strategy space dominates runtime for
the equilibrium and price-of-anarchy searches.  ``scan_range`` computes the
bottleneck and the weak-Nash flag of every profile in an index range in one
vectorized numpy pass.  Cost sums run in int64 only when a precomputed bound
proves they fit; otherwise the delay table has object dtype (exact unbounded
integers).

The encoding is sparse.  Only shared resources, those in the strategies of
two or more players, get a congestion column; their ids are compacted, so
memory and per-profile work grow with the shared part of the strategies,
never with ``num_resources``.  A private resource carries congestion 1
whenever it is used and costs ``1**M = 1`` in every deviation, so each
strategy keeps only the count of its private resources.  Profiles are
indexed lexicographically: player 0 varies slowest.

Deviations are priced by the cost rule of ``game_core.switch_cost``, with the
same +1: with player i taken off (congestion ``C^{-i}``), strategy s costs
``sum over r in s of (C_r^{-i} + 1)**M``.  A resource in both the current
strategy and s keeps its congestion; any other carries one more user.

Congestion is additive over players, so the scan splits a profile index into
``a * B + b``: ``b`` is the joint choice of the last players (the suffix,
``B`` choices) and ``a`` that of the players before them (the prefix).
``encode_game`` counts the congestion of every suffix choice once per game;
a chunk counts only the congestion of the prefixes it touches and adds the
two by broadcasting.  Profile order is unchanged, so every tie-break is too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .game_core import Game, Profile, power_table

# int64 margin: leaves headroom for the accumulating sums.
_INT64_SAFE_LIMIT = 2**62

CHUNK = 8192
# Per-profile arrays of a chunk (congestion rows, deviation gathers) and the
# suffix congestion table are kept to about this many int64 cells, so they
# stay in cache on wide games.
_CHUNK_CELLS = 2**18


def default_backend() -> str:
    """Name of the one scan kernel, always ``"numpy"``.  Kept because the
    benchmark harness records it in the environment of every run."""
    return "numpy"


@dataclass
class GameArrays:
    """Sparse array encoding of a game for the scan kernels.  Only shared
    resources are encoded, with compact ids ``0 .. num_used-1``;
    ``num_used`` is the ghost id that pads strategy rows of ``table`` to
    equal length."""

    num_used: int           # shared resources
    counts: np.ndarray      # (n,) strategies per player
    weights: np.ndarray     # (n,) lexicographic decode weights
    player_ptr: np.ndarray  # (n+1,) player -> first strategy row
    table: np.ndarray       # (total_strats, max_len) shared compact ids, ghost-padded
    # Per player: its rows of ``table`` cut to its longest shared part (k, L),
    # and the private resource count of each strategy (k,) in the delay
    # table's dtype, or None when all its strategies have the same count: a
    # constant added to every deviation cost cannot change the verdict.
    deviations: list[tuple[np.ndarray, np.ndarray | None]]
    num_states: int
    # Profile index = a * B + b: b is the joint choice of players
    # prefix_players.. (the suffix, B choices), a that of the players before.
    prefix_players: int
    suffix_cong: np.ndarray  # (B, num_used+1) congestion of each suffix choice, ghost -1
    chunk: int              # profiles per scan_range call, at most CHUNK
    int64_safe: bool
    # Entry c is (c+1)**M, the delay of a resource after the player joins its
    # c other users; two trailing zeros serve the ghost column's -1 and -2.
    pow_table: np.ndarray   # int64 when int64_safe, else object


def encode_game(game: Game) -> GameArrays:
    n = game.num_players
    counts = [len(s) for s in game.strategies]
    weights = [1] * n
    num_states = 1
    for i in range(n - 1, -1, -1):
        weights[i] = num_states
        num_states *= counts[i]
    player_ptr = list(itertools.accumulate(counts, initial=0))

    flat = [strategy for strat_set in game.strategies for strategy in strat_set]
    # A resource is shared once the strategies of a second player hold it.
    owner: dict[int, int] = {}
    shared = set()
    for i, strat_set in enumerate(game.strategies):
        for strategy in strat_set:
            for r in strategy:
                if owner.setdefault(r, i) != i:
                    shared.add(r)
    compact = {r: j for j, r in enumerate(sorted(shared))}
    z = len(compact)
    rows = [[compact[r] for r in strategy if r in compact] for strategy in flat]
    private = [len(strategy) - len(row) for strategy, row in zip(flat, rows)]
    lengths = [len(row) for row in rows]
    max_len = max(lengths)
    table = np.array(
        [row + [z] * (max_len - len(row)) for row in rows], dtype=np.int64
    ).reshape(len(flat), max_len)  # the reshape keeps a zero-width table 2-d

    # Exact delays over all reachable congestions (<= n players on a resource,
    # one spare entry above n).
    pow_exact = power_table(game.degree, n + 1)[:n + 2]
    # The table itself must fit even when no slot is shared (max_len 0).
    int64_safe = max(max_len, 1) * pow_exact[-1] + max(private) < _INT64_SAFE_LIMIT
    dtype = np.int64 if int64_safe else object

    deviations = []
    gather = 0  # widest (k, width) deviation gather of a player
    for p0, k in zip(player_ptr, counts):
        width = max(lengths[p0:p0 + k])
        gather = max(gather, k * width)
        priv = private[p0:p0 + k]
        deviations.append((table[p0:p0 + k, :width],
                           np.array(priv, dtype=dtype) if min(priv) != max(priv) else None))

    # Per profile a chunk holds a congestion row and, for one player at a
    # time, its (k, width) deviation gather.
    cells = z + 1 + gather
    chunk = max(1, min(CHUNK, _CHUNK_CELLS // cells))
    # The suffix is the longest run of last players whose joint choices B
    # satisfy B * B <= chunk, so a full chunk spans at least B prefixes; B <=
    # chunk also keeps the (B, z + 1) suffix table within the cell budget.
    p, block = n, 1
    while p and (block * counts[p - 1]) ** 2 <= chunk:
        p -= 1
        block *= counts[p]
    # Each prefix a chunk touches decodes p * max_len slots: ceil(/ B) per profile.
    chunk = max(1, min(chunk, _CHUNK_CELLS // (cells + -(-p * max_len // block))))
    # Congestion of each strategy alone, then of every suffix choice as the
    # outer sum over the suffix players, last player fastest.  The ghost
    # column holds -1, so it is never the bottleneck.
    row0 = player_ptr[p]
    keys = table[row0:] + (z + 1) * np.arange(len(flat) - row0)[:, None]
    single = np.bincount(keys.ravel(), minlength=(len(flat) - row0) * (z + 1)).reshape(-1, z + 1)
    suffix_cong = single[player_ptr[n - 1] - row0:] if p < n else np.zeros((1, z + 1), np.int64)
    for i in range(n - 2, p - 1, -1):
        rows = single[player_ptr[i] - row0:player_ptr[i + 1] - row0]
        suffix_cong = (rows[:, None] + suffix_cong).reshape(-1, z + 1)
    suffix_cong[:, z] = -1

    return GameArrays(
        num_used=z,
        counts=np.array(counts, dtype=np.int64),
        weights=np.array(weights, dtype=np.int64),
        player_ptr=np.array(player_ptr, dtype=np.int64),
        table=table,
        deviations=deviations,
        num_states=num_states,
        prefix_players=p,
        suffix_cong=suffix_cong,
        chunk=chunk,
        int64_safe=int64_safe,
        pow_table=np.array(pow_exact[1:] + [0, 0], dtype=dtype),
    )


def profile_from_index(enc: GameArrays, idx: int) -> Profile:
    return tuple(int((idx // int(w)) % int(c)) for w, c in zip(enc.weights, enc.counts))


def scan_range(enc: GameArrays, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck congestion and weak-Nash flag per profile index in
    [start, stop).  A profile is flagged when no player has a strictly
    cheaper alternative (equal-cost deviations do not break equilibrium).

    Congestion is additive over players, so a profile's congestion row is
    that of its prefix plus that of its suffix: one bincount counts the
    prefixes that touch the range, and one broadcast add against
    ``suffix_cong`` gives every row (a game without prefix players copies
    a slice of ``suffix_cong``).  Each player is taken off its rows of the
    stable profiles, its deviation costs come from one gather into the
    delay table plus the private counts, and its rows are restored.  Every
    strategy is non-empty, so the bottleneck is at least 1 even where only
    private resources are used."""
    if not 0 <= start < stop <= enc.num_states:
        raise PreconditionError(
            f"scan range [{start}, {stop}) is not a non-empty part of [0, {enc.num_states})"
        )
    m = stop - start
    z = enc.num_used
    p = enc.prefix_players
    block = len(enc.suffix_cong)
    if p:
        first = start // block
        prefix = np.arange(first, (stop - 1) // block + 1, dtype=np.int64)
        prefix_choices = prefix[:, None] // (enc.weights[:p] // block) % enc.counts[:p]
        slots = enc.table[prefix_choices + enc.player_ptr[:p]].reshape(len(prefix), -1)
        slots += (np.arange(len(prefix), dtype=np.int64) * (z + 1))[:, None]
        prefix_cong = np.bincount(slots.ravel(), minlength=len(prefix) * (z + 1))
        prefix_cong = prefix_cong.reshape(len(prefix), z + 1)
        prefix_cong[:, z] = 0  # the suffix's ghost -1 stands
        cong = (prefix_cong[:, None, :] + enc.suffix_cong[None]).reshape(-1, z + 1)
        cong = cong[start - first * block:stop - first * block]
    else:
        cong = enc.suffix_cong[start:stop].copy()  # the players' rows are written
    bottlenecks = np.maximum(cong.max(axis=1), 1)

    # Players are checked in turn, each only on the profiles still stable.
    live = positions = np.arange(m)
    flat = cong.ravel()
    for i, (alt, private) in enumerate(enc.deviations):
        cur = ((live + start) // enc.weights[i]) % enc.counts[i]
        rows = (live * (z + 1))[:, None]
        # Take the player off its slots (a ghost -1 becomes -2), so one gather
        # prices every strategy s: dev[:, s] sums (C^{-i} + 1)**M; then put
        # the player back.
        own = rows + alt[cur]
        saved = flat[own]
        flat[own] = saved - 1
        dev = enc.pow_table[flat[rows[:, :, None] + alt]].sum(axis=2)
        flat[own] = saved
        if private is not None:
            dev += private
        live = live[np.asarray(dev.min(axis=1) >= dev[positions[:len(live)], cur], dtype=bool)]
        if not len(live):
            break
    mask = np.zeros(m, dtype=bool)
    mask[live] = True
    return bottlenecks, mask


def bottlenecks_range(enc: GameArrays, start: int, stop: int) -> np.ndarray:
    """Bottleneck congestion per profile index in [start, stop)."""
    return scan_range(enc, start, stop)[0]


def nash_mask_range(enc: GameArrays, start: int, stop: int) -> np.ndarray:
    """Weak-Nash flag per profile index in [start, stop)."""
    return scan_range(enc, start, stop)[1]
