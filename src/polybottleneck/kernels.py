"""State-space scan kernel.

Exhaustive enumeration over the product strategy space dominates runtime for
the equilibrium and price-of-anarchy searches.  ``scan_range`` computes the
bottleneck and the weak-Nash flag of every profile in an index range in one
vectorized numpy pass.  Cost sums run in int64 only when a precomputed bound
proves they fit; otherwise the delay table has object dtype (exact unbounded
integers).

The encoding is sparse: resource ids are compacted to those some strategy
uses, so memory grows with the total strategy size, never with
``num_resources``.  Profiles are indexed lexicographically: player 0 varies
slowest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game_core import Game, Profile

# int64 margin: leaves headroom for the accumulating sums.
_INT64_SAFE_LIMIT = 2**62

CHUNK = 8192
# Per-profile arrays of a chunk (padded slots, congestion rows) are kept to
# about this many int64 cells, so they stay in cache on wide games.
_CHUNK_CELLS = 2**18


def default_backend() -> str:
    """Name of the one scan kernel, always ``"numpy"``.  Kept because the
    benchmark harness records it in the environment of every run."""
    return "numpy"


@dataclass
class GameArrays:
    """Sparse array encoding of a game for the scan kernels.  Resource ids
    are compact (``0 .. num_used-1``); ``num_used`` is the ghost id that pads
    strategy rows of ``table`` to equal length."""

    num_used: int
    counts: np.ndarray      # (n,) strategies per player
    weights: np.ndarray     # (n,) lexicographic decode weights
    player_ptr: np.ndarray  # (n+1,) player -> first strategy row
    table: np.ndarray       # (total_strats, max_len) compact ids, ghost-padded
    # Per player: its rows of ``table`` cut to its longest strategy (k, L),
    # and shift[cur, alt, l] (k, k, L): 0 when the resource in slot l of alt
    # is in strategy cur, else 1 (always 1 on ghost slots).
    deviations: list[tuple[np.ndarray, np.ndarray]]
    num_states: int
    chunk: int              # profiles per scan_range call, at most CHUNK
    int64_safe: bool
    pow_table: np.ndarray   # delay table c**M: int64 when int64_safe, else object


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
    lengths = [len(strategy) for strategy in flat]
    resources = sorted(set(itertools.chain.from_iterable(flat)))
    compact = {r: j for j, r in enumerate(resources)}
    z = len(resources)
    max_len = max(lengths)
    table = np.array(
        [[compact[r] for r in strategy] + [z] * (max_len - len(strategy)) for strategy in flat],
        dtype=np.int64,
    )
    table.sort(axis=1)  # the membership search needs sorted rows; ghosts stay last

    # shift for every strategy pair (cur, alt) of the same player, from one
    # sorted search of alt's slots in the row-tagged entries of cur.
    pairs = np.array(
        [(p0 + c, p0 + a) for p0, k in zip(player_ptr, counts) for c in range(k) for a in range(k)],
        dtype=np.int64,
    )
    keys = (table + (z + 1) * np.arange(len(flat))[:, None]).ravel()
    alt = table[pairs[:, 1]]
    query = alt + (z + 1) * pairs[:, :1]
    hit = keys.take(np.searchsorted(keys, query), mode="clip") == query
    shift = np.where(hit & (alt < z), 0, 1)
    deviations = []
    for p0, k in zip(player_ptr, counts):
        width = max(lengths[p0:p0 + k])
        deviations.append((
            table[p0:p0 + k, :width],
            shift[:k * k].reshape(k, k, max_len)[:, :, :width],
        ))
        shift = shift[k * k:]

    # Exact delay table over all reachable congestions (<= n players on a
    # resource, +1 headroom for deviation lookups).
    pow_exact = [c**game.degree for c in range(n + 2)]
    int64_safe = max_len * pow_exact[-1] < _INT64_SAFE_LIMIT
    return GameArrays(
        num_used=z,
        counts=np.array(counts, dtype=np.int64),
        weights=np.array(weights, dtype=np.int64),
        player_ptr=np.array(player_ptr, dtype=np.int64),
        table=table,
        deviations=deviations,
        num_states=num_states,
        chunk=max(1, min(CHUNK, _CHUNK_CELLS // (n * max_len + z + 1))),
        int64_safe=int64_safe,
        pow_table=np.array(pow_exact, dtype=np.int64 if int64_safe else object),
    )


def profile_from_index(enc: GameArrays, idx: int) -> Profile:
    return tuple(int((idx // int(w)) % int(c)) for w, c in zip(enc.weights, enc.counts))


def index_of_profile(enc: GameArrays, profile: Profile) -> int:
    return int(sum(int(w) * c for w, c in zip(enc.weights, profile)))


def scan_range(enc: GameArrays, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck congestion and weak-Nash flag per profile index in
    [start, stop).  A profile is flagged when no player has a strictly
    cheaper alternative (equal-cost deviations do not break equilibrium).

    Congestion of the whole chunk comes from one bincount, then each
    player's deviation costs from one gather into the delay table."""
    m = stop - start
    z = enc.num_used
    choices = (np.arange(start, stop, dtype=np.int64)[:, None] // enc.weights) % enc.counts
    slots = enc.table[choices + enc.player_ptr[:-1]]  # (m, n, max_len)
    slots += (np.arange(m, dtype=np.int64) * (z + 1))[:, None, None]
    cong = np.bincount(slots.ravel(), minlength=m * (z + 1)).reshape(m, z + 1)
    # Ghost column: never the bottleneck, and pow[-1 + shift 1] = 0 below.
    cong[:, z] = -1
    bottlenecks = cong.max(axis=1)

    # Players are checked in turn, each only on the profiles still stable.
    live = np.arange(m)
    flat = cong.ravel()
    for i, (alt, shift) in enumerate(enc.deviations):
        cur = choices[live, i]
        # dev[:, s] = cost of strategy s after moving there from cur: a slot
        # already in cur keeps its congestion, any other gets one more user.
        dev = enc.pow_table[flat[(live * (z + 1))[:, None, None] + alt] + shift[cur]].sum(axis=2)
        live = live[np.asarray(dev.min(axis=1) >= dev[np.arange(len(live)), cur], dtype=bool)]
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
