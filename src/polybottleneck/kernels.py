"""State-space scan kernel.

Exhaustive enumeration over the product strategy space dominates runtime for
the equilibrium and price-of-anarchy searches.  ``scan_range`` computes the
bottleneck and the weak-Nash flag of every orbit in an index range in one
vectorized numpy pass.  Cost sums run in int64 only when a precomputed bound
proves they fit; otherwise the delay table has object dtype (exact unbounded
integers), and a float64 copy prices deviations first: only the rows whose
verdict a proven rounding bound leaves open are priced again exactly.

The encoding is sparse.  Only shared resources, those in the strategies of
two or more players, get a congestion column; their ids are compacted, so
memory and per-profile work grow with the shared part of the strategies,
never with ``num_resources``.  A private resource carries congestion 1
whenever it is used and costs ``1**M = 1`` in every deviation, so each
strategy keeps only the count of its private resources.

Two players are of one *type* when their strategy lists agree strategy by
strategy, in order, shared row and private count alike.  Swapping two
players of a type permutes profiles but changes no congestion, bottleneck or
Nash verdict, so the scan visits one *orbit* per type composition: how many
of the type's ``m`` members sit on each of its ``k`` strategies, one of
``C(m+k-1, k-1)`` choices instead of ``k**m``.  A type is one pseudo-player
whose choices are its compositions in descending lexicographic order; a
type of one player has its strategies as choices, so a game of distinct
players is scanned profile by profile.  Orbits are indexed in mixed radix
over the types, ordered by their first member, the first type slowest.  An
orbit's representative is its lexicographically first profile: each type's
members, in player order, take the composition's strategies in ascending
order.

Deviations are priced by the cost rule of ``game_core.switch_cost``, with the
same +1: with player i taken off (congestion ``C^{-i}``), strategy s costs
``sum over r in s of (C_r^{-i} + 1)**M``.  A resource in both the current
strategy and s keeps its congestion; any other carries one more user.  All
members of a type on one strategy share a verdict, so a type is checked once
per distinct strategy its composition holds.

Congestion is additive over players, so the scan splits an orbit index into
``a * B + b``: ``b`` is the joint choice of the last types (the suffix,
``B`` choices) and ``a`` that of the types before them (the prefix).
``encode_game`` counts the congestion of every suffix choice once per game;
a chunk counts only the congestion of the prefixes it touches and adds the
two by broadcasting.  A composition's congestion is the sum of its
strategies' rows weighted by their member counts.

``scan`` owns the whole pass, chunk by chunk.  The optimum and the worst
Nash state are one reduction: the least key (the bottleneck, or minus it),
at the lexicographically first representative of the orbits reaching it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, StateSpaceTooLargeError, StructuralError
from .game_core import Game, Profile, power_table

# int64 margin: leaves headroom for the accumulating sums.
_INT64_SAFE_LIMIT = 2**62

CHUNK = 8192
# Per-orbit arrays of a chunk (congestion rows, deviation gathers) and the
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
    ``num_used`` is the ghost id that pads a type's strategies to equal
    length.  Arrays indexed by pseudo-player have one entry per type; for a
    game of distinct players these are the players."""

    num_used: int           # shared resources
    counts: np.ndarray      # (T,) choices (compositions) per type
    weights: np.ndarray     # (T,) mixed-radix decode weights of an orbit index
    # Per type, the one stored encoding of its strategies: their shared
    # compact ids, ghost-padded to its longest shared part and stored
    # slot-major (w, k); and the int64 private resource count of each
    # strategy (k, 1), or None when all its strategies have the same count: a
    # constant added to every deviation cost cannot change the verdict.
    deviations: list[tuple[np.ndarray, np.ndarray | None]]
    num_orbits: int         # orbit indices scan_range accepts; the cap bounds it
    # Orbit index = a * B + b: b is the joint choice of types
    # prefix_players.. (the suffix, B choices), a that of the types before.
    prefix_players: int
    suffix_cong: np.ndarray  # (B, num_used+1) congestion of each suffix choice, ghost -1
    chunk: int              # orbits per scan_range call, at most CHUNK
    int64_safe: bool
    # Entry c is (c+1)**M, the delay of a resource after the player joins its
    # c other users; two trailing zeros serve the ghost column's -1 and -2.
    pow_table: np.ndarray   # int64 when int64_safe, else object
    pow_float: np.ndarray | None  # the object table in float64 for _stable, if sums fit
    members: list[tuple[int, ...]]  # per type, its players in ascending order
    # Per type of m >= 2 members over k strategies, else None: (held, mult),
    # each (choices, min(m, k)), one row per composition in descending
    # lexicographic order.  held lists the distinct strategies a composition
    # holds, ascending, and mult their members; a row holding fewer repeats
    # its last strategy with 0 members.
    orbits: list[tuple[np.ndarray, np.ndarray] | None]
    # Each type's members are consecutive players, so orbit order is the
    # lexicographic order of the representatives.
    in_order: bool


def _orbit_tables(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``orbits`` entry of a type of m members over k strategies.  The
    compositions come from the narrower of two listings, so memory stays
    within the tables' count * min(m, k) cells: with k <= m, their counts,
    taken from k - 1 bar positions among m + k - 1 slots in reverse order;
    otherwise their representatives, the ascending m-member choices."""
    count = math.comb(m + k - 1, k - 1)
    if k <= m:
        bars = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(m + k - 1), k - 1)),
            dtype=np.int64, count=count * (k - 1),
        ).reshape(count, k - 1)[::-1]
        comps = np.diff(bars, axis=1, prepend=-1, append=m + k - 1) - 1
        held = np.argsort(comps == 0, axis=1, kind="stable")  # held strategies first
        mult = np.take_along_axis(comps, held, axis=1)
    else:
        reps = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations_with_replacement(range(k), m)),
            dtype=np.int64, count=count * m,
        ).reshape(count, m)
        # Each run of equal choices is one held strategy; runs start where the choice changes.
        runs = np.ones((count, m), dtype=bool)
        runs[:, 1:] = reps[:, 1:] != reps[:, :-1]
        first = np.sort(np.where(runs, np.arange(m), m), axis=1)
        held = np.take_along_axis(reps, np.minimum(first, m - 1), axis=1)
        mult = np.diff(first, axis=1, append=m)
    last = held[np.arange(count), (mult > 0).sum(axis=1) - 1]
    return np.where(mult > 0, held, last[:, None]), mult


def _composition_cong(orbit: tuple[np.ndarray, np.ndarray], strategy_cong: np.ndarray,
                      choices) -> np.ndarray:
    """Congestion rows of a type's compositions ``choices``: its strategies'
    rows ``strategy_cong`` (k, num_used+1), weighted by their members."""
    held, mult = orbit[0][choices], orbit[1][choices]
    cong = mult[:, :1] * strategy_cong[held[:, 0]]
    for j in range(1, held.shape[1]):
        cong += mult[:, j:j + 1] * strategy_cong[held[:, j]]
    return cong


def _strategy_cong(alt: np.ndarray, z: int) -> np.ndarray:
    """Congestion rows (k, z+1) of a type's strategies, counted from its
    slot-major table ``alt`` (w, k), with the ghost column at 0."""
    size = alt.shape[1] * (z + 1)
    cong = np.bincount((alt + np.arange(0, size, z + 1)).ravel(), minlength=size).reshape(-1, z + 1)
    cong[:, z] = 0
    return cong


def encode_game(game: Game, cap: int | None = None) -> GameArrays:
    """Encode ``game`` for ``scan_range``.  With ``cap``, raise
    ``StateSpaceTooLargeError`` before any per-orbit table is built when the
    orbits exceed it."""
    n = game.num_players
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

    # Types in order of their first member; each keeps its strategies once.
    starts = list(itertools.accumulate(map(len, game.strategies), initial=0))
    kinds: dict[tuple, list[int]] = {}
    for i, (p0, p1) in enumerate(zip(starts, starts[1:])):
        kinds.setdefault((tuple(map(tuple, rows[p0:p1])), tuple(private[p0:p1])), []).append(i)
    members = list(kinds.values())
    counts = [math.comb(len(m) + len(priv) - 1, len(priv) - 1) for (_, priv), m in kinds.items()]
    num_orbits = math.prod(counts)
    if cap is not None and num_orbits > cap:
        raise StateSpaceTooLargeError(
            f"{num_orbits} orbits exceed the cap of {cap}; raise the cap to proceed"
        )
    orbits = [None if len(m) == 1 else _orbit_tables(len(m), len(priv))
              for (_, priv), m in kinds.items()]

    weights = [1] * len(members)
    block = 1
    for t in range(len(members) - 1, -1, -1):
        weights[t] = block
        block *= counts[t]
    max_len = max(map(len, rows))

    # Exact delays over all reachable congestions (<= n players on a resource,
    # one spare entry above n).
    pow_exact = power_table(game.degree, n + 1)[:n + 2]
    # The table itself must fit even when no slot is shared (max_len 0).
    int64_safe = max(max_len, 1) * pow_exact[-1] + max(private) < _INT64_SAFE_LIMIT
    pow_table = np.array(pow_exact[1:] + [0, 0], dtype=np.int64 if int64_safe else object)
    # Costs below 2**1022 keep every float sum in ``_stable`` finite.
    fits = not int64_safe and (max(max_len, 1) * pow_exact[-1] + max(private)).bit_length() < 1023
    deviations = []
    gather = 0  # widest (width, k) deviation gather of a type
    for shared_rows, priv in kinds:  # slot by slot, ghost-padded to the type's longest row
        alt = np.array(list(itertools.zip_longest(*shared_rows, fillvalue=z)),
                       dtype=np.int64).reshape(-1, len(priv))  # zero-width stays 2-d
        gather = max(gather, alt.size)
        deviations.append((alt, None if min(priv) == max(priv)
                           else np.array(priv, dtype=np.int64)[:, None]))

    # Per orbit a chunk holds a congestion row and, for one type at a time,
    # its (width, k) deviation gather.
    cells = z + 1 + gather
    chunk = max(1, min(CHUNK, _CHUNK_CELLS // cells))
    # The suffix is the longest run of last types whose joint choices B
    # satisfy B * B <= chunk, so a full chunk spans at least B prefixes; B <=
    # chunk also keeps the (B, z + 1) suffix table within the cell budget.
    p, block = len(members), 1
    while p and (block * counts[p - 1]) ** 2 <= chunk:
        p -= 1
        block *= counts[p]
    # Each prefix a chunk touches decodes p * max_len slots: ceil(/ B) per orbit.
    chunk = max(1, min(chunk, _CHUNK_CELLS // (cells + -(-p * max_len // block))))
    # Congestion of each choice of a suffix type (its strategy rows, or a
    # composition weighting them), one type at a time, then of every suffix
    # choice as the outer sum over the suffix types, last type fastest.  The
    # ghost column holds -1, so it is never the bottleneck.
    suffix_cong = np.zeros((1, z + 1), np.int64)
    for t in range(len(members) - 1, p - 1, -1):
        choice_cong = _strategy_cong(deviations[t][0], z)
        if orbits[t] is not None:
            choice_cong = _composition_cong(orbits[t], choice_cong, slice(None))
        suffix_cong = (choice_cong[:, None] + suffix_cong).reshape(-1, z + 1)
    suffix_cong[:, z] = -1

    return GameArrays(
        num_used=z,
        counts=np.array(counts, dtype=np.int64),
        weights=np.array(weights, dtype=np.int64),
        deviations=deviations,
        num_orbits=num_orbits,
        prefix_players=p,
        suffix_cong=suffix_cong,
        chunk=chunk,
        int64_safe=int64_safe,
        pow_table=pow_table,
        pow_float=pow_table.astype(np.float64) if fits else None,
        members=[tuple(m) for m in members],
        orbits=orbits,
        in_order=len(members) == n or all(m[-1] - m[0] == len(m) - 1 for m in members),
    )


def profile_from_index(enc: GameArrays, idx: int) -> Profile:
    """The representative of orbit ``idx``: its lexicographically first
    profile."""
    if not 0 <= idx < enc.num_orbits:
        raise PreconditionError(f"orbit index {idx} is not in [0, {enc.num_orbits})")
    profile = [0] * sum(map(len, enc.members))
    for players, orbit, w, c in zip(enc.members, enc.orbits, enc.weights, enc.counts):
        choice = int(idx) // int(w) % int(c)
        if orbit is None:
            profile[players[0]] = choice
        else:
            for player, s in zip(players, np.repeat(orbit[0][choice], orbit[1][choice])):
                profile[player] = int(s)
    return tuple(profile)


def first_orbit(enc: GameArrays, idx) -> int:
    """Of the orbit indices ``idx``, in ascending order, the one whose
    representative is lexicographically first.  That is the first index when
    orbit order is lexicographic; otherwise the representatives are compared
    player by player."""
    if enc.in_order or len(idx) == 1:
        return int(idx[0])
    idx = np.asarray(idx, dtype=np.int64)
    seats = sorted((player, t, rank) for t, players in enumerate(enc.members)
                   for rank, player in enumerate(players))
    for _, t, rank in seats:
        choice = idx // enc.weights[t] % enc.counts[t]
        if enc.orbits[t] is not None:
            # Member ``rank`` sits on the held strategy whose cumulative count
            # first exceeds it.
            held, mult = enc.orbits[t][0][choice], enc.orbits[t][1][choice]
            j = (np.cumsum(mult, axis=1) <= rank).sum(axis=1)
            choice = held[np.arange(len(held)), j]
        idx = idx[choice == choice.min()]
        if len(idx) == 1:
            break
    return int(idx[0])


def _arrangements(choices: list[int]):
    """Every distinct ordering of a sorted list, in lexicographic order."""
    a = list(choices)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def _orbit_profiles(enc: GameArrays, idx: int):
    """Every profile of orbit ``idx``: each type's members take every
    distinct ordering of the representative's choices."""
    rep = profile_from_index(enc, idx)
    for parts in itertools.product(*(_arrangements([rep[i] for i in players])
                                     for players in enc.members)):
        profile = list(rep)
        for players, part in zip(enc.members, parts):
            for i, choice in zip(players, part):
                profile[i] = choice
        yield tuple(profile)


def orbit_sizes(enc: GameArrays, idx: np.ndarray) -> np.ndarray:
    """Profiles in each orbit of ``idx``, as exact Python ints (object
    dtype): the product over types of the multinomial ``m! / prod c_s!``,
    each taken as ``prod_s C(c_0 + ... + c_s, c_s)``."""
    sizes = np.ones(len(idx), dtype=object)
    for orbit, w, c in zip(enc.orbits, enc.weights, enc.counts):
        if orbit is not None:
            mult = orbit[1][idx // w % c]
            sizes *= np.frompyfunc(math.comb, 2, 1)(mult.cumsum(axis=1), mult).prod(axis=1)
    return sizes


def scan_range(enc: GameArrays, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck congestion and weak-Nash flag per orbit index in
    [start, stop).  An orbit is flagged when no player has a strictly
    cheaper alternative (equal-cost deviations do not break equilibrium).

    Congestion is additive over players, so an orbit's congestion row is
    that of its prefix plus that of its suffix: one bincount over the table
    columns of their choices counts the lone players of the prefixes that
    touch the range, each composition times its type's strategy rows adds
    the other players, and one broadcast add against ``suffix_cong`` gives
    every row (a game without prefix types copies a slice of
    ``suffix_cong``).  Each type is taken off its rows of the stable orbits,
    one member off one held strategy at a time; one slot-major gather of its
    congestion goes to ``_stable`` for pricing, and its rows are restored.
    Every strategy is non-empty, so the bottleneck is at least 1 even where
    only private resources are used."""
    if not 0 <= start < stop <= enc.num_orbits:
        raise PreconditionError(
            f"scan range [{start}, {stop}) is not a non-empty part of [0, {enc.num_orbits})"
        )
    m = stop - start
    z = enc.num_used
    p = enc.prefix_players
    block = len(enc.suffix_cong)
    if p:
        first = start // block
        prefix = np.arange(first, (stop - 1) // block + 1, dtype=np.int64)
        prefix_choices = prefix[:, None] // (enc.weights[:p] // block) % enc.counts[:p]
        # Lone players: the table columns of their choices, (w, prefixes) each.
        slots = np.concatenate([np.empty((0, len(prefix)), np.int64)] + [
            enc.deviations[t][0][:, prefix_choices[:, t]]
            for t in range(p) if enc.orbits[t] is None])
        slots += (z + 1) * np.arange(len(prefix), dtype=np.int64)
        prefix_cong = np.bincount(slots.ravel(), minlength=len(prefix) * (z + 1))
        prefix_cong = prefix_cong.reshape(len(prefix), z + 1)
        for t in range(p):
            if enc.orbits[t] is not None:
                prefix_cong += _composition_cong(enc.orbits[t],
                                                 _strategy_cong(enc.deviations[t][0], z),
                                                 prefix_choices[:, t])
        prefix_cong[:, z] = 0  # the suffix's ghost -1 stands
        cong = (prefix_cong[:, None, :] + enc.suffix_cong[None]).reshape(-1, z + 1)
        cong = cong[start - first * block:stop - first * block]
    else:
        cong = enc.suffix_cong[start:stop].copy()  # the types' rows are written
    bottlenecks = np.maximum(cong.max(axis=1), 1)

    # Types of two or more strategies are checked in turn on the stable orbits.
    live = positions = np.arange(m)
    flat = cong.ravel()
    for t, (alt, private) in enumerate(enc.deviations):
        orbit = enc.orbits[t]
        for j in range(0 if alt.shape[1] == 1 else 1 if orbit is None else orbit[0].shape[1]):
            cur = ((live + start) // enc.weights[t]) % enc.counts[t]
            if orbit is not None:
                cur = orbit[0][cur, j]  # the j-th strategy the composition holds
            rows = live * (z + 1)
            # Take one member off its slots (a ghost -1 becomes -2), gather the
            # (width, k, live) congestion that prices every strategy, put it back.
            own = alt[:, cur] + rows
            saved = flat[own]
            flat[own] = saved - 1
            slots = flat[alt[:, :, None] + rows]
            flat[own] = saved
            live = live[_stable(slots, private, cur, positions, enc.pow_table, enc.pow_float)]
            if not len(live):
                break
        if not len(live):
            break
    mask = np.zeros(m, dtype=bool)
    mask[live] = True
    return bottlenecks, mask


def _stable(slots: np.ndarray, private: np.ndarray | None, cur: np.ndarray, at: np.ndarray,
            table: np.ndarray, rounded: np.ndarray | None = None) -> np.ndarray:
    """Per live orbit of the gather ``slots`` (w, k, live), whether the
    member on strategy ``cur`` has no strictly cheaper strategy, priced with
    ``table`` (``at`` is 0, 1, ... at least live long); given its float64
    copy ``rounded``, only rows the float sums cannot settle use ``table``.

    Float sums settle a row (Higham 2002, 3.1 and 4.2; u = 2**-53): an entry
    rounds by a factor 1 + d, |d| <= u, and a cost takes at most w more, so
    each cost, and the least of the others, is within g = (w+1)u/(1-(w+1)u)
    of exact (costs are whole, below 2**1022 by ``fits``).  The exact other - here
    is then within g/(1-g) * (other + here) of the float one; with the gap's
    rounding (1 + u) and the bound's ((1 - u)**2), (2w + 4)u still covers it."""
    dev = (table if rounded is None else rounded)[slots].sum(axis=0)
    if private is not None:
        dev += private
    at = at[:len(cur)]
    if rounded is None:
        return np.asarray(dev.min(axis=0) >= dev[cur, at], dtype=bool)
    here = dev[cur, at]
    dev[cur, at] = np.inf
    other = dev.min(axis=0)
    gap = other - here
    stable = gap >= 0
    near = (np.abs(gap) <= (2 * len(slots) + 4) * 2.0**-53 * (other + here)).nonzero()[0]
    if len(near):
        stable[near] = _stable(slots[:, :, near], private, cur[near], at, table)
    return stable


def _least(enc: GameArrays, best: tuple[int, int] | None, keys: np.ndarray, start: int,
           at: np.ndarray | None = None) -> tuple[int, int]:
    """The running (key, orbit) after a chunk whose orbits ``start + at``,
    ``at`` ascending (the whole chunk when None), carry ``keys``: the least
    key so far, at the lexicographically first representative of the orbits
    that reach it, ``best``'s among them.  In lexicographic orbit order that
    is the first to reach it."""
    k = int(keys.argmin())
    key = int(keys[k])
    if best is not None and (key > best[0] or (key == best[0] and enc.in_order)):
        return best
    if enc.in_order:
        return key, start + (k if at is None else int(at[k]))
    hits = (keys == key).nonzero()[0]
    hits = start + (hits if at is None else at[hits])
    return key, first_orbit(enc, hits if best is None or key != best[0] else [best[1], *hits])


def scan(enc: GameArrays,
         nash: list[Profile] | None = None) -> tuple[int, Profile, int, Profile, int]:
    """One pass over every orbit, a chunk at a time: the worst Nash
    bottleneck and its profile, the optimal bottleneck and its profile, and
    the number of Nash profiles, counted exactly.  Ties go to the
    lexicographically first profile.  Into ``nash``, if given, every Nash
    profile, sorted."""
    # Some orbit holds several profiles only when some type has two members.
    weighted = enc.orbits.count(None) < len(enc.orbits)
    opt = worst = None
    nash_count = 0
    for start in range(0, enc.num_orbits, enc.chunk):
        vals, mask = scan_range(enc, start, min(start + enc.chunk, enc.num_orbits))
        opt = _least(enc, opt, vals, start)
        hits = mask.nonzero()[0]
        if len(hits):
            nash_count += int(orbit_sizes(enc, start + hits).sum()) if weighted else len(hits)
            worst = _least(enc, worst, -vals[hits], start, hits)
            if nash is not None:
                nash.extend(p for q in hits for p in _orbit_profiles(enc, start + int(q)))
    if opt is None:
        raise StructuralError("scan covered no profile; every game has at least one")
    if worst is None:
        raise StructuralError("no Nash equilibrium found; finite games always have one")
    if nash is not None:
        nash.sort()
    return (-worst[0], profile_from_index(enc, worst[1]),
            opt[0], profile_from_index(enc, opt[1]), nash_count)


def bottlenecks_range(enc: GameArrays, start: int, stop: int) -> np.ndarray:
    """Bottleneck congestion per orbit index in [start, stop)."""
    return scan_range(enc, start, stop)[0]


def nash_mask_range(enc: GameArrays, start: int, stop: int) -> np.ndarray:
    """Weak-Nash flag per orbit index in [start, stop)."""
    return scan_range(enc, start, stop)[1]
