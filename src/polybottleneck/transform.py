"""Rewriting a game in equilibrium so that every resource above a congestion
threshold is used only by players with single-resource strategies.

The workspace is a two-strategy game: each player carries the strategy it
plays in the equilibrium state plus a tracked "optimal" strategy.  Players
are split and rewired phase by phase, from the equilibrium bottleneck down to
the threshold, without ever changing the equilibrium congestion of any
resource and while keeping every player in (weak) equilibrium.  The tracked
optimal bottleneck grows by at most a constant factor (checked, not assumed:
see ``verify_domination``).

Terminology used here:

* singleton player: equilibrium strategy uses exactly one resource;
* multi player: equilibrium strategy uses two or more resources;
* cover pair: a group of equilibrium resources paired with enough tracked
  optimal resources that switching to the latter can never be cheaper.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any, Iterable, Sequence

from . import equilibria
from .errors import DominationError, PreconditionError, StructuralError
from .game_core import Game, delay, switch_cost, validate_profile


@dataclass
class TwoStrategyPlayer:
    """One roster entry: what the player plays, and where it is tracked to."""

    eq_strategy: tuple[int, ...]
    opt_strategy: tuple[int, ...]
    marked: bool = False

    @property
    def is_singleton(self) -> bool:
        return len(self.eq_strategy) == 1


@dataclass
class PhaseState:
    """Summary of one congestion level of the phase loop."""

    level: int
    splits: int = 0
    markings: int = 0


class TwoStrategyGame:
    """Mutable transformation workspace.

    At every step no player's tracked strategy may be strictly cheaper than
    its equilibrium one (one more user on each newly adopted resource).  Once
    ``add_player`` has built the roster the equilibrium congestion never
    changes, so a player's stability depends only on its own two strategies
    and is checked where they change, before anything changes: ``replace``
    checks every player it would create, ``retrack`` the pair it would set.
    """

    def __init__(
        self,
        num_resources: int,
        degree: int,
        threshold: int,
        eq_bottleneck: int,
        opt_bottleneck: int,
        trace: list | None = None,
    ):
        self.num_resources = num_resources
        self.degree = degree
        self.threshold = threshold
        self.eq_bottleneck = eq_bottleneck
        self.opt_bottleneck = opt_bottleneck
        self.players: dict[int, TwoStrategyPlayer] = {}
        self.no_op = False
        self.trace = trace
        self._next_id = 0
        self._eq_cong = [0] * num_resources  # plain ints: every cost term reads them
        # Who plays where, kept by add_player and replace, the only places
        # where an equilibrium strategy enters or leaves the roster.
        self._singles: dict[int, set[int]] = {}  # resource -> its singleton players
        self._multis: set[int] = set()

    # -- roster -------------------------------------------------------------

    def add_player(self, eq_strategy: Iterable[int], opt_strategy: Iterable[int]) -> int:
        """Add a player on top of the current equilibrium congestion, once both
        strategies are range-checked.  This builds the roster and moves the
        congestion, so it checks no one: ``check_equilibrium`` does."""
        eq = tuple(sorted(eq_strategy))
        opt = tuple(sorted(opt_strategy))
        self._check_ids(self._next_id, (eq, opt))
        for r in eq:
            self._eq_cong[r] += 1
        return self._enter(eq, opt)

    def replace(self, pid: int, parts: Iterable[tuple[Iterable[int], Iterable[int]]]) -> list[int]:
        """Swap a player for one new player per (played, tracked) part; the
        only way a player leaves.  Before anything changes, the played parts
        must partition the player's strategy, so the equilibrium congestion
        stays, every tracked part is range-checked, and each new player is
        checked, lowest id first.  Returns the new ids."""
        old = self._player(pid)
        parts = [(tuple(sorted(eq)), tuple(sorted(opt))) for eq, opt in parts]
        if not all(eq for eq, _ in parts) or (
                sorted(chain.from_iterable(eq for eq, _ in parts)) != list(old.eq_strategy)):
            raise StructuralError(
                f"parts {[list(eq) for eq, _ in parts]} do not partition the strategy "
                f"{list(old.eq_strategy)} of player {pid}")
        self._check_ids(pid, (opt for _, opt in parts))
        for nid, (eq, opt) in enumerate(parts, start=self._next_id):
            self._check(nid, eq, opt)
        del self.players[pid]
        (self._singles[old.eq_strategy[0]] if old.is_singleton else self._multis).discard(pid)
        return [self._enter(eq, opt) for eq, opt in parts]

    def _enter(self, eq: tuple[int, ...], opt: tuple[int, ...]) -> int:
        """Index a new player whose played resources are already counted."""
        pid = self._next_id
        self._next_id += 1
        self.players[pid] = TwoStrategyPlayer(eq_strategy=eq, opt_strategy=opt)
        if len(eq) == 1:
            self._singles.setdefault(eq[0], set()).add(pid)
        else:
            self._multis.add(pid)
        return pid

    def retrack(self, pid: int, strategy: Iterable[int]) -> None:
        """Give a player a new tracked strategy, the only way to change one,
        once it is range-checked and the player is checked on it."""
        player = self._player(pid)
        opt = tuple(sorted(strategy))
        self._check_ids(pid, (opt,))
        self._check(pid, player.eq_strategy, opt)
        player.opt_strategy = opt

    def _player(self, pid: int) -> TwoStrategyPlayer:
        """The roster entry of ``pid``, refusing an id that is not in it."""
        if pid not in self.players:
            raise StructuralError(f"player {pid} is not in the roster")
        return self.players[pid]

    def _check_ids(self, pid: int, strategies: Iterable[tuple[int, ...]]) -> None:
        """Refuse a sorted strategy that is empty, holds an id twice or one outside
        ``[0, num_resources)``: every strategy entering the workspace comes here."""
        for s in strategies:
            if not s:
                raise StructuralError(f"a strategy of player {pid} is empty")
            if not (0 <= s[0] and s[-1] < self.num_resources):
                raise StructuralError(f"strategy {list(s)} of player {pid} leaves the resources "
                                      f"[0, {self.num_resources})")
            if len(set(s)) < len(s):
                raise StructuralError(f"strategy {list(s)} of player {pid} repeats a resource")

    def _played(self) -> set[int]:
        """Resources someone plays: exactly those at congestion 1 or more."""
        return set(chain.from_iterable(p.eq_strategy for p in self.players.values()))

    def singles_on(self, r: int) -> list[int]:
        """Ids of the singleton players on resource r, ascending."""
        return sorted(self._singles.get(r, ()))

    def multi_ids(self) -> list[int]:
        """Ids of the multi players, ascending."""
        return sorted(self._multis)

    def record(self, op: str, **details: Any) -> None:
        if self.trace is not None:
            self.trace.append({"op": op, **details})

    # -- congestion and costs ------------------------------------------------

    def eq_congestion(self) -> list[int]:
        return list(self._eq_cong)

    def opt_congestion(self) -> Counter[int]:
        """Players tracked to each resource, recounted from the roster: an id
        outside ``[0, num_resources)`` is counted on its own key, for
        ``verify_domination``'s ``resources_ok`` to flag, never on another."""
        return Counter(chain.from_iterable(p.opt_strategy for p in self.players.values()))

    def tracked_opt_bottleneck(self) -> int:
        """Most players tracked to one resource."""
        return max(self.opt_congestion().values(), default=0)

    def cost(self, pid: int) -> int:
        eq = self.players[pid].eq_strategy
        return switch_cost(self._eq_cong, eq, eq, self.degree)

    def deviation(self, pid: int, opt: Sequence[int] | None = None) -> int:
        """Cost of switching to the tracked strategy, or to ``opt``."""
        player = self.players[pid]
        target = player.opt_strategy if opt is None else tuple(opt)
        return switch_cost(self._eq_cong, player.eq_strategy, target, self.degree)

    def in_equilibrium(self, eq: tuple[int, ...], opt: tuple[int, ...]) -> bool:
        """Whether a player playing ``eq`` and tracked to ``opt`` has no
        strictly cheaper switch, on the current congestion."""
        return (switch_cost(self._eq_cong, eq, eq, self.degree)
                <= switch_cost(self._eq_cong, eq, opt, self.degree))

    def check_equilibrium(self) -> None:
        """Check every player, lowest id first: the full check of a roster
        that ``add_player`` built, or that ``replace`` and ``retrack``, which
        check each change as it happens, have kept."""
        for pid, p in sorted(self.players.items()):
            self._check(pid, p.eq_strategy, p.opt_strategy)

    def _check(self, pid: int, eq: tuple[int, ...], opt: tuple[int, ...]) -> None:
        """Raise unless player ``pid`` would be in equilibrium on the pair."""
        if not self.in_equilibrium(eq, opt):
            raise StructuralError(f"player {pid} is no longer in equilibrium")

    # -- views ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "degree": self.degree,
            "num_resources": self.num_resources,
            "threshold": self.threshold,
            "eq_bottleneck": self.eq_bottleneck,
            "initial_opt_bottleneck": self.opt_bottleneck,
            "tracked_opt_bottleneck": self.tracked_opt_bottleneck(),
            "no_op": self.no_op,
            "players": [
                {
                    "id": pid,
                    "eq": list(p.eq_strategy),
                    "opt": list(p.opt_strategy),
                    "marked": p.marked,
                }
                for pid, p in sorted(self.players.items())
            ],
        }


def init_two_strategy(
    game: Game,
    nash_profile: Sequence[int],
    optimal_profile: Sequence[int],
    trace: list | None = None,
) -> TwoStrategyGame:
    """Restrict the game to (equilibrium strategy, tracked optimal strategy)
    per player.  The equilibrium profile must actually be a weak Nash state.
    Both bottlenecks, and so the threshold, are read off the roster's counts."""
    nash_profile = validate_profile(game, nash_profile)
    optimal_profile = validate_profile(game, optimal_profile)
    tsg = TwoStrategyGame(game.num_resources, game.degree, threshold=0,
                          eq_bottleneck=0, opt_bottleneck=0, trace=trace)
    for i in range(game.num_players):
        tsg.add_player(game.chosen(nash_profile, i), game.chosen(optimal_profile, i))
    if not equilibria._is_nash(game, nash_profile, tsg._eq_cong):
        raise PreconditionError("the supplied equilibrium profile is not a weak Nash state")
    eq_c = tsg.eq_bottleneck = max((tsg._eq_cong[r] for r in tsg._played()), default=0)
    opt_c = tsg.opt_bottleneck = tsg.tracked_opt_bottleneck()
    threshold = tsg.threshold = max(2 * game.degree, 3 * opt_c)
    tsg.record("init", players=game.num_players, eq_bottleneck=eq_c,
               opt_bottleneck=opt_c, threshold=threshold)
    return tsg


def clean_game(tsg: TwoStrategyGame) -> TwoStrategyGame:
    """Separate each multi player's equilibrium and tracked strategies.

    A multi player whose strategies overlap is split into one singleton
    player per shared resource (playing and tracked to that resource) plus a
    residual player carrying the symmetric difference.  Both congestion
    vectors are preserved exactly.  Tracked strategies of singleton players
    sitting above the congestion threshold are then pruned of redundant
    resources.
    """
    before_opt = tsg.opt_congestion()
    for pid in tsg.multi_ids():
        player = tsg.players[pid]
        overlap = sorted(set(player.eq_strategy) & set(player.opt_strategy))
        if not overlap:
            continue
        rest_eq = sorted(set(player.eq_strategy) - set(overlap))
        rest_opt = sorted(set(player.opt_strategy) - set(overlap))
        parts = [([r], [r]) for r in overlap]
        if rest_eq:
            parts.append((rest_eq, rest_opt))
        else:
            # Everything the player used is shared; hand the leftover tracked
            # resources to the first split so no tracked membership is lost.
            parts[0] = ([overlap[0]], [overlap[0], *rest_opt])
        tsg.replace(pid, parts)
        tsg.record("clean_split", player=pid, overlap=overlap)

    # Redundancy pruning, low congestion first, for singleton players on
    # resources above the threshold (their tracked sets feed the resource
    # graph analysis).  A tracked resource goes while the rest still cover
    # the player's cost, and the first refusal ends the pass.  While the
    # player's own resource (priced without the +1) is kept, the slack covers
    # every other kept term, so nothing before it is refused; each resource
    # after it costs at least what the player pays, so the own one goes too
    # (unless it is the last kept); then the terms never fall and the slack
    # never grows.  One pass, then one retrack.
    for pid in sorted(qid for r, ids in tsg._singles.items()
                      if tsg._eq_cong[r] > tsg.threshold for qid in ids):
        player = tsg.players[pid]
        if len(player.opt_strategy) < 2:
            continue
        slack = tsg.deviation(pid) - tsg.cost(pid)
        order = sorted(player.opt_strategy, key=lambda r: (tsg._eq_cong[r], r))
        removed = 0
        for r in order[:-1]:
            term = switch_cost(tsg._eq_cong, player.eq_strategy, (r,), tsg.degree)
            if term > slack:
                break
            slack -= term
            removed += 1
            tsg.record("prune", player=pid, removed=r)
        if removed:
            tsg.retrack(pid, order[removed:])

    # Splitting preserves tracked congestion; pruning may only lower it.
    if any(c > before_opt[r] for r, c in tsg.opt_congestion().items()):
        raise StructuralError("cleaning raised a tracked congestion")
    return tsg


# ---------------------------------------------------------------------------
# Greedy cover partition
# ---------------------------------------------------------------------------

def greedy_cover_pairs(
    played: Sequence[int],
    tracked: Sequence[int],
    congestion: Sequence[int] | dict[int, int],
    degree: int,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pair equilibrium resources with covering tracked resources.

    ``played`` and ``tracked`` are a player's two disjoint strategies, priced
    on any ``congestion`` that ``switch_cost`` reads; a played resource below
    1 (its player's own use) is refused.  Requires the equilibrium inequality
    sum((c+1)**M over tracked) >= sum(c**M over played); returns the sorted
    (played, tracked) parts that ``replace`` takes, where the tracked side
    always covers the played side at +1 congestion, the played sides
    partition the strategy, every pair has a singleton side, consecutive
    tracked sides share at most one boundary resource, and no tracked
    resource appears in more than two pairs.
    """
    if not played:
        raise PreconditionError("nothing to partition: empty equilibrium strategy")
    eq = sorted(played, key=lambda r: (-congestion[r], r))
    opt = sorted(tracked, key=lambda r: (congestion[r], r))
    if congestion[eq[-1]] < 1:
        raise PreconditionError(f"played resource {eq[-1]} is at congestion {congestion[eq[-1]]}")
    needs = [switch_cost(congestion, (r,), (r,), degree) for r in eq]
    values = [switch_cost(congestion, (), (r,), degree) for r in opt]
    if sum(values) < sum(needs):
        raise PreconditionError("player is not in equilibrium: "
                                "tracked resources cannot cover its cost")
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    # Each pair covers opt[first..j].  opt[j] is carried to the next pair
    # (``shared``), unless this pair took it alone and it was already carried.
    # Needs descend and values ascend, so the pairs are runs, then one-cover
    # pairs packed next-fit, and ``values[j]`` never reads past the end.
    j, shared, i = 0, False, 0
    while i < len(eq):
        group, need, first, total = [eq[i]], needs[i], j, values[j]
        while total < need:
            j += 1
            total += values[j]
        i += 1
        if first == j:
            # One cover: absorb further played resources while it still
            # dominates them.  A played resource above the cover's congestion
            # c needs at least (c+1)**M, the whole capacity.
            while i < len(eq) and need + needs[i] <= total:
                group.append(eq[i])
                need += needs[i]
                i += 1
        pairs.append((tuple(sorted(group)), tuple(sorted(opt[first:j + 1]))))
        j, shared = (j + 1, False) if first == j and shared else (j, True)

    # Use as much of the tracked strategy as possible: sweep leftover tracked
    # resources into the final pair when its played side is a singleton.
    leftover = opt[j + shared:]
    if leftover and len(pairs[-1][0]) == 1:
        group, cover = pairs[-1]
        pairs[-1] = (group, tuple(sorted({*cover, *leftover})))
    return pairs


def split_player(tsg: TwoStrategyGame, pid: int) -> list[int]:
    """Replace a multi player by one sub-player per cover pair of its greedy
    cover partition.

    The player's two strategies must be disjoint.  Equilibrium congestion is
    untouched (``replace`` checks that the played sides partition the
    player's strategy, and that every sub-player is in equilibrium), so each
    sub-player's cost is a sub-sum of the old player's and needs no check.
    """
    player = tsg._player(pid)
    if player.is_singleton:
        raise PreconditionError(f"player {pid} already uses a single resource")
    if set(player.eq_strategy) & set(player.opt_strategy):
        raise PreconditionError(f"player {pid} has overlapping strategies; clean the game first")
    pairs = greedy_cover_pairs(player.eq_strategy, player.opt_strategy, tsg._eq_cong, tsg.degree)
    # A multi sub-player may cost at most joining its most congested tracked resource.
    cap = delay(max(tsg._eq_cong[r] for r in player.opt_strategy) + 1, tsg.degree)
    for nid, (eq, _) in enumerate(pairs, start=tsg._next_id):
        if len(eq) > 1 and (c := switch_cost(tsg._eq_cong, eq, eq, tsg.degree)) > cap:
            raise StructuralError(f"multi sub-player {nid} of {pid} costs {c}, above {cap}")
    new_ids = tsg.replace(pid, pairs)
    tsg.record("split", player=pid, new_ids=new_ids,
               pairs=[[list(eq), list(opt)] for eq, opt in pairs])
    return new_ids


# ---------------------------------------------------------------------------
# Phase machinery
# ---------------------------------------------------------------------------

def eliminate_high_congestion(tsg: TwoStrategyGame, level: int, pid: int) -> None:
    """Rewire a player tracked to one over-congested resource.

    While the player's tracked strategy is a single resource with congestion
    above the phase level, a singleton player of that resource donates (part
    of) its own tracked strategy and is itself re-tracked to the resource it
    plays.  Neither congestion vector changes on the affected resources.
    """
    player = tsg._player(pid)
    while len(player.opt_strategy) == 1 and tsg._eq_cong[player.opt_strategy[0]] > level:
        x = player.opt_strategy[0]
        hosts = sorted((qid for qid in tsg.singles_on(x) if qid != pid),
                       key=lambda qid: (-len(tsg.players[qid].opt_strategy), qid))
        cost = tsg.cost(pid)
        eq_set = set(player.eq_strategy)
        for qid in hosts:
            donor = tsg.players[qid]
            high = [r for r in donor.opt_strategy if tsg._eq_cong[r] >= level]
            if high:
                high.sort(key=lambda r: (tsg._eq_cong[r], r))
                fset = (high[0],)
            else:
                fset = donor.opt_strategy
            if fset == (x,):
                continue  # would not make progress
            if not player.is_singleton and set(fset) & eq_set:
                continue  # multi players must stay separable for later splits
            if cost <= tsg.deviation(pid, fset):
                break
        else:
            raise StructuralError(
                f"no usable donor on over-congested resource {x} for player {pid}")
        before_opt = tsg.opt_congestion()
        tsg.retrack(pid, fset)
        tsg.retrack(qid, (x,))
        tsg.record("eliminate", player=pid, donor=qid, resource=x, new_opt=list(fset))
        # Rewiring may only release tracked load, never add to it.
        if any(c > before_opt[r] for r, c in tsg.opt_congestion().items()):
            raise StructuralError("tracked congestion increased during elimination")


def _multis_costing(tsg: TwoStrategyGame, low: int) -> list[int]:
    """Multi players with cost above low, dearest first."""
    costs = {pid: tsg.cost(pid) for pid in tsg.multi_ids()}
    return sorted((pid for pid, c in costs.items() if c > low),
                  key=lambda pid: (-costs[pid], pid))


def _band(tsg: TwoStrategyGame, level: int) -> list[int]:
    """Multi players with cost in (level**M, (level+1)**M], dearest first.

    The phase invariant, checked once per level state and once on the final
    one: no multi player costs more.  So none plays a resource above the
    level, since its other resources, each at congestion 1 or more, would
    bring it to (level+1)**M + 1 or more.  The dearest player above it is
    named."""
    band = _multis_costing(tsg, delay(level, tsg.degree))
    if band and tsg.cost(band[0]) > delay(level + 1, tsg.degree):
        raise StructuralError(f"multi player {band[0]} above the band at level {level}")
    return band


def run_phase(tsg: TwoStrategyGame, level: int) -> PhaseState:
    """Erase all multi players with cost above level**degree at this level."""
    phase = PhaseState(level=level)

    for pid in _band(tsg, level):
        split_player(tsg, pid)
        phase.splits += 1

    # Survivors of the band now track exactly one resource, congested at
    # least to the level.
    survivors = _band(tsg, level)
    for pid in survivors:
        opt = tsg.players[pid].opt_strategy
        if len(opt) != 1 or tsg._eq_cong[opt[0]] < level:
            raise StructuralError(
                f"band survivor {pid} is not tracked to one resource at level {level} "
                "or above")

    # A singleton player costs level**degree exactly when its resource sits
    # at the level.
    qualified = sorted(survivors + [
        pid
        for r, ids in tsg._singles.items() if tsg._eq_cong[r] == level
        for pid in ids if len(tsg.players[pid].opt_strategy) == 1
    ])

    for pid in qualified:
        eliminate_high_congestion(tsg, level, pid)

    # The next level's band check, or the final one, checks what this left.
    _erase_above(tsg, phase, sorted(survivors))
    tsg.record("phase", level=level, splits=phase.splits, markings=phase.markings)
    return phase


def _erase_above(tsg: TwoStrategyGame, phase: PhaseState, pids: list[int]) -> None:
    """Erase the multi players among ``pids`` that cost more than the level
    cost, by one rule for each in turn: queue it if it is tracked to one
    resource, else split it.

    Each queued player takes one marking round: the next unmarked singleton
    donor from the level resources, in cyclic round-robin order, merges its
    tracked strategy into the player's, the player is split, and the donor is
    re-tracked to its resource and marked.  The round's sub-players go through
    the same rule (a queued one's strategy is strictly smaller, so the rounds
    terminate).
    """
    level = phase.level
    level_cost = delay(level, tsg.degree)
    queue: deque[int] = deque()
    order: tuple[int, ...] | None = None
    while True:
        for pid in pids:
            player = tsg.players[pid]
            if player.is_singleton or tsg.cost(pid) <= level_cost:
                continue
            if len(player.opt_strategy) == 1:
                queue.append(pid)
            else:
                split_player(tsg, pid)
                phase.splits += 1
        if not queue:
            return
        if order is None:
            # Round-robin donor order over the level resources as the first
            # round finds them, and the position the next search starts at.
            singles = {r: len(ids) for r, ids in tsg._singles.items()
                       if ids and tsg._eq_cong[r] == level}
            order = tuple(sorted(singles, key=lambda r: (singles[r], r)))
            cursor = 0
            at_level = sum(tsg._eq_cong[r] == level for r in tsg._played())
            mark_budget = 4 * max(1, tsg.opt_bottleneck) * max(1, at_level) + 64

        pid = queue.popleft()
        player = tsg.players[pid]
        if phase.markings >= mark_budget:
            raise StructuralError(f"marking budget exhausted at level {level}")
        donor_pick = _pick_donor(tsg, order, cursor, player)
        if donor_pick is None:
            raise StructuralError(f"no unmarked donor available at level {level} for player {pid}")
        qid, resource, position = donor_pick
        donor = tsg.players[qid]
        tsg.retrack(pid, set(donor.opt_strategy) | set(player.opt_strategy))
        pids = split_player(tsg, pid)
        phase.splits += 1
        tsg.retrack(qid, (resource,))
        donor.marked = True
        phase.markings += 1
        cursor = (position + 1) % len(order)
        tsg.record("mark", donor=qid, resource=resource, player=pid, new_ids=pids)


def _pick_donor(
    tsg: TwoStrategyGame, order: tuple[int, ...], cursor: int, player: TwoStrategyPlayer
) -> tuple[int, int, int] | None:
    """Next unmarked singleton donor in round-robin order over ``order``,
    starting at ``cursor``, whose tracked strategy is disjoint from the
    player's strategies."""
    avoid = set(player.opt_strategy) | set(player.eq_strategy)
    for step in range(len(order)):
        position = (cursor + step) % len(order)
        resource = order[position]
        for qid in tsg.singles_on(resource):
            q = tsg.players[qid]
            if not q.marked and not set(q.opt_strategy) & avoid:
                return qid, resource, position
    return None


# ---------------------------------------------------------------------------
# Full transformation and its verification
# ---------------------------------------------------------------------------

def transform_to_singletons(
    game: Game,
    nash_profile: Sequence[int],
    optimal_profile: Sequence[int],
    trace: list | None = None,
) -> TwoStrategyGame:
    """Rewrite the game, in its given equilibrium, so that every resource with
    congestion above max(2*degree, 3*optimal bottleneck) is used only by
    singleton players.  The equilibrium congestion vector is preserved
    exactly; the tracked optimal bottleneck is checked by
    ``verify_domination``."""
    tsg = init_two_strategy(game, nash_profile, optimal_profile, trace=trace)
    clean_game(tsg)
    if tsg.eq_bottleneck <= tsg.threshold:
        tsg.no_op = True
        tsg.record("no_op", reason="bottleneck at or below threshold")
        return tsg

    for pid in _multis_costing(tsg, delay(tsg.eq_bottleneck + 1, tsg.degree)):
        split_player(tsg, pid)

    for level in range(tsg.eq_bottleneck, tsg.threshold, -1):
        run_phase(tsg, level)

    tsg.check_equilibrium()
    _band(tsg, tsg.threshold)
    return tsg


@dataclass(frozen=True)
class DominationReport:
    resources_ok: bool  # same num_resources, every played or tracked id in range
    degree_ok: bool  # same degree
    eq_congestion_ok: bool  # the roster's equilibrium congestion is the game's
    equilibrium_ok: bool  # no tracked strategy strictly cheaper than the played one
    opt_bottleneck: int  # most players tracked to one resource
    original_opt_bottleneck: int
    growth: Fraction  # tracked optimal bottleneck / original optimal bottleneck
    not_below_original: bool
    within_factor_seven: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.resources_ok
            and self.degree_ok
            and self.eq_congestion_ok
            and self.equilibrium_ok
            and self.not_below_original
            and self.within_factor_seven
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "resources_ok": self.resources_ok,
            "degree_ok": self.degree_ok,
            "eq_congestion_ok": self.eq_congestion_ok,
            "equilibrium_ok": self.equilibrium_ok,
            "opt_bottleneck": self.opt_bottleneck,
            "original_opt_bottleneck": self.original_opt_bottleneck,
            "growth_num": self.growth.numerator,
            "growth_den": self.growth.denominator,
            "not_below_original": self.not_below_original,
            "within_factor_seven": self.within_factor_seven,
            "all_ok": self.all_ok,
        }


def verify_domination(
    game: Game,
    nash_profile: Sequence[int],
    tsg: TwoStrategyGame,
    strict: bool = True,
) -> DominationReport:
    """Check the transformed game against the domination contract: no new
    resources, same degree, identical equilibrium congestion, everyone still
    stable, and tracked optimal bottleneck within 7x the original.  Every flag
    is recounted from ``tsg.players`` (one count of played resources, one of
    tracked ones), not read from the workspace's congestion; a broken roster
    reads false, or raises ``DominationError`` when ``strict``."""
    played = Counter(chain.from_iterable(p.eq_strategy for p in tsg.players.values()))
    tracked = tsg.opt_congestion()
    resources_ok = tsg.num_resources == game.num_resources and all(
        0 <= r < game.num_resources for r in played.keys() | tracked.keys()
    )
    degree_ok = tsg.degree == game.degree
    nash_profile = validate_profile(game, nash_profile)
    eq_congestion_ok = played == Counter(
        r for i in range(game.num_players) for r in game.chosen(nash_profile, i)
    )
    equilibrium_ok = all(
        switch_cost(played, p.eq_strategy, p.eq_strategy, tsg.degree)
        <= switch_cost(played, p.eq_strategy, p.opt_strategy, tsg.degree)
        for p in tsg.players.values()
    )
    opt_bottleneck = max(tracked.values(), default=0)
    original = tsg.opt_bottleneck
    growth = Fraction(opt_bottleneck, original) if original else Fraction(0)
    report = DominationReport(
        resources_ok=resources_ok,
        degree_ok=degree_ok,
        eq_congestion_ok=eq_congestion_ok,
        equilibrium_ok=equilibrium_ok,
        opt_bottleneck=opt_bottleneck,
        original_opt_bottleneck=original,
        growth=growth,
        not_below_original=opt_bottleneck >= original,
        within_factor_seven=opt_bottleneck <= 7 * original,
    )
    if strict and not report.all_ok:
        raise DominationError(f"domination checks failed: {report.to_dict()}")
    return report
