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

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

from . import equilibria
from .errors import DominationError, PreconditionError, StructuralError
from .game_core import Game, Profile, bottleneck, congestion_of, delay, validate_profile


@dataclass
class TwoStrategyPlayer:
    """One roster entry: what the player plays, and where it is tracked to."""

    eq_strategy: tuple[int, ...]
    opt_strategy: tuple[int, ...]
    marked: bool = False

    @property
    def is_singleton(self) -> bool:
        return len(self.eq_strategy) == 1


@dataclass(frozen=True)
class PartitionPair:
    """One output element of the greedy strategy partition."""

    eq_part: tuple[int, ...]
    opt_part: tuple[int, ...]


@dataclass
class PhaseState:
    """Working state and summary of one congestion level of the phase loop."""

    level: int
    band: list[int] = field(default_factory=list)       # multi players in the cost band
    level_resources: tuple[int, ...] = ()               # congestion exactly == level
    spread: list[int] = field(default_factory=list)     # wide low-congestion tracked sets
    locked: list[int] = field(default_factory=list)     # tracked to one level resource
    markable_resources: tuple[int, ...] = ()            # round-robin donor order
    cursor: int = 0
    markings: int = 0
    splits: int = 0


class TwoStrategyGame:
    """Mutable transformation workspace.

    The profile in which every player plays its equilibrium strategy must be
    a weak Nash equilibrium of the induced game at every step; the
    equilibrium congestion vector never changes.
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
        self._eq_cong = np.zeros(num_resources, dtype=np.int64)

    # -- roster -------------------------------------------------------------

    def add_player(
        self, eq_strategy: Iterable[int], opt_strategy: Iterable[int], marked: bool = False
    ) -> int:
        pid = self._next_id
        self._next_id += 1
        player = TwoStrategyPlayer(
            eq_strategy=tuple(sorted(eq_strategy)),
            opt_strategy=tuple(sorted(opt_strategy)),
            marked=marked,
        )
        if not player.eq_strategy:
            raise StructuralError("refusing to add a player with an empty equilibrium strategy")
        self.players[pid] = player
        for r in player.eq_strategy:
            self._eq_cong[r] += 1
        return pid

    def remove_player(self, pid: int) -> TwoStrategyPlayer:
        player = self.players.pop(pid)
        for r in player.eq_strategy:
            self._eq_cong[r] -= 1
        return player

    def player_ids(self) -> list[int]:
        return sorted(self.players)

    def record(self, op: str, **details: Any) -> None:
        if self.trace is not None:
            self.trace.append({"op": op, **details})

    # -- congestion and costs ------------------------------------------------

    def eq_congestion(self) -> np.ndarray:
        return self._eq_cong.copy()

    def opt_congestion(self) -> np.ndarray:
        counts = np.zeros(self.num_resources, dtype=np.int64)
        for player in self.players.values():
            for r in player.opt_strategy:
                counts[r] += 1
        return counts

    def tracked_opt_bottleneck(self) -> int:
        return bottleneck(self.opt_congestion())

    def cost(self, pid: int) -> int:
        player = self.players[pid]
        return sum(delay(int(self._eq_cong[r]), self.degree) for r in player.eq_strategy)

    def deviation(self, pid: int, opt: Sequence[int] | None = None) -> int | None:
        """Cost of switching to the tracked strategy; None when there is none."""
        player = self.players[pid]
        target = player.opt_strategy if opt is None else tuple(opt)
        if not target:
            return None
        eq_set = set(player.eq_strategy)
        total = 0
        for r in target:
            c = int(self._eq_cong[r]) + (0 if r in eq_set else 1)
            total += delay(c, self.degree)
        return total

    def in_equilibrium(self, pid: int) -> bool:
        dev = self.deviation(pid)
        return dev is None or self.cost(pid) <= dev

    def check_equilibrium(self) -> None:
        for pid in self.player_ids():
            if not self.in_equilibrium(pid):
                raise StructuralError(
                    f"player {pid} is no longer in equilibrium",
                    state=self.to_dict(),
                )

    # -- views ----------------------------------------------------------------

    def induced_game(self) -> tuple[Game, Profile]:
        """The game where each player has its two strategies, plus the profile
        in which everyone plays the equilibrium one."""
        players = []
        for pid in self.player_ids():
            p = self.players[pid]
            if not p.opt_strategy or p.opt_strategy == p.eq_strategy:
                players.append([list(p.eq_strategy)])
            else:
                players.append([list(p.eq_strategy), list(p.opt_strategy)])
        game = Game.build(self.num_resources, self.degree, players)
        return game, tuple([0] * len(players))

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
    per player.  The equilibrium profile must actually be a weak Nash state."""
    nash_profile = validate_profile(game, nash_profile)
    optimal_profile = validate_profile(game, optimal_profile)
    if not equilibria.is_nash(game, nash_profile):
        raise PreconditionError("the supplied equilibrium profile is not a weak Nash state")
    eq_c = bottleneck(congestion_of(game, nash_profile))
    opt_c = bottleneck(congestion_of(game, optimal_profile))
    threshold = max(2 * game.degree, 3 * opt_c)
    tsg = TwoStrategyGame(
        num_resources=game.num_resources,
        degree=game.degree,
        threshold=threshold,
        eq_bottleneck=eq_c,
        opt_bottleneck=opt_c,
        trace=trace,
    )
    for i in range(game.num_players):
        tsg.add_player(game.chosen(nash_profile, i), game.chosen(optimal_profile, i))
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
    before_eq = tsg.eq_congestion()
    before_opt = tsg.opt_congestion()
    for pid in tsg.player_ids():
        player = tsg.players[pid]
        if player.is_singleton:
            continue
        overlap = sorted(set(player.eq_strategy) & set(player.opt_strategy))
        if not overlap:
            continue
        rest_eq = sorted(set(player.eq_strategy) - set(overlap))
        rest_opt = sorted(set(player.opt_strategy) - set(overlap))
        tsg.remove_player(pid)
        split_ids = [tsg.add_player([r], [r]) for r in overlap]
        if rest_eq:
            tsg.add_player(rest_eq, rest_opt)
        elif rest_opt:
            # Everything the player used is shared; hand the leftover tracked
            # resources to the first split so no tracked membership is lost.
            first = tsg.players[split_ids[0]]
            first.opt_strategy = tuple(sorted(set(first.opt_strategy) | set(rest_opt)))
        tsg.record("clean_split", player=pid, overlap=overlap)

    # Redundancy pruning, low congestion first, for singleton players on
    # resources above the threshold (their tracked sets feed the resource
    # graph analysis).
    for pid in tsg.player_ids():
        player = tsg.players[pid]
        if not player.is_singleton:
            continue
        if int(tsg._eq_cong[player.eq_strategy[0]]) <= tsg.threshold:
            continue
        changed = True
        while changed and len(player.opt_strategy) > 1:
            changed = False
            order = sorted(player.opt_strategy, key=lambda r: (int(tsg._eq_cong[r]), r))
            for r in order:
                pruned = tuple(x for x in player.opt_strategy if x != r)
                dev = tsg.deviation(pid, pruned)
                if dev is not None and tsg.cost(pid) <= dev:
                    player.opt_strategy = pruned
                    changed = True
                    tsg.record("prune", player=pid, removed=r)
                    break

    if not np.array_equal(tsg.eq_congestion(), before_eq):
        raise StructuralError("cleaning changed the equilibrium congestion", state=tsg.to_dict())
    # Splitting preserves tracked congestion; pruning may only lower it.
    if bool(np.any(tsg.opt_congestion() > before_opt)):
        raise StructuralError("cleaning raised a tracked congestion", state=tsg.to_dict())
    tsg.check_equilibrium()
    for pid in tsg.player_ids():
        p = tsg.players[pid]
        if not p.is_singleton and set(p.eq_strategy) & set(p.opt_strategy):
            raise StructuralError(
                f"multi player {pid} still overlaps its tracked strategy", state=tsg.to_dict()
            )
    return tsg


# ---------------------------------------------------------------------------
# Greedy cover partition
# ---------------------------------------------------------------------------

def greedy_cover_pairs(
    eq_items: Sequence[tuple[int, int]],
    opt_items: Sequence[tuple[int, int]],
    degree: int,
) -> list[PartitionPair]:
    """Pair equilibrium resources with covering tracked resources.

    ``eq_items`` and ``opt_items`` are (resource id, congestion) lists for a
    player whose two strategies are disjoint.  Requires the equilibrium
    inequality sum((c+1)**M over tracked) >= sum(c**M over played); produces
    pairs where the tracked side always covers the played side at +1
    congestion, the played sides partition the strategy, every pair has a
    singleton side, consecutive tracked sides share at most one boundary
    resource, and no tracked resource appears in more than two pairs.
    """
    if not eq_items:
        raise PreconditionError("nothing to partition: empty equilibrium strategy")
    eq = sorted(eq_items, key=lambda rc: (-rc[1], rc[0]))
    opt = sorted(opt_items, key=lambda rc: (rc[1], rc[0]))
    m = len(opt)
    needs = [c**degree for _, c in eq]
    values = [(c + 1) ** degree for _, c in opt]
    if sum(values) < sum(needs):
        raise PreconditionError(
            "player is not in equilibrium: tracked resources cannot cover its cost"
        )
    uses = [0] * m
    pairs: list[PartitionPair] = []
    start = 0
    i = 0
    while i < len(eq):
        need = needs[i]
        group = [eq[i][0]]
        cover: list[int] = []
        total = 0
        q = start
        boundary = start
        while total < need:
            while q < m and uses[q] >= 2:
                q += 1
            if q >= m:
                raise StructuralError(
                    "ran out of tracked resources while forming cover pairs",
                    state={"eq": list(eq), "opt": list(opt), "pairs": [p for p in pairs]},
                )
            cover.append(opt[q][0])
            uses[q] += 1
            total += values[q]
            boundary = q
            if total < need:
                q += 1
        i += 1
        start = boundary if uses[boundary] < 2 else boundary + 1
        if len(cover) == 1 and boundary == m - 1:
            # Last tracked resource: absorb further played resources while the
            # single cover still dominates them.
            capacity = values[boundary]
            cover_c = opt[boundary][1]
            group_mass = need
            while i < len(eq):
                rid, c = eq[i]
                if c > cover_c or group_mass + needs[i] > capacity:
                    break
                group.append(rid)
                group_mass += needs[i]
                i += 1
        pairs.append(PartitionPair(tuple(sorted(group)), tuple(sorted(cover))))

    # Use as much of the tracked strategy as possible: sweep leftover tracked
    # resources into the final pair when its played side is a singleton.
    leftover = [opt[j][0] for j in range(m) if uses[j] == 0]
    if leftover and len(pairs[-1].eq_part) == 1:
        last = pairs[-1]
        pairs[-1] = PartitionPair(
            last.eq_part, tuple(sorted(set(last.opt_part) | set(leftover)))
        )
    return pairs


def partition_pairs(tsg: TwoStrategyGame, pid: int) -> list[PartitionPair]:
    """Greedy cover partition of a multi player's two strategies."""
    player = tsg.players[pid]
    if player.is_singleton:
        raise PreconditionError(f"player {pid} already uses a single resource")
    if set(player.eq_strategy) & set(player.opt_strategy):
        raise PreconditionError(
            f"player {pid} has overlapping strategies; clean the game first"
        )
    eq_items = [(r, int(tsg._eq_cong[r])) for r in player.eq_strategy]
    opt_items = [(r, int(tsg._eq_cong[r])) for r in player.opt_strategy]
    return greedy_cover_pairs(eq_items, opt_items, tsg.degree)


def split_player(tsg: TwoStrategyGame, pid: int) -> list[int]:
    """Replace a multi player by one sub-player per cover pair.

    Equilibrium congestion is untouched; every sub-player is in equilibrium
    with cost at most the old player's cost.
    """
    pairs = partition_pairs(tsg, pid)
    old_cost = tsg.cost(pid)
    old_opt = tsg.players[pid].opt_strategy
    max_opt_c = max(int(tsg._eq_cong[r]) for r in old_opt) if old_opt else 0
    before_eq = tsg.eq_congestion()
    tsg.remove_player(pid)
    new_ids = [tsg.add_player(p.eq_part, p.opt_part) for p in pairs]
    tsg.record("split", player=pid, new_ids=new_ids,
               pairs=[[list(p.eq_part), list(p.opt_part)] for p in pairs])
    if not np.array_equal(tsg.eq_congestion(), before_eq):
        raise StructuralError(
            f"splitting player {pid} changed the equilibrium congestion", state=tsg.to_dict()
        )
    cap = delay(max_opt_c + 1, tsg.degree)
    for nid in new_ids:
        c = tsg.cost(nid)
        if c > old_cost:
            raise StructuralError(
                f"sub-player {nid} of {pid} costs {c}, more than {old_cost}", state=tsg.to_dict()
            )
        if not tsg.players[nid].is_singleton and c > cap:
            raise StructuralError(
                f"multi sub-player {nid} of {pid} costs {c}, above {cap}", state=tsg.to_dict()
            )
        if not tsg.in_equilibrium(nid):
            raise StructuralError(
                f"sub-player {nid} of {pid} is not in equilibrium",
                state=tsg.to_dict(),
            )
    return new_ids


# ---------------------------------------------------------------------------
# Phase machinery
# ---------------------------------------------------------------------------

def eliminate_high_congestion(tsg: TwoStrategyGame, phase: PhaseState, pid: int) -> None:
    """Rewire a player tracked to one over-congested resource.

    While the player's tracked strategy is a single resource with congestion
    above the phase level, a singleton player of that resource donates (part
    of) its own tracked strategy and is itself re-tracked to the resource it
    plays.  Neither congestion vector changes on the affected resources.
    """
    level = phase.level
    player = tsg.players[pid]
    while len(player.opt_strategy) == 1 and int(tsg._eq_cong[player.opt_strategy[0]]) > level:
        x = player.opt_strategy[0]
        hosts = [
            qid
            for qid, q in tsg.players.items()
            if qid != pid and q.is_singleton and q.eq_strategy[0] == x
        ]
        if not hosts:
            raise StructuralError(
                f"no singleton player available on over-congested resource {x}",
                state=tsg.to_dict(),
            )
        hosts.sort(key=lambda qid: (-len(tsg.players[qid].opt_strategy), qid))
        cost = tsg.cost(pid)
        eq_set = set(player.eq_strategy)
        chosen = None
        for qid in hosts:
            donor = tsg.players[qid]
            high = [
                r for r in donor.opt_strategy if int(tsg._eq_cong[r]) >= level
            ]
            if high:
                high.sort(key=lambda r: (int(tsg._eq_cong[r]), r))
                fset = (high[0],)
            else:
                fset = donor.opt_strategy
            if fset == (x,):
                continue  # would not make progress
            if not player.is_singleton and set(fset) & eq_set:
                continue  # multi players must stay separable for later splits
            dev = tsg.deviation(pid, fset)
            if dev is not None and cost <= dev:
                chosen = (qid, fset)
                break
        if chosen is None:
            raise StructuralError(
                f"no usable donor on over-congested resource {x} for player {pid}",
                state=tsg.to_dict(),
            )
        qid, fset = chosen
        before_opt = tsg.opt_congestion()
        player.opt_strategy = tuple(sorted(fset))
        tsg.players[qid].opt_strategy = (x,)
        tsg.record("eliminate", player=pid, donor=qid, resource=x, new_opt=list(fset))
        after_opt = tsg.opt_congestion()
        # Rewiring may only release tracked load, never add to it.
        if bool(np.any(after_opt > before_opt)):
            raise StructuralError(
                "tracked congestion increased during elimination",
                state=tsg.to_dict(),
            )


def _band(tsg: TwoStrategyGame, level: int) -> list[int]:
    low = delay(level, tsg.degree)
    high = delay(level + 1, tsg.degree)
    out = [
        pid
        for pid in tsg.player_ids()
        if not tsg.players[pid].is_singleton and low < tsg.cost(pid) <= high
    ]
    out.sort(key=lambda pid: (-tsg.cost(pid), pid))
    return out


def run_phase(tsg: TwoStrategyGame, level: int) -> PhaseState:
    """Erase all multi players with cost above level**degree at this level."""
    phase = PhaseState(level=level)
    level_cost = delay(level, tsg.degree)
    upper_cost = delay(level + 1, tsg.degree)

    for pid in tsg.player_ids():
        p = tsg.players[pid]
        if p.is_singleton:
            continue
        if tsg.cost(pid) > upper_cost:
            raise StructuralError(
                f"multi player {pid} above the band at level {level}", state=tsg.to_dict()
            )
        for r in p.eq_strategy:
            if int(tsg._eq_cong[r]) > level:
                raise StructuralError(
                    f"multi player {pid} plays over-congested resource {r}", state=tsg.to_dict()
                )

    phase.band = _band(tsg, level)
    for pid in phase.band:
        split_player(tsg, pid)
        phase.splits += 1

    # Survivors of the band now track exactly one resource, congested at
    # least to the level.
    survivors = _band(tsg, level)
    for pid in survivors:
        opt = tsg.players[pid].opt_strategy
        if len(opt) != 1 or int(tsg._eq_cong[opt[0]]) < level:
            raise StructuralError(
                f"band survivor {pid} is not tracked to one resource at level {level} "
                f"or above", state=tsg.to_dict()
            )

    qualified = list(survivors)
    for pid in tsg.player_ids():
        p = tsg.players[pid]
        if p.is_singleton and len(p.opt_strategy) == 1 and tsg.cost(pid) == level_cost:
            qualified.append(pid)
    qualified = sorted(set(qualified))

    for pid in qualified:
        eliminate_high_congestion(tsg, phase, pid)

    def classify(pid: int) -> str:
        p = tsg.players[pid]
        if len(p.opt_strategy) == 1:
            if int(tsg._eq_cong[p.opt_strategy[0]]) == level:
                return "locked"
            return "other"
        max_c = max(int(tsg._eq_cong[r]) for r in p.opt_strategy)
        mass = sum(delay(int(tsg._eq_cong[r]) + 1, tsg.degree) for r in p.opt_strategy)
        if max_c <= level - 1 and mass >= upper_cost:
            return "spread"
        return "other"

    for pid in qualified:
        kind = classify(pid)
        p = tsg.players[pid]
        if kind == "spread":
            phase.spread.append(pid)
        elif kind == "locked":
            phase.locked.append(pid)
        elif not p.is_singleton:
            raise StructuralError(
                f"multi player {pid} fits neither phase bucket", state=tsg.to_dict()
            )

    for pid in phase.spread:
        if not tsg.players[pid].is_singleton:
            split_player(tsg, pid)
            phase.splits += 1

    _resolve_locked(tsg, phase)

    for pid in tsg.player_ids():
        if not tsg.players[pid].is_singleton and tsg.cost(pid) > level_cost:
            raise StructuralError(
                f"multi player {pid} still above level {level}", state=tsg.to_dict()
            )
    tsg.check_equilibrium()
    tsg.record("phase", level=level, splits=phase.splits, markings=phase.markings)
    return phase


def _resolve_locked(tsg: TwoStrategyGame, phase: PhaseState) -> None:
    """Transform multi players tracked to a single level resource.

    Each round picks an unmarked singleton donor from the level resources in
    cyclic round-robin order, merges its tracked strategy into the player's,
    splits the player, and re-tracks + marks the donor.  Any sub-player still
    above the level cost re-enters the queue (its strategy is strictly
    smaller, so the rounds terminate).
    """
    level = phase.level
    level_cost = delay(level, tsg.degree)
    singles_on = {}
    for qid in tsg.player_ids():
        q = tsg.players[qid]
        if q.is_singleton and int(tsg._eq_cong[q.eq_strategy[0]]) == level:
            singles_on.setdefault(q.eq_strategy[0], []).append(qid)
    phase.level_resources = tuple(sorted(
        int(r) for r in np.nonzero(tsg._eq_cong == level)[0]
    ))
    phase.markable_resources = tuple(sorted(
        singles_on, key=lambda r: (len(singles_on[r]), r)
    ))
    queue = deque(pid for pid in phase.locked if not tsg.players[pid].is_singleton)
    mark_budget = 4 * max(1, tsg.opt_bottleneck) * max(1, len(phase.level_resources)) + 64

    while queue:
        pid = queue.popleft()
        player = tsg.players[pid]
        if phase.markings >= mark_budget:
            raise StructuralError(
                f"marking budget exhausted at level {level}", state=tsg.to_dict()
            )
        donor_pick = _pick_donor(tsg, phase, player)
        if donor_pick is None:
            raise StructuralError(
                f"no unmarked donor available at level {level} for player {pid}",
                state=tsg.to_dict(),
            )
        qid, resource, position = donor_pick
        donor = tsg.players[qid]
        merged = sorted(set(donor.opt_strategy) | set(player.opt_strategy))
        player.opt_strategy = tuple(merged)
        if not tsg.in_equilibrium(pid):
            raise StructuralError(
                f"merged tracked strategy broke equilibrium of {pid}",
                state=tsg.to_dict(),
            )
        new_ids = split_player(tsg, pid)
        phase.splits += 1
        donor.opt_strategy = (resource,)
        donor.marked = True
        phase.markings += 1
        phase.cursor = (position + 1) % max(1, len(phase.markable_resources))
        tsg.record("mark", donor=qid, resource=resource, player=pid, new_ids=new_ids)
        for nid in new_ids:
            p = tsg.players[nid]
            if p.is_singleton or tsg.cost(nid) <= level_cost:
                continue
            if len(p.opt_strategy) == 1 and int(tsg._eq_cong[p.opt_strategy[0]]) > level:
                eliminate_high_congestion(tsg, phase, nid)
                p = tsg.players[nid]
            if len(p.opt_strategy) == 1:
                queue.append(nid)
            else:
                split_player(tsg, nid)
                phase.splits += 1


def _pick_donor(
    tsg: TwoStrategyGame, phase: PhaseState, player: TwoStrategyPlayer
) -> tuple[int, int, int] | None:
    """Next unmarked singleton donor in round-robin order whose tracked
    strategy is disjoint from the player's strategies."""
    order = phase.markable_resources
    if not order:
        return None
    avoid = set(player.opt_strategy) | set(player.eq_strategy)
    for step in range(len(order)):
        position = (phase.cursor + step) % len(order)
        resource = order[position]
        candidates = [
            qid
            for qid, q in tsg.players.items()
            if q.is_singleton
            and not q.marked
            and q.eq_strategy[0] == resource
            and not set(q.opt_strategy) & avoid
        ]
        if candidates:
            return min(candidates), resource, position
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

    before_eq = tsg.eq_congestion()
    top_cost = delay(tsg.eq_bottleneck + 1, tsg.degree)
    heavy = [
        pid
        for pid in tsg.player_ids()
        if not tsg.players[pid].is_singleton and tsg.cost(pid) > top_cost
    ]
    heavy.sort(key=lambda pid: (-tsg.cost(pid), pid))
    for pid in heavy:
        split_player(tsg, pid)

    for level in range(tsg.eq_bottleneck, tsg.threshold, -1):
        run_phase(tsg, level)

    if not np.array_equal(tsg.eq_congestion(), before_eq):
        raise StructuralError(
            "the transformation changed the equilibrium congestion", state=tsg.to_dict()
        )
    tsg.check_equilibrium()
    for pid in tsg.player_ids():
        p = tsg.players[pid]
        if p.is_singleton:
            continue
        for r in p.eq_strategy:
            if int(tsg._eq_cong[r]) > tsg.threshold:
                raise StructuralError(
                    f"multi player {pid} left on over-congested resource {r}",
                    state=tsg.to_dict(),
                )
    return tsg


@dataclass(frozen=True)
class DominationReport:
    resources_ok: bool
    degree_ok: bool
    eq_congestion_ok: bool
    equilibrium_ok: bool
    opt_bottleneck: int
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
    """Check the transformed game against the domination contract:
    no new resources, same degree, identical equilibrium congestion, everyone
    still stable, and tracked optimal bottleneck within 7x the original."""
    used = set()
    for p in tsg.players.values():
        used.update(p.eq_strategy)
        used.update(p.opt_strategy)
    resources_ok = (
        tsg.num_resources == game.num_resources and len(used) <= game.num_resources
    )
    degree_ok = tsg.degree == game.degree
    eq_congestion_ok = bool(
        np.array_equal(tsg.eq_congestion(), congestion_of(game, nash_profile))
    )
    induced, eq_profile = tsg.induced_game()
    equilibrium_ok = equilibria.is_nash(induced, eq_profile)
    tracked = tsg.tracked_opt_bottleneck()
    original = tsg.opt_bottleneck
    growth = Fraction(tracked, original) if original else Fraction(0)
    report = DominationReport(
        resources_ok=resources_ok,
        degree_ok=degree_ok,
        eq_congestion_ok=eq_congestion_ok,
        equilibrium_ok=equilibrium_ok,
        opt_bottleneck=tracked,
        original_opt_bottleneck=original,
        growth=growth,
        not_below_original=tracked >= original,
        within_factor_seven=tracked <= 7 * original,
    )
    if strict and not report.all_ok:
        raise DominationError(f"domination checks failed: {report.to_dict()}")
    return report
