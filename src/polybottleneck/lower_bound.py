"""Generator for the tight lower-bound game family.

The family has n players sharing one direct resource, each with a private
detour of n**M fresh resources, so the all-direct state is a (weakly) stable
equilibrium with bottleneck n while the all-detour state has bottleneck 1.
With num_resources = n**(M+1) this witnesses a price of anarchy of exactly
num_resources**(1/(M+1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from . import equilibria
from .errors import StateSpaceTooLargeError, StructuralError, UsageError
from .game_core import Game, Profile, bottleneck, congestion_of


@dataclass(frozen=True)
class LowerBoundInstance:
    n: int
    degree: int
    path_len: int
    num_resources: int
    game: Game
    state_all_direct: Profile   # every player on the shared resource
    state_all_paths: Profile    # every player on its private detour


@dataclass(frozen=True)
class LowerBoundReport:
    n: int
    degree: int
    num_resources: int
    direct_is_nash: bool
    direct_bottleneck: int
    paths_bottleneck: int
    poa: Fraction
    resource_exponent_value: float  # num_resources ** (1 / (degree + 1))
    exact_match: bool               # poa == n == that value

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "degree": self.degree,
            "num_resources": self.num_resources,
            "direct_is_nash": self.direct_is_nash,
            "C": self.direct_bottleneck,
            "C_star": self.paths_bottleneck,
            "poa_num": self.poa.numerator,
            "poa_den": self.poa.denominator,
            "resource_exponent_value": round(self.resource_exponent_value, 6),
            "exact_match": self.exact_match,
        }


def generate(n: int, degree: int, resource_cap: int = 10**6) -> LowerBoundInstance:
    """Build the instance with n players and delay degree M.

    Resource 0 is the shared direct resource and doubles as the first hop of
    player 0's detour, so player 0 strictly prefers the direct strategy while
    every other player is exactly indifferent.
    """
    if n < 2:
        raise UsageError(f"need n >= 2 players, got {n}")
    if degree < 1:
        raise UsageError(f"degree must be >= 1, got {degree}")
    path_len = n**degree
    num_resources = n ** (degree + 1)
    if num_resources > resource_cap:
        raise StateSpaceTooLargeError(
            f"instance needs {num_resources} resources, above the cap {resource_cap}"
        )
    players = []
    for i in range(n):
        path = list(range(i * path_len, (i + 1) * path_len))
        players.append([[0], path])
    game = Game.build(num_resources=num_resources, degree=degree, players=players)
    return LowerBoundInstance(
        n=n,
        degree=degree,
        path_len=path_len,
        num_resources=num_resources,
        game=game,
        state_all_direct=tuple([0] * n),
        state_all_paths=tuple([1] * n),
    )


def verify(instance: LowerBoundInstance, cap: int | None = None) -> LowerBoundReport:
    """Check the constructed states and measure the exact price of anarchy."""
    game = instance.game
    direct_is_nash = equilibria.is_nash(game, instance.state_all_direct)
    direct_c = bottleneck(congestion_of(game, instance.state_all_direct))
    paths_c = bottleneck(congestion_of(game, instance.state_all_paths))
    poa_report = equilibria.price_of_anarchy(game, cap=cap)
    value = instance.num_resources ** (1.0 / (instance.degree + 1))
    report = LowerBoundReport(
        n=instance.n,
        degree=instance.degree,
        num_resources=instance.num_resources,
        direct_is_nash=direct_is_nash,
        direct_bottleneck=direct_c,
        paths_bottleneck=paths_c,
        poa=poa_report.poa,
        resource_exponent_value=value,
        exact_match=(
            direct_is_nash
            and direct_c == instance.n
            and paths_c == 1
            and poa_report.poa == Fraction(instance.n, 1)
        ),
    )
    if not report.exact_match:
        raise StructuralError(f"lower-bound construction is broken: {report.to_dict()}")
    return report
