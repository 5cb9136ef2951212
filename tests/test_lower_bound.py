import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from polybottleneck import lower_bound
from polybottleneck.errors import StateSpaceTooLargeError, StructuralError
from polybottleneck.game_core import congestion_of, player_cost


class TestGenerate:
    @pytest.mark.parametrize(
        "n,degree,resources,path_len",
        [(2, 1, 4, 2), (4, 1, 16, 4), (2, 2, 8, 4), (3, 2, 27, 9)],
    )
    def test_dimensions(self, n, degree, resources, path_len):
        inst = lower_bound.generate(n, degree)
        assert inst.num_resources == resources
        assert inst.path_len == path_len
        assert inst.game.num_players == n
        for i in range(n):
            assert len(inst.game.strategies[i][1]) == path_len

    def test_shared_resource_inside_first_detour(self):
        inst = lower_bound.generate(3, 1)
        assert 0 in inst.game.strategies[0][1]
        for i in range(1, 3):
            assert 0 not in inst.game.strategies[i][1]

    def test_detours_are_disjoint(self):
        inst = lower_bound.generate(4, 2)
        seen = set()
        for i in range(4):
            path = set(inst.game.strategies[i][1])
            assert not (path & seen)
            seen |= path

    def test_rejects_tiny_or_oversized_instances(self):
        with pytest.raises(ValueError):
            lower_bound.generate(1, 1)
        with pytest.raises(ValueError):
            lower_bound.generate(2, 0)
        with pytest.raises(StateSpaceTooLargeError):
            lower_bound.generate(100, 3, resource_cap=10**6)


class TestIndifference:
    @pytest.mark.parametrize("n,degree", [(2, 1), (4, 1), (3, 2)])
    def test_exact_costs_in_direct_state(self, n, degree):
        inst = lower_bound.generate(n, degree)
        state = inst.state_all_direct
        for i in range(n):
            assert player_cost(inst.game, state, i) == n**degree
        # deviation to a detour costs exactly the same for everyone except
        # the owner of the detour containing the shared resource
        for i in range(1, n):
            trial = list(state)
            trial[i] = 1
            assert player_cost(inst.game, tuple(trial), i) == n**degree
        trial = list(state)
        trial[0] = 1
        assert player_cost(inst.game, tuple(trial), 0) > n**degree


class TestVerify:
    @pytest.mark.parametrize(
        "n,degree,poa",
        [(2, 1, 2), (4, 1, 4), (3, 2, 3)],
    )
    def test_exact_price_of_anarchy(self, n, degree, poa):
        inst = lower_bound.generate(n, degree)
        report = lower_bound.verify(inst)
        assert report.poa == Fraction(poa, 1)
        assert report.direct_is_nash
        assert report.direct_bottleneck == n
        assert report.paths_bottleneck == 1
        assert report.exact_match
        assert report.resource_exponent_value == pytest.approx(float(n))

    def test_tampered_instance_is_rejected(self):
        inst = lower_bound.generate(3, 1)
        tampered = dataclasses.replace(inst, state_all_direct=inst.state_all_paths)
        with pytest.raises(StructuralError, match="construction is broken"):
            lower_bound.verify(tampered)

    def test_path_state_has_unit_congestion(self):
        inst = lower_bound.generate(5, 1)
        counts = congestion_of(inst.game, inst.state_all_paths)
        assert counts.max() == 1
        assert counts.min() == 1  # every resource belongs to exactly one detour


class TestScalingExponent:
    def test_log_log_slope_matches_exponent(self):
        for degree, ns in [(1, range(2, 7)), (2, range(2, 5))]:
            sizes, poas = [], []
            for n in ns:
                inst = lower_bound.generate(n, degree)
                report = lower_bound.verify(inst)
                sizes.append(inst.num_resources)
                poas.append(report.poa.numerator / report.poa.denominator)
            slope = np.polyfit(np.log(sizes), np.log(poas), 1)[0]
            assert abs(slope - 1 / (degree + 1)) < 0.01
