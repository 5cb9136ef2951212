"""The benchmark's tracer wraps package functions by name from outside
``src/``, so renaming one of them breaks ``perfbench/run.py --trace 1``.
This loads the tracer as the benchmark does and checks that it still fits
the package."""

import importlib.util
from pathlib import Path

import numpy as np

import polybottleneck
from polybottleneck import cli, equilibria, expansion, game_core, generators, kernels, transform

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = (cli, equilibria, expansion, game_core, kernels, transform, transform.TwoStrategyGame)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return {(owner.__name__, name): value
            for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_patches_and_restores_the_package(tmp_path, capsys):
    tracer = load_tracing().Tracer(polybottleneck)
    before = snapshot()
    with tracer.installed():
        during = snapshot()
        patched = {key for key in before if during[key] is not before[key]}
        # a traced chain runs through the wrappers
        tracer.active = True
        game, eq, opt = generators.forced_congestion_game(np.random.default_rng(3), 1)
        tsg = transform.transform_to_singletons(game, eq, opt)
        transform.verify_domination(game, eq, tsg, strict=False)
        expansion.expansion_report(expansion.build_resource_graph(tsg))
        path = str(tmp_path / "game.json")
        game_core.save_game(game, path)
        assert cli.main(["expansion", path, "--transform-first"]) == 0
        tracer.active = False
    capsys.readouterr()
    assert ("polybottleneck.transform", "split_player") in patched
    assert ("TwoStrategyGame", "deviation") in patched
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert tracer.calls["transform.transform_to_singletons"] == 2
    assert tracer.calls["expansion.build_resource_graph"] == 2
    assert tracer.counts["split_player"] > 0
