import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polybottleneck
from polybottleneck import lower_bound
from polybottleneck.cli import main
from polybottleneck.game_core import Game, load_game, save_game


@pytest.fixture
def family_file(tmp_path):
    inst = lower_bound.generate(4, 1)
    path = str(tmp_path / "family.json")
    save_game(inst.game, path)
    return path


def assert_usage_error(rc, err):
    """Exit 2 with one ``error:`` line and no traceback."""
    assert rc == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def high_multi_game() -> Game:
    """Worst equilibrium has a two-resource player on the crowded resource."""
    players = []
    detour = 2
    for _ in range(4):
        players.append([[0], list(range(detour, detour + 5))])
        detour += 5
    players.append([[0, 1], list(range(detour, detour + 6))])
    return Game.build(detour + 6, 1, players)


class TestAnalyze:
    def test_family_report(self, family_file, capsys):
        assert main(["analyze", family_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["poa_num"] == 4
        assert payload["poa_den"] == 1
        assert payload["C"] == 4
        assert payload["C_star"] == 1

    def test_malformed_file_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 1, "num_resources": 2,
                                    "players": [[[0, 7]]]}))
        assert main(["analyze", str(path)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_empty_players_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"degree": 1, "num_resources": 2, "players": []}))
        assert main(["analyze", str(path)]) == 2
        assert "players" in capsys.readouterr().err

    def test_cap_exceeded_is_reported(self, family_file, capsys):
        assert main(["analyze", family_file, "--cap", "3"]) == 1
        assert "exceed" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["analyze"]) == 2
        assert main(["no-such-command"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nonexistent.json")])
        assert_usage_error(rc, capsys.readouterr().err)

    def test_bad_state_cap_env_is_usage_error(self, family_file, capsys, monkeypatch):
        monkeypatch.setenv("POLYBOTTLENECK_STATE_CAP", "abc")
        rc = main(["analyze", family_file])
        err = capsys.readouterr().err
        assert_usage_error(rc, err)
        assert "POLYBOTTLENECK_STATE_CAP" in err


class TestSuite:
    def test_small_suite_passes(self, capsys):
        assert main(["suite", "--count", "5", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate_pass"]
        assert len(payload["records"]) == 5
        assert all(r["pass"] for r in payload["records"])

    def test_identical_seed_identical_bytes(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(polybottleneck.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run():
            return subprocess.run(
                [sys.executable, "-m", "polybottleneck.cli",
                 "suite", "--count", "4", "--seed", "9"],
                capture_output=True, env=env,
            )
        first, second = run(), run()
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_zero_count_is_empty_pass(self, capsys):
        assert main(["suite", "--count", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate_pass"]
        assert payload["records"] == []


class TestTransform:
    def test_family_transform(self, family_file, capsys):
        assert main(["transform", family_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["domination"]["all_ok"]
        assert not payload["transformed"]["no_op"]

    def test_degenerate_input_flagged(self, tmp_path, capsys):
        game = Game.build(3, 2, [[[0], [1]], [[1], [2]]])
        path = str(tmp_path / "small.json")
        save_game(game, path)
        assert main(["transform", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transformed"]["no_op"]

    def test_trace_emits_json_lines(self, family_file, capsys):
        assert main(["transform", family_file, "--trace"]) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert err, "expected trace lines on stderr"
        for line in err:
            record = json.loads(line)
            assert "op" in record


class TestExpansion:
    def test_untransformed_high_multi_is_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "multi.json")
        save_game(high_multi_game(), path)
        assert main(["expansion", path]) == 1
        assert "multi-resource" in capsys.readouterr().err

    def test_transform_first_makes_it_pass(self, tmp_path, capsys):
        path = str(tmp_path / "multi.json")
        save_game(high_multi_game(), path)
        assert main(["expansion", path, "--transform-first"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"]
        assert payload["num_high_nodes"] >= 1

    def test_family_ledger(self, family_file, capsys):
        assert main(["expansion", family_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"]
        assert payload["nodes"][0]["resource"] == 0


class TestLowerBound:
    def test_writes_game_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "generated.json")
        assert main(["lower-bound", "--n", "3", "--degree", "1", "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact_match"]
        assert payload["poa_num"] == 3
        game = load_game(out)
        assert game.num_players == 3
        assert game.num_resources == 9

    def test_too_few_players_is_usage_error(self, capsys):
        rc = main(["lower-bound", "--n", "1", "--degree", "1"])
        assert_usage_error(rc, capsys.readouterr().err)


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise the package's errors.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(polybottleneck.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


class TestSweep:
    def test_tsv_table_matches_family(self, capsys):
        assert main(["sweep", "--degree", "1", "--n-range", "2..6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n\t")
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 5
        for row in rows:
            n = int(row[0])
            assert int(row[1]) == n * n
            assert float(row[2]) == float(n)
            assert float(row[4]) >= float(row[2])  # bound dominates measured PoA

    def test_malformed_range_is_usage_error(self, capsys):
        rc = main(["sweep", "--degree", "1", "--n-range", "5"])
        assert_usage_error(rc, capsys.readouterr().err)
