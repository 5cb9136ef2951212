import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polybottleneck
from polybottleneck import kernels, lower_bound
from polybottleneck.cli import main
from polybottleneck.game_core import Game, load_game, save_game


@pytest.fixture
def family_file(tmp_path):
    inst = lower_bound.generate(4, 1)
    path = str(tmp_path / "family.json")
    save_game(inst.game, path)
    return path


def run_cli(argv):
    """Run the CLI in a fresh process that imports the same package as this one."""
    src = str(Path(polybottleneck.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "polybottleneck.cli", *argv], capture_output=True, env=env
    )


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

    @pytest.mark.parametrize("command", ["analyze", "transform", "expansion"])
    def test_non_utf8_file_is_format_error(self, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert_usage_error(main([command, str(path)]), capsys.readouterr().err)

    @pytest.mark.parametrize("text", [
        '{"degree": 1, "num_resources": ' + "1" * 4301 + ', "players": [[[0]]]}',
        "[" * 1000 + "]" * 1000,
    ], ids=["long_integer", "deep_nesting"])
    def test_json_the_decoder_refuses_is_format_error(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = main(["analyze", str(path)])
        out, err = capsys.readouterr()
        assert_usage_error(rc, err)
        assert out == ""

    @pytest.mark.parametrize("document, problem", [
        pytest.param([], "must be an object", id="not_an_object"),
        pytest.param({"degree": 1, "num_resources": 2.5, "players": [[[0]]]},
                     "'num_resources' must be an integer", id="float_num_resources"),
        pytest.param({"degree": 1, "num_resources": True, "players": [[[0]]]},
                     "'num_resources' must be an integer", id="bool_num_resources"),
        pytest.param({"degree": 1, "num_resources": 2, "players": [[]]},
                     "player 0: strategy set must be a non-empty list", id="empty_strategy_set"),
        pytest.param({"degree": 1, "num_resources": 2, "players": [[[0]], 5]},
                     "player 1: strategy set must be a non-empty list", id="strategy_set_not_a_list"),
        pytest.param({"degree": 1, "num_resources": 2, "players": [[[0], 1]]},
                     "player 0 strategy 1: must be a list", id="strategy_not_a_list"),
    ])
    def test_malformed_document_is_format_error(self, document, problem, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        rc = main(["analyze", str(path)])
        out, err = capsys.readouterr()
        assert_usage_error(rc, err)
        assert problem in err
        assert out == ""

    def test_calls_in_one_process_match_fresh_processes(self, family_file, capsys):
        # One parser serves every call in a process; no call may leak into the next.
        calls = [["analyze"], ["analyze", family_file], ["analyze"]]
        seen = []
        for argv in calls:
            rc = main(argv)
            out, err = capsys.readouterr()
            seen.append((rc, out, err))
        alone = {}
        for argv in calls:
            if tuple(argv) not in alone:
                proc = run_cli(argv)
                alone[tuple(argv)] = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        assert [rc for rc, _, _ in seen] == [2, 0, 2]
        assert seen == [alone[tuple(argv)] for argv in calls]

    @pytest.mark.parametrize("degree", [24, 700])
    def test_object_path_writes_nothing_to_stderr(self, degree, tmp_path):
        # Degree 24 takes the float64 filter; at degree 700 a float64 delay
        # table would overflow, so the scan stays in exact integers.  Neither
        # may print a warning.
        if degree == 24:
            path = Path(__file__).parent / "golden" / "random_d24.json"
        else:
            path = tmp_path / "d700.json"
            save_game(Game.build(3, 700, [[[0], [1]], [[1], [2]], [[0], [2]], [[0], [1], [2]]]),
                      str(path))
        proc = run_cli(["analyze", str(path)])
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert json.loads(proc.stdout)["C"] >= 1


class TestSuite:
    def test_small_suite_passes(self, capsys):
        assert main(["suite", "--count", "5", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate_pass"]
        assert len(payload["records"]) == 5
        assert all(r["pass"] for r in payload["records"])

    def test_identical_seed_identical_bytes(self):
        argv = ["suite", "--count", "4", "--seed", "9"]
        first, second = run_cli(argv), run_cli(argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_huge_degree_passes(self, capsys):
        # The bound's radicand 4 * 3**700 * (z - 1) does not fit a float.
        assert main(["suite", "--count", "1", "--degrees", "700"]) == 0
        assert json.loads(capsys.readouterr().out)["aggregate_pass"]

    def test_zero_count_is_usage_error(self, capsys):
        # A pass over zero games would verify nothing.
        rc = main(["suite", "--count", "0"])
        out, err = capsys.readouterr()
        assert_usage_error(rc, err)
        assert out == ""


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

    # n**(degree+1) has over 4,300 digits: refused before the power is taken.
    @pytest.mark.parametrize("argv", [
        ["lower-bound", "--n", "3", "--degree", "100000"],
        ["sweep", "--degree", "20000", "--n-range", "2..3"],
    ])
    def test_large_degree_is_over_the_cap(self, argv, capsys):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "cap" in lines[0]


# Only sizes that fail before any allocation: 2**62 list slots overflow the
# byte count (MemoryError), 2**63 overflows the index type (OverflowError).
@pytest.mark.parametrize("exponent", [62, 63])
@pytest.mark.parametrize("command", ["transform", "expansion"])
def test_huge_declared_resource_count_is_reported(command, exponent, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"degree": 1, "num_resources": 2**exponent, "players": [[[0], [1]], [[0], [2]]]}))
    rc = main([command, str(path)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: a computation could not run")


# Every delay c**degree is exact, so the degree of a game file is bounded by
# the bits of the largest entry: 3**10**10 alone would take about 2 GB.
@pytest.mark.parametrize("command", ["analyze", "transform", "expansion"])
def test_huge_file_degree_is_over_the_cap(command, tmp_path, capsys):
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"degree": 10**10, "num_resources": 2, "players": [[[0]], [[0]]]}))
    rc = main([command, str(path)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "bit limit" in lines[0]


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise the package's errors.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(polybottleneck.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_numpy_stays_at_the_edges():
    # Congestion and costs are plain ints outside the scan kernel.  Besides
    # kernels.py, only game_core (np.integer resource ids) and the seeded
    # random generators in generators and cli may import numpy.
    allowed = {"kernels.py", "game_core.py", "generators.py", "cli.py"}

    def imports_numpy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "numpy")

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(polybottleneck.__file__).parent.glob("*.py"))
        if path.name not in allowed
        for node in ast.walk(ast.parse(path.read_text()))
        if imports_numpy(node)
    ]
    assert not found, found


def test_equilibria_sees_only_encode_and_scan():
    # How orbits map to profiles is the kernel's to know: equilibria encodes
    # the game and scans it, and reads no field of the encoding.
    allowed = {"encode_game", "scan"}
    fields = {field.name for field in dataclasses.fields(kernels.GameArrays)}
    tree = ast.parse((Path(polybottleneck.__file__).parent / "equilibria.py").read_text())
    found = [
        f"{node.lineno}:{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (
            node.attr in fields
            or isinstance(node.value, ast.Name) and node.value.id == "kernels"
            and node.attr not in allowed)
    ] + [
        f"{node.lineno}:{alias.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("kernels")
        for alias in node.names
    ]
    assert not found, found


def test_dense_congestion_stays_in_two_places():
    # Memory grows with the resources used, not the resources declared.  A
    # list of length num_resources is built only by game_core's profile
    # counter and the workspace's equilibrium congestion, which every cost
    # term reads; everything else counts sparsely.  Nothing copies or walks
    # the workspace's vector but the dense view kept for outside readers.
    allowed = {"game_core._congestion", "transform.TwoStrategyGame.__init__",
               "transform.TwoStrategyGame.eq_congestion"}

    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}

    def dense(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return (node.func.id in ("list", "enumerate") and len(node.args) == 1
                    and isinstance(node.args[0], ast.Attribute)
                    and node.args[0].attr == "_eq_cong")
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and ast.List in (type(node.left), type(node.right))
                and "num_resources" in names(node))

    def scopes(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if dense(child):
                yield inner, child.lineno
            yield from scopes(child, inner)

    found = [
        f"{scope}:{lineno}"
        for path in sorted(Path(polybottleneck.__file__).parent.glob("*.py"))
        for scope, lineno in scopes(ast.parse(path.read_text()), path.stem)
        if scope not in allowed
    ]
    assert not found, found


@pytest.mark.parametrize("argv", [
    ["suite", "--max-players", "1"],
    ["suite", "--max-resources", "1"],
    ["suite", "--max-strategies", "1"],
    ["suite", "--count", "-3"],
    ["analyze", "GAME", "--cap", "-1"],
    ["expansion", "GAME", "--cap", "0"],
    ["lower-bound", "--n", "3", "--degree", "1", "--cap", "0"],
    ["sweep", "--degree", "1", "--n-range", "5..3"],
    ["suite", "--seed", "-1"],
])
def test_bad_number_is_usage_error(argv, family_file, capsys):
    rc = main([family_file if a == "GAME" else a for a in argv])
    out, err = capsys.readouterr()
    assert_usage_error(rc, err)
    assert out == ""


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

    @pytest.mark.parametrize("argv", [
        ["--degree", "0", "--n-range", "2..3"],
        ["--degree", "1", "--n-range", "2..3", "--cap", "0"],
        ["--degree", "1", "--n-range", "1..3"],
    ])
    def test_usage_error_prints_no_header(self, argv, capsys):
        rc = main(["sweep", *argv])
        out, err = capsys.readouterr()
        assert_usage_error(rc, err)
        assert out == ""

    def test_malformed_range_is_usage_error(self, capsys):
        rc = main(["sweep", "--degree", "1", "--n-range", "5"])
        assert_usage_error(rc, capsys.readouterr().err)
