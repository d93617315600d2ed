import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tverlab.cli import main
from tverlab.geometry import random_configuration


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_chessboard_subcommand(capsys):
    code, report = run_cli(capsys, "chessboard", "3", "3")
    assert code == 0
    assert report["result"]["f_vector"] == [9, 18, 6]
    assert report["input_echo"] == {"subcommand": "chessboard", "m": 3, "n": 3}
    assert report["version"]


def test_rainbow_subcommand(capsys):
    code, report = run_cli(capsys, "rainbow", "2,2")
    assert code == 0
    assert report["result"]["f_vector"] == [4, 4]
    assert report["result"]["colors"] == [[0, 1], [2, 3]]


def test_hconn_subcommand(capsys):
    code, report = run_cli(capsys, "hconn", "--chessboard", "3", "3", "--p", "2")
    assert code == 0
    assert report["result"]["hconn"] == 0
    assert report["result"]["p"] == 2
    assert report["result"]["hconn_is_lower_bound"] is False


def test_betti_subcommand(capsys):
    code, report = run_cli(capsys, "betti", "--chessboard", "2", "2", "--p", "2")
    assert code == 0
    assert report["result"]["betti"] == [1, 0]
    assert report["result"]["hconn"] == -1


def test_betti_of_rainbow_and_points(capsys):
    code, report = run_cli(capsys, "betti", "--rainbow", "2,2", "--p", "3")
    assert code == 0
    assert report["result"]["betti"] == [0, 1]  # a four-cycle
    code, report = run_cli(capsys, "betti", "--points", "3", "--p", "2")
    assert code == 0
    assert report["result"]["betti"] == [2]


def test_deleted_join_subcommand(capsys):
    code, report = run_cli(
        capsys, "deleted-join", "--points", "3", "--copies", "2", "--wise", "2"
    )
    assert code == 0
    assert report["result"]["f_vector"] == [6, 6]


def test_deleted_product_subcommand(capsys):
    code, report = run_cli(
        capsys, "deleted-product", "--points", "3", "--copies", "2"
    )
    assert code == 0
    assert report["result"]["cells_by_dim"] == [6]
    assert report["result"]["total_cells"] == 6


def test_complex_file_round_trip(tmp_path, capsys):
    code, report = run_cli(capsys, "chessboard", "2", "2")
    doc = {
        "vertices": report["result"]["vertices"],
        "faces": report["result"]["facets"],
    }
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "hconn", "--complex", str(path), "--p", "2")
    assert code == 0
    assert report["result"]["hconn"] == -1


def test_verify_theorem_applicable(capsys):
    code, report = run_cli(
        capsys, "verify-theorem", "--d", "2", "--k", "2", "--m", "0",
        "--p", "7", "--n", "1", "--sizes", "10,10,10",
    )
    assert code == 0
    verdict = report["result"]["verdict"]
    assert verdict["applicable"] is True
    assert verdict["q"] == 6
    assert report["result"]["deleted_join_bound"]["lower"] == 18
    assert report["result"]["deleted_product_bound"]["lower"] == 12


def test_verify_theorem_domain_failure_exit_code(capsys):
    code, report = run_cli(
        capsys, "verify-theorem", "--d", "2", "--k", "2", "--m", "0",
        "--p", "7", "--n", "1", "--sizes", "10,10,9",
    )
    assert code == 1
    assert report["result"]["verdict"]["applicable"] is False


def test_tverberg_search_subcommand(tmp_path, capsys):
    cfg = random_configuration(2, [3, 3, 3], seed=12)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code, report = run_cli(capsys, "tverberg-search", "--config", str(path), "--q", "2")
    assert code == 0
    witness = report["result"]["witness"]
    assert len(witness["faces"]) == 2
    assert len(witness["point"]) == 2


def test_tverberg_search_reports_none(tmp_path, capsys):
    doc = {"d": 1, "points": [["0"], ["100"]], "colors": [[0], [1]]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "tverberg-search", "--config", str(path), "--q", "2")
    assert code == 1
    assert report["result"]["status"] == "none"


def test_experiment_subcommand(capsys):
    code, report = run_cli(
        capsys, "experiment", "--d", "2", "--p", "2", "--n", "1", "--k", "2",
        "--m", "0", "--sizes", "3,3,3", "--trials", "5", "--seed", "1",
    )
    assert code == 0
    result = report["result"]
    assert result["trials"] == 5
    assert result["successes"] == 5
    assert result["q"] == 1


def test_decompose_subcommand(capsys):
    code, report = run_cli(capsys, "decompose", "--sizes", "2,2", "--r", "2")
    assert code == 0
    assert report["result"]["verified"] is True
    assert report["result"]["left_f_vector"] == report["result"]["right_f_vector"]


def test_face_budget_flag(capsys):
    code, report = run_cli(capsys, "--face-budget", "10", "chessboard", "4", "4")
    assert code == 1
    assert report["result"]["error_type"] == "FaceBudgetError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["hconn", "--p", "2"])  # missing complex source
    assert err.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--out", str(path), "chessboard", "2", "2"])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(path.read_text())
    assert report["result"]["f_vector"] == [4, 2]


def test_input_echo_reproduces_the_report(capsys):
    code, first = run_cli(capsys, "hconn", "--chessboard", "3", "3", "--p", "2")
    echo = first["input_echo"]
    argv = [
        echo["subcommand"],
        "--chessboard", str(echo["chessboard"][0]), str(echo["chessboard"][1]),
        "--p", str(echo["p"]),
    ]
    code, second = run_cli(capsys, *argv)
    assert second["input_echo"] == echo
    assert second["result"] == first["result"]


def test_table_flag_emits_summary(capsys):
    code = main(["--table", "hconn", "--chessboard", "2", "2", "--p", "2"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)
    assert "hconn" in captured.err


@pytest.mark.parametrize(
    "doc,key",
    [
        ({"faces": [[0, 1]]}, "vertices"),
        ({"vertices": 2}, "faces"),
        ({"vertices": "2", "faces": [[0, 1]]}, "vertices"),
        ({"vertices": 2, "faces": [0, 1]}, "faces"),
        ([[0, 1]], None),
    ],
)
def test_bad_complex_file_gives_one_report(tmp_path, capsys, doc, key):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "betti", "--complex", str(path))
    assert code == 1
    assert report["result"]["error_type"] == "ValueError"
    if key:
        assert repr(key) in report["result"]["error"]


@pytest.mark.parametrize(
    "doc,key",
    [
        ({"d": 1, "points": [["0"], ["1"]]}, "colors"),
        ({"d": 1, "colors": [[0], [1]]}, "points"),
        ({"d": "1", "points": [["0"], ["1"]], "colors": [[0], [1]]}, "d"),
        ({"d": 1, "points": [["0"], ["1"]], "colors": [0, 1]}, "colors"),
    ],
)
def test_bad_config_file_gives_one_report(tmp_path, capsys, doc, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "tverberg-search", "--config", str(path), "--q", "2")
    assert code == 1
    assert report["result"]["error_type"] == "ValueError"
    assert repr(key) in report["result"]["error"]


def test_closed_stdout_prints_no_traceback():
    # the 7x7 report is about 0.5 MB, more than a pipe buffers, so the
    # write meets the closed pipe
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "tverlab.cli", "chessboard", "7", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10)
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        stderr = proc.stderr.read()
        proc.stderr.close()
    assert stderr == b""
