import json
import os
import shlex
from pathlib import Path

import pytest

from tverlab import geometry
from tverlab.cli import build_parser, main
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


def test_tverberg_search_re_checks_its_witness(tmp_path, capsys, monkeypatch):
    # a hull query that returns a point off the hulls: the bad witness was
    # printed with exit 0 before the command verified it
    found = geometry.hulls_intersect

    def shifted(faces, config):
        res = found(faces, config)
        return res and ((res[0][0] + 1, *res[0][1:]), res[1])

    monkeypatch.setattr(geometry, "hulls_intersect", shifted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(random_configuration(2, [3, 3, 3], seed=12).to_dict()))
    code, report = run_cli(capsys, "tverberg-search", "--config", str(path), "--q", "2")
    assert code == 1
    assert report["result"]["error_type"] == "ValueError"


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
    assert report["input_echo"] == {"subcommand": "chessboard", "m": 4, "n": 4}


@pytest.mark.parametrize("argv", [
    ["hconn", "--p", "2"],
    # the search reads every rainbow face of dimension <= d; no cap is taken
    ["tverberg-search", "--config", "x", "--q", "2", "--max-dim", "0"],
], ids=["missing-source", "max-dim"])
def test_usage_error_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def _readme_commands():
    """The ``tverlab`` lines of the README's command block as argument
    lists, without the program name, each continuation joined first."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in text.split("```")[1::2] if "\ntverlab " in b)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("tverlab ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_parse_and_run(tmp_path, capsys, argv):
    # the README's own file names stand for files made here
    files = {
        "mycomplex.json": {"vertices": 4, "faces": [[0, 3], [1, 2]]},
        "points.json": random_configuration(2, [4, 4, 4], seed=1).to_dict(),
    }
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    build_parser().parse_args(argv)  # a flag that is gone exits 2 here
    if argv[0] != "experiment":  # its 100 trials take several seconds
        code = main(argv)
        assert code == 0, capsys.readouterr().out


def test_size_list_that_is_not_integers_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["rainbow", "1,a"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected comma-separated integers: '1,a'" in captured.err


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--out", str(path), "chessboard", "2", "2"])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(path.read_text())
    assert report["result"]["f_vector"] == [4, 2]


def test_out_path_that_cannot_be_opened_gives_one_report(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main(["--out", str(path), "chessboard", "2", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["input_echo"] == {"subcommand": "chessboard", "m": 2, "n": 2}
    assert report["result"]["error_type"] == "FileNotFoundError"
    assert str(path) in report["result"]["error"]
    assert not path.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_file_that_cannot_be_written_gives_one_report(capsys):
    code = main(["--out", "/dev/full", "chessboard", "2", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["input_echo"] == {"subcommand": "chessboard", "m": 2, "n": 2}
    assert report["result"]["error_type"] == "OSError"


def argv_from_echo(echo):
    """Flags that give back ``echo``: positionals for the board and rainbow
    subcommands, None values omitted."""
    def text(value):
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    echo = dict(echo)
    argv = [echo.pop("subcommand")]
    if argv[0] in ("chessboard", "rainbow"):
        return argv + [text(value) for value in echo.values()]
    for key, value in echo.items():
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        argv += [flag, *map(str, value)] if key == "chessboard" else [flag, text(value)]
    return argv


def without_timing(report):
    report = {k: v for k, v in report.items() if k != "timing_seconds"}
    report["result"] = {k: v for k, v in report["result"].items() if k != "elapsed_seconds"}
    return report


@pytest.mark.parametrize(
    "argv",
    [
        ["chessboard", "3", "3"],
        ["rainbow", "2,2"],
        ["deleted-join", "--points", "3", "--copies", "2", "--wise", "2"],
        ["deleted-product", "--complex", "{complex}", "--copies", "2"],
        ["betti", "--rainbow", "2,2", "--p", "3"],
        ["hconn", "--chessboard", "3", "3", "--p", "2"],
        ["verify-theorem", "--d", "2", "--k", "2", "--m", "0", "--p", "7", "--n", "1",
         "--sizes", "10,10,9"],
        ["tverberg-search", "--config", "{config}", "--q", "2", "--lp-budget", "1000"],
        ["experiment", "--d", "2", "--p", "2", "--n", "1", "--k", "2", "--m", "0",
         "--sizes", "3,3,3", "--trials", "2", "--seed", "1"],
        ["decompose", "--sizes", "2,2", "--r", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_input_echo_reproduces_the_report(tmp_path, capsys, argv):
    files = {"complex": tmp_path / "complex.json", "config": tmp_path / "config.json"}
    files["complex"].write_text(json.dumps({"vertices": 3, "faces": [[0, 1], [1, 2]]}))
    files["config"].write_text(json.dumps(random_configuration(2, [3, 3, 3], seed=12).to_dict()))
    argv = [arg.format(**files) for arg in argv]
    code, first = run_cli(capsys, *argv)
    assert "error" not in first["result"]
    echo = first["input_echo"]
    assert echo["subcommand"] == argv[0]
    assert {a for a in argv if a.startswith("--")} <= set(argv_from_echo(echo))
    again, second = run_cli(capsys, *argv_from_echo(echo))
    assert again == code
    assert without_timing(second) == without_timing(first)


def test_table_flag_emits_summary(capsys):
    code = main(["--table", "hconn", "--chessboard", "2", "2", "--p", "2"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)
    assert "hconn" in captured.err


def test_table_shortens_a_long_value_to_its_entry_count(capsys):
    code = main(["--table", "chessboard", "4", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(json.loads(captured.out)["result"]["facets"]) == 24
    lines = captured.err.splitlines()
    assert "facets                   <list of 24 entries>" in lines
    assert "f_vector                 [16, 72, 96, 24]" in lines


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
        ({"d": 1, "points": [["1/0"], ["1"]], "colors": [[0], [1]]}, "1/0"),
        ({"d": 1, "points": [["1e4000000"], ["1"]], "colors": [[0], [1]]}, "1e4000000"),
    ],
)
def test_bad_config_file_gives_one_report(tmp_path, capsys, doc, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "tverberg-search", "--config", str(path), "--q", "2")
    assert code == 1
    assert report["result"]["error_type"] == "ValueError"
    assert repr(key) in report["result"]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--complex", "{dir}", "--p", "2"],
        ["tverberg-search", "--config", "{dir}", "--q", "2"],
    ],
    ids=lambda argv: argv[1],
)
def test_input_file_that_is_a_directory_gives_one_report(tmp_path, capsys, argv):
    argv = [arg.format(dir=tmp_path) for arg in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["result"]["error_type"] == "IsADirectoryError"
    assert argv_from_echo(report["input_echo"]) == argv


def test_closed_stdout_prints_no_traceback(fresh_python):
    # the 7x7 report is about 0.5 MB, more than a pipe buffers, so the
    # write meets the closed pipe
    proc = fresh_python("-m", "tverlab.cli", "chessboard", "7", "7")
    assert proc.stdout.read(10)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""


# runs one command in a fresh interpreter, then prints its exit code and the
# tverlab modules it loaded
LOADED_MODULES = """
import contextlib, io, json, sys
from tverlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "tverlab")]))
"""
BEYOND_COMPLEXES = {"betti": ["tverlab.homology"], "hconn": ["tverlab.homology"],
                    "verify-theorem": ["tverlab.bounds"], "tverberg-search": ["tverlab.geometry"]}


@pytest.mark.parametrize(
    "argv",
    [
        ["chessboard", "3", "3"],
        ["rainbow", "2,2"],
        ["deleted-join", "--points", "3", "--copies", "2"],
        ["deleted-product", "--chessboard", "2", "2", "--copies", "2"],
        ["decompose", "--sizes", "2,2", "--r", "2"],
        ["betti", "--chessboard", "3", "3"],
        ["hconn", "--rainbow", "2,2", "--p", "3"],
        ["verify-theorem", "--d", "2", "--k", "2", "--m", "0", "--p", "7", "--n", "1",
         "--sizes", "10,10,10"],
        ["tverberg-search", "--config", "{config}", "--q", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_subcommand_loads_only_the_modules_it_calls(tmp_path, fresh_python, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(random_configuration(2, [3, 3, 3], seed=12).to_dict()))
    argv = [arg.format(config=config) for arg in argv]
    out, err = fresh_python("-c", LOADED_MODULES, *argv).communicate(timeout=60)
    code, loaded = json.loads(out)
    assert code == 0, err
    assert loaded == sorted(["tverlab", "tverlab.cli", "tverlab.complexes",
                             *BEYOND_COMPLEXES.get(argv[0], [])])


# each would run for minutes if its builder finished the work after the
# outcome is known: the budget sum of a huge board, every copy of a deleted
# product once a level is empty, a deleted join whose face count is already
# known to pass the budget (or its labels built first), a deleted join
# that rebuilt every partial tuple at every copy, a deleted product that
# carried k - 1 vertex masks per partial tuple, or r = p**n computed for
# a bundle whose r has millions of digits; a point set too large to label
# raised OverflowError instead of its budget error
@pytest.mark.parametrize(
    "argv,code,result",
    [
        (["chessboard", "100000", "100000"], 1, {"error_type": "FaceBudgetError"}),
        (["deleted-product", "--points", "3", "--copies", "100000000"], 0, {"total_cells": 0}),
        (["deleted-join", "--points", "3", "--copies", "100000"], 1,
         {"error_type": "FaceBudgetError"}),
        (["deleted-join", "--points", "3", "--copies", "100000000"], 1,
         {"error_type": "FaceBudgetError"}),
        (["deleted-join", "--points", "1", "--copies", "20000"], 0, {"face_count": 20000}),
        (["deleted-product", "--points", "1", "--copies", "20000", "--wise", "20001"], 0,
         {"total_cells": 1}),
        (["verify-theorem", "--d", "2", "--k", "2", "--m", "0", "--p", "3", "--n", "30000000",
          "--sizes", "1,1,1"], 1, {"error_type": "ValueError"}),
        (["--face-budget", "1000", "hconn", "--points", str(10 ** 30)], 1,
         {"error_type": "FaceBudgetError"}),
    ],
    ids=["chessboard", "deleted-product", "deleted-join", "deleted-join-labels",
         "deleted-join-one-point", "deleted-product-wise", "verify-theorem-huge-r",
         "points-huge"],
)
def test_builder_stops_once_the_outcome_is_known(fresh_python, argv, code, result):
    proc = fresh_python("-m", "tverlab.cli", *argv)
    out, err = proc.communicate(timeout=10)
    assert proc.returncode == code
    assert err == b""
    report = json.loads(out)
    assert result.items() <= report["result"].items()


# the child's own peak RSS in KiB (Linux), written to stderr after main.
# It is read from VmHWM: ru_maxrss of a spawned child starts at the peak of
# the process that spawned it, here the test runner
PEAK_RSS = """
import sys
from tverlab.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def test_betti_of_many_points_stays_small_in_memory(fresh_python):
    # with a cell key as wide as the vertex count this run peaked at 239 MB
    proc = fresh_python("-c", PEAK_RSS, "betti", "--points", "40000")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out)["result"]["betti"] == [39999]
    assert int(err) < 120 * 1024


@pytest.mark.parametrize("command", ["deleted-join", "deleted-product"])
def test_wiseness_far_above_the_copies_stays_small_in_memory(fresh_python, command):
    # before k was capped at copies + 1 this run took 1.6 s and 212 MB
    argv = [command, "--rainbow", "3,3", "--copies", "3", "--wise", "100000"]
    proc = fresh_python("-c", PEAK_RSS, *argv)
    out, err = proc.communicate(timeout=10)
    assert proc.returncode == 0
    report = json.loads(out)
    assert report["input_echo"]["wise"] == 100000
    assert int(err) < 120 * 1024


def test_gf2_reduction_of_the_7x7_board_stays_small_in_memory(fresh_python):
    # 145 MB when a stored pivot was kept as a bit mask once a later column
    # met it; 87 MB when it is read as stored
    proc = fresh_python("-c", PEAK_RSS, "hconn", "--chessboard", "7", "7", "--p", "2")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out)["result"]["betti"] == [0, 0, 0, 0, 588, 792, 0]
    assert int(err) < 110 * 1024


@pytest.mark.parametrize(
    "argv,code,result,limit_mb",
    [
        # 277 MB when the points were built before the budget was checked
        (["--face-budget", "1000", "hconn", "--points", "2000000"], 1,
         {"error_type": "FaceBudgetError"}, 120),
        # 300 MB and about 4 s when all 531,440 rainbow faces were listed
        # and sorted before the one hull query
        (["experiment", "--d", "2", "--k", "2", "--m", "0", "--p", "2", "--n", "1",
          "--sizes", "80,80,80", "--trials", "1", "--seed", "1", "--lp-budget", "10"], 0,
         {"hull_queries_total": 1}, 50),
        # several GB for a 10**8-entry tuple of default labels, when the
        # labels were made before the budget saw them
        (["--face-budget", "1000", "betti", "--complex", "{file}"], 1,
         {"error_type": "FaceBudgetError"}, 50),
        # some 15 GB when each point was made before anything counted them
        (["experiment", "--d", "2", "--k", "2", "--m", "0", "--p", "2", "--n", "1",
          "--sizes", "30000000,1,1", "--trials", "1", "--seed", "1"], 1,
         {"error_type": "FaceBudgetError"}, 50),
        # when the closure checked the budget once per length, it made all
        # 1,313,400 faces of 197 vertices, some 2 GB, before it stopped
        (["--face-budget", "30000", "betti", "--complex", "{facet}"], 1,
         {"error_type": "FaceBudgetError"}, 200),
        # 258 MB and 2.4 s when the faces of interleaved classes were sorted
        # a color set at a time before the one hull query
        (["tverberg-search", "--config", "{config}", "--q", "2", "--lp-budget", "1"], 1,
         {"status": "budget", "hull_queries": 1}, 50),
    ],
    ids=["points-over-budget", "search-on-a-budget", "vertices-over-budget",
         "configuration-over-budget", "closure-over-budget", "interleaved-search-on-a-budget"],
)
def test_work_stops_with_the_budget(tmp_path, fresh_python, argv, code, result, limit_mb):
    files = {name: tmp_path / f"{name}.json" for name in ("file", "facet", "config")}
    files["file"].write_text(json.dumps({"vertices": 10 ** 8, "faces": []}))
    files["facet"].write_text(json.dumps({"vertices": 200, "faces": [list(range(200))]}))
    # three classes of 150 points in the plane, point v in class v % 3
    points = [[str(v % 37), str(v * v % 101)] for v in range(450)]
    colors = [list(range(c, 450, 3)) for c in range(3)]
    files["config"].write_text(json.dumps({"d": 2, "points": points, "colors": colors}))
    proc = fresh_python("-c", PEAK_RSS, *(arg.format(**files) for arg in argv))
    out, err = proc.communicate(timeout=10)
    assert proc.returncode == code
    assert result.items() <= json.loads(out)["result"].items()
    assert int(err) < limit_mb * 1024


# runs main with the child's address space limited to 200 MB above its
# size after start-up, set relative to VmSize so that the limit does not
# depend on the host
MEMORY_LIMITED = """
import resource, sys
from tverlab.cli import main
with open("/proc/self/status") as fh:
    size_kib = int(next(line.split()[1] for line in fh if line.startswith("VmSize:")))
limit = (size_kib + 200 * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


def test_running_out_of_memory_gives_one_report(fresh_python):
    # 30,000,000 points fit in the raised face budget but not in the limit;
    # before MemoryError was reported this printed a traceback and no JSON
    argv = ["--face-budget", "100000000", "betti", "--points", "30000000"]
    proc = fresh_python("-c", MEMORY_LIMITED, *argv)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
    assert json.loads(out)["result"]["error_type"] == "MemoryError"


@pytest.mark.parametrize(
    "argv,text,error_type",
    [
        (["tverberg-search", "--config", "{file}", "--q", "2"],
         "[" * 200_000 + "]" * 200_000, "RecursionError"),
        (["betti", "--complex", "{file}"], "[" * 200_000 + "]" * 200_000, "RecursionError"),
        (["betti", "--complex", "{file}"],
         json.dumps({"vertices": 10 ** 30, "faces": []}), "FaceBudgetError"),
    ],
    ids=["config-nested", "complex-nested", "complex-huge-vertex-count"],
)
def test_malformed_input_file_gives_one_report(tmp_path, capsys, argv, text, error_type):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [arg.format(file=path) for arg in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert json.loads(captured.out)["result"]["error_type"] == error_type
