import errno
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import surfwalk
from surfwalk import cli
from surfwalk.cli import main
from surfwalk.enumeration import enumerate_embeddings, rank_by_comfortability
from surfwalk.graph_core import complete_graph
from test_fileformat import HUGE_VERTEX_COUNT_FILE, PROJECTIVE_K4_FILE

C4_PLANAR = """\
vertices 4
edge 0 1 0
edge 1 2 0
edge 2 3 0
edge 3 0 0
rotation 0: 1 3
rotation 1: 0 2
rotation 2: 1 3
rotation 3: 2 0
"""

ROOT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture
def projective_file(tmp_path):
    path = tmp_path / "projective.txt"
    path.write_text(PROJECTIVE_K4_FILE)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_PLANAR)
    return str(path)


def run_json(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_faces_projective_k4(projective_file, capsys):
    code, payload = run_json(capsys, "faces", projective_file)
    assert code == 0
    assert sorted(payload["face_lengths"], reverse=True) == [6, 3, 3]
    assert payload["orientable"] is False
    assert payload["genus"] == 1
    assert sum(f["length"] for f in payload["faces"]) == 12


def test_faces_c4_planar(c4_file, capsys):
    code, payload = run_json(capsys, "faces", c4_file)
    assert code == 0
    assert payload["face_lengths"] == [4, 4]
    assert payload["genus"] == 0 and payload["orientable"] is True


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(PROJECTIVE_K4_FILE.replace("rotation 2: 0 1 3", "rotation 2: 0 1"))
    assert main(["faces", str(bad)]) == 2


def test_scatter_blocks(projective_file, capsys):
    code, payload = run_json(capsys, "scatter", projective_file)
    assert code == 0
    assert payload["unitarity_defect"] < 1e-10
    sizes = sorted(len(b["tails"]) for b in payload["blocks"])
    assert sizes == [3, 3, 3, 3, 6, 6]
    assert len({b["face"] for b in payload["blocks"]}) == 3
    assert len(payload["tails"]) == 24


def test_scatter_reports_min_face_gap(projective_file, capsys):
    # Hadamard coin: a = 2^-1/2 and omega = 1.  Every face of the projective
    # K4 closes with Pi = +1 (the hexagons cross the twisted edge twice), so
    # the triangles give the smallest |1 - a^q Pi| = 1 - 2^-3/2.
    code, payload = run_json(capsys, "scatter", projective_file)
    assert code == 0
    assert abs(payload["min_face_gap"] - (1 - 2**-1.5)) < 1e-12


def test_scatter_rejects_complex_d(projective_file, capsys):
    code = main(["scatter", projective_file, "--a", "0.5", "--b", f"0,{ROOT2}",
                 "--c", f"0,{ROOT2}", "--d", "-0.3,0.4"])
    assert code == 3


def test_scatter_rejects_non_unitary_coin(projective_file):
    assert main(["scatter", projective_file, "--a", "1", "--b", "1", "--c", "1", "--d", "1"]) == 3


@pytest.mark.parametrize(
    "argv",
    [["comfort", "--a", "nan"], ["simulate", "--a", "inf", "--max-steps", "5"], ["scatter", "--d", "nan"]],
    ids=["comfort-nan", "simulate-inf", "scatter-nan"],
)
def test_non_finite_coin_entry_exits_3(projective_file, argv, capsys):
    assert main([argv[0], projective_file, *argv[1:]]) == 3
    assert "not unitary" in capsys.readouterr().err


def test_scatter_csv_two_columns_per_entry(projective_file, capsys):
    code = main(["scatter", projective_file, "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24  # one row per tail
    first = lines[0].split(",")
    q = (len(first) - 3) // 2
    assert len(first) == 3 + 2 * q


def test_comfort_uniform_small_a(projective_file, capsys):
    b = math.sqrt(1 - 1e-12)
    code, payload = run_json(
        capsys, "comfort", projective_file, "--a", "1e-6", "--b", f"{b:.17g}",
        "--c", f"{b:.17g}", "--d", "-1e-6",
    )
    assert code == 0
    assert abs(payload["average"] - 3.0) < 1e-4
    assert abs(payload["average_per_tail"] - 1.5) < 1e-4


def test_comfort_limit_flag(tmp_path, capsys):
    sphere = tmp_path / "sphere.txt"
    sphere.write_text(PROJECTIVE_K4_FILE.replace("edge 0 1 1", "edge 0 1 0"))
    code, payload = run_json(capsys, "comfort", str(sphere), "--limit")
    assert code == 0
    assert abs(payload["limit"] - 2.0 / 3.0) < 1e-12


def test_comfort_zero_inflow_is_impossible_tail(projective_file):
    assert main(["comfort", projective_file, "--inflow", "99"]) == 3


@pytest.mark.parametrize("command", ["comfort", "simulate"])
@pytest.mark.parametrize("tail", ["-1", "24", pytest.param("9" * 5000, id="5000-digits")])
def test_inflow_outside_the_tails_exits_3(projective_file, command, tail, capsys):
    # Projective K4 has one tail per island arc: ids 0 .. 23.
    assert main([command, projective_file, "--inflow", tail]) == 3
    assert f"tail {tail} does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["comfort", "simulate"])
def test_inflow_reads_a_tail_id_as_the_file_format_reads_an_integer(projective_file, command, capsys):
    # Python's int() also takes digit separators, other scripts' digits and
    # surrounding spaces; a tail id is ASCII digits with an optional sign.
    for spec in ("1_0", "\u0663", " 3 "):
        assert main([command, projective_file, "--inflow", spec]) == 3
        assert f"--inflow takes a tail id or 'uniform', got {spec!r}" in capsys.readouterr().err
    assert main([command, projective_file, "--inflow", "3"]) == 0


def test_comfort_single_inflow(projective_file, capsys):
    code, payload = run_json(capsys, "comfort", projective_file, "--inflow", "5")
    assert code == 0
    assert payload["energy"] > 0
    assert abs(payload["energy"] - payload["island"] - payload["bridge"]) < 1e-12


def test_simulate_matches_closed_forms(projective_file, capsys):
    code, payload = run_json(capsys, "simulate", projective_file, "--inflow", "3", "--tol", "1e-11")
    assert code == 0
    cmp = payload["comparison"]
    assert cmp["outflow_vs_scattering"] < 1e-8
    assert cmp["state_vs_closed_form"] < 1e-8
    assert cmp["energy_vs_formula"] < 1e-8
    assert payload["steps"] > 0


def test_simulate_nonconvergence_exit(projective_file):
    assert main(["simulate", projective_file, "--max-steps", "1"]) == 4


@pytest.mark.parametrize(
    "steps, code",
    [("1_0", 2), ("\u0663", 2), (" 10 ", 2), ("9223372036854775808", 2), ("+5", 4)],
    ids=["separator", "arabic-indic", "spaces", "past-int64", "plus-sign"],
)
def test_max_steps_is_read_as_the_file_format_reads_an_integer(projective_file, steps, code, capsys):
    # int() reads the first three as 10, 3 and 10.
    assert main(["simulate", projective_file, "--max-steps", steps]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    if code == 2:
        assert err.startswith("error: Invalid value for '--max-steps': ")
    else:
        assert err.startswith("did not converge: no stationary state after 5 steps")


@pytest.mark.parametrize(
    "flag, word",
    [
        (("--tol", "nan"), "tolerance"),
        (("--tol", "inf"), "tolerance"),
        (("--tol", "0"), "tolerance"),
        (("--max-steps", "-1"), "max_steps"),
    ],
)
def test_simulate_rejects_bad_stopping_rule(projective_file, flag, word, capsys):
    start = time.perf_counter()
    assert main(["simulate", projective_file, *flag]) == 3
    assert time.perf_counter() - start < 1.0
    assert word in capsys.readouterr().err


def test_simulate_degenerate_coin_fast(projective_file, capsys):
    code, payload = run_json(
        capsys, "simulate", projective_file, "--a", "1", "--b", "0", "--c", "0", "--d", "-1"
    )
    assert code == 0
    assert payload["steps"] <= 24


def test_simulate_near_unit_a_skips_the_comparison(projective_file, capsys):
    # |a| within 1e-14 of 1: the closed forms do not apply, so the run is
    # reported without a comparison block instead of failing afterwards.
    code, payload = run_json(
        capsys, "simulate", projective_file, "--a", "0.999999999999995", "--b", "9.996e-08",
        "--c", "9.996e-08", "--d", "-0.999999999999995", "--tol", "1e9",
    )
    assert code == 0
    assert "comparison" not in payload
    assert payload["steps"] == 1


@pytest.mark.parametrize("inflow", ["uniform", "0"])
def test_comfort_near_unit_a_exits_3_with_or_without_one_inflow(projective_file, inflow, capsys):
    coin = ["--a", "0.999999999999995", "--b", "9.996e-08", "--c", "9.996e-08", "--d", "-0.999999999999995"]
    assert main(["comfort", projective_file, *coin, "--inflow", inflow]) == 3
    assert capsys.readouterr().err == "error: closed forms need |a| < 1\n"


def test_enumerate_k4(capsys):
    code = main(["enumerate", "K4", "--a", "0.98"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12  # header + 11 classes
    assert lines[0].startswith("label,orientable,genus,")


def test_rank_k4_endpoints(capsys):
    code = main(["rank", "K4", "--a", "0.98"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("g=0 [3 3 3 3]")
    assert lines[-1].startswith("k=3 [12]")


def test_class_csv_floats_read_back_exactly(capsys):
    # Near a = 1 the averages are of order 1e11: a fixed count of significant
    # digits prints distinct classes alike, and a short header repeats "1".
    ranked = rank_by_comfortability(enumerate_embeddings(complete_graph(4)), 0.999999)
    assert main(["rank", "K4", "--a", "0.999999"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith(",limit,avg_a=0.999999")
    rows = [line.split(",") for line in lines[1:]]
    assert [(float(r[6]), float(r[7])) for r in rows] == [(c.limit, c.average) for c in ranked]
    k1 = [r[7] for r in rows if r[0] in ("k=1 [6 3 3]", "k=1 [4 4 4]")]
    assert len(k1) == 2 and k1[0] != k1[1]
    assert main(["enumerate", "K4", "--a", "0.9999999", "--a", "0.99999999"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.endswith(",limit,avg_a=0.9999999,avg_a=0.99999999")


def test_enumerate_budget_exit():
    assert main(["enumerate", "K6"]) == 5


@pytest.mark.parametrize(
    "argv", [["enumerate", "K60"], ["rank", "K300"], ["enumerate", "K100000"], ["enumerate", "K" + "9" * 5000]]
)
def test_huge_complete_graph_exits_5_fast(argv, capsys):
    # The budget is checked from n before K_n is built, without its exact
    # raw count (which has more than 4300 digits from K56 on).
    start = time.perf_counter()
    assert main(argv) == 5
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "more than 10^20 raw rotation systems exceed the budget" in err


def test_k6_budget_message_shows_exact_count(capsys):
    assert main(["enumerate", "K6"]) == 5
    assert "6262062317568 raw rotation systems exceed the budget 10000000" in capsys.readouterr().err


def test_enumerate_missing_file_exits_2(tmp_path, capsys):
    assert main(["enumerate", str(tmp_path / "absent.txt")]) == 2
    assert "neither K<n> nor a rotation-system file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["faces", "enumerate", "rank"])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    # A UTF-16 byte-order mark is no UTF-8; it is a parse error, not a crash.
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe" + PROJECTIVE_K4_FILE.encode("utf-16-le"))
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "parse error: not valid UTF-8: invalid start byte at byte 0\n"


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("EW_BUDGET", "10")
    assert main(["enumerate", "K4"]) == 5


def test_non_integer_budget_exits_5(monkeypatch, capsys):
    monkeypatch.setenv("EW_BUDGET", "1e6")
    assert main(["enumerate", "K4"]) == 5
    assert capsys.readouterr().err == "budget exceeded: EW_BUDGET='1e6' is not an integer\n"


def test_cli_round_trip_outputs(projective_file, tmp_path, capsys):
    out = tmp_path / "faces.json"
    assert main(["faces", projective_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["genus"] == 1


def test_huge_vertex_count_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_VERTEX_COUNT_FILE)
    assert main(["faces", str(path)]) == 2
    assert len(capsys.readouterr().err) < 200


def test_comfort_uniform_keys(projective_file, capsys):
    code, payload = run_json(capsys, "comfort", projective_file, "--limit")
    assert code == 0
    assert sorted(payload) == ["average", "average_per_tail", "limit"]


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "K4", "--a", "0"], ["enumerate", "K4", "--a", "1.5"], ["enumerate", "K4", "--a", "-0.5"],
     ["enumerate", "K4", "--a", "0.5", "--a", "1"], ["rank", "K4", "--a", "0"]],
    ids=["enumerate-0", "enumerate-1.5", "enumerate-negative", "enumerate-1", "rank-0"],
)
def test_coin_parameter_outside_unit_interval_exits_3(argv, capsys):
    assert main(argv) == 3
    assert "0 < a < 1" in capsys.readouterr().err


def test_k8_face_labels_match_golden_file(tmp_path, capsys):
    # The faces document, the scatter tail legend and the face,chiral_copy,
    # tail columns of the CSV export of a seeded K8 system, recorded while
    # faces were traced on (arc, parity) states; integers only, so the
    # fixture holds on every platform.
    golden = json.loads((Path(__file__).parent / "data" / "k8_golden.json").read_text())
    path = tmp_path / "k8.txt"
    path.write_text(golden["system"])
    assert main(["faces", str(path)]) == 0
    assert capsys.readouterr().out == json.dumps(golden["faces"], indent=2) + "\n"
    code, payload = run_json(capsys, "scatter", str(path))
    assert code == 0
    assert payload["tails"] == golden["tails"]
    assert main(["scatter", str(path), "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [",".join(row.split(",")[:3]) for row in rows] == golden["scatter_csv"]


def test_rank_rejects_a_bad_a_before_the_census(monkeypatch, capsys):
    # K5 has 7,962,624 raw systems: the option is checked before any of
    # them is enumerated.
    def no_census(graph):
        raise AssertionError("the census ran before --a was checked")

    monkeypatch.setattr("surfwalk.cli.enumerate_embeddings", no_census)
    assert main(["rank", "K5", "--a", "1.5"]) == 3
    assert "--a needs 0 < a < 1" in capsys.readouterr().err


def test_unwritable_out_exits_2_without_a_traceback(projective_file, tmp_path, capsys):
    out = tmp_path / "absent" / "x.json"
    assert main(["genus", projective_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'--out'" in captured.err and str(out) in captured.err
    assert "No such file or directory" in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_failed_write_to_out_exits_2_without_a_traceback(projective_file, capsys):
    assert main(["genus", projective_file, "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Invalid value for '--out': cannot write '/dev/full': No space left on device\n"


@pytest.mark.parametrize("command", ["genus", "enumerate"])
def test_failed_read_exits_2_with_one_error_line(command, projective_file, monkeypatch, capsys):
    class UnreadableFile(io.StringIO):
        def read(self, *args):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: UnreadableFile(), raising=False)
    assert main([command, projective_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot read {projective_file!r}: {os.strerror(errno.EIO)}\n"


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
def test_enumerate_reads_a_pipe_as_it_reads_the_file(projective_file, capsys):
    # A pipe path, as the shell's <(cat FILE) passes one.
    assert main(["enumerate", projective_file]) == 0
    from_file = capsys.readouterr()
    read, write = os.pipe()
    os.write(write, PROJECTIVE_K4_FILE.encode())
    os.close(write)
    try:
        assert main(["enumerate", f"/dev/fd/{read}"]) == 0
    finally:
        os.close(read)
    assert capsys.readouterr() == from_file


@pytest.mark.parametrize("command", ["genus", "scatter"])
def test_failed_write_to_stdout_exits_2_without_a_traceback(command, projective_file, monkeypatch, capsys):
    class FullStdout(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("sys.stdout", FullStdout())
    assert main([command, projective_file]) == 2
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_console_script_on_full_stdout_exits_2_with_one_error_line():
    # Buffered stdout, as a shell gives it: the unsent text must not fail
    # the interpreter's last flush and turn the exit status into 120.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(surfwalk.__file__).parents[1]), env.get("PYTHONPATH", "")])
    script = "import sys; from surfwalk.cli import main; sys.exit(main())"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-c", script, "rank", "K4"], stdout=full, stderr=subprocess.PIPE, env=env, text=True
        )
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
def test_out_to_dev_null(capsys):
    assert main(["rank", "K4", "--out", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")


def test_shorter_document_over_a_longer_out_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["enumerate", "K4", "--a", "0.5", "--a", "0.98", "--out", str(out)]) == 0
    longer = out.stat().st_size
    assert main(["rank", "K4", "--out", str(out)]) == 0
    assert main(["rank", "K4"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert len(stdout) < longer
    assert out.read_bytes() == stdout and out.stat().st_size == len(stdout)


def test_failing_renderer_leaves_the_bytes_written_before_it(tmp_path):
    out = tmp_path / "out.json"
    out.write_text("x" * 1000)

    def parts():
        yield "first part\n"
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        cli._emit(parts(), str(out))
    assert out.read_bytes() == b"first part\n"


@pytest.fixture
def planar_file(tmp_path):
    path = tmp_path / "planar.txt"
    path.write_text(PROJECTIVE_K4_FILE.replace("edge 0 1 1", "edge 0 1 0"))
    return str(path)


@pytest.mark.parametrize(
    "system, genus, orientable",
    [
        ("projective_file", {"orientable": False, "genus": 1, "surface": "k=1", "face_count": 3},
         {"orientable": False, "double_cover_components": 1, "agreement": True}),
        ("planar_file", {"orientable": True, "genus": 0, "surface": "g=0", "face_count": 4},
         {"orientable": True, "double_cover_components": 2, "agreement": True}),
    ],
    ids=["projective-k4", "planar-k4"],
)
def test_genus_and_orientable_documents(system, genus, orientable, request, tmp_path, capsys):
    path = request.getfixturevalue(system)
    for command, expected in (("genus", genus), ("orientable", orientable)):
        assert main([command, path]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(expected, indent=2) + "\n"
        out = tmp_path / f"{command}.json"
        assert main([command, path, "--out", str(out)]) == 0
        assert out.read_text() == text


def test_simulate_uniform_inflow(projective_file, capsys):
    code, payload = run_json(capsys, "simulate", projective_file, "--inflow", "uniform", "--tol", "1e-11")
    assert code == 0
    assert len(payload["outflow"]) == 24
    cmp = payload["comparison"]
    assert max(cmp.values()) < 1e-8


@pytest.mark.parametrize(
    "argv, message",
    [
        (["comfort", "--inflow", "1e3"], "--inflow takes a tail id or 'uniform', got '1e3'"),
        (["scatter", "--a", "0.5,x"], "complex values read 're' or 're,im', got '0.5,x'"),
        # A part is read as --tol is: float() reads these as 0.5 and 10.
        (["scatter", "--a", "\u0660.\u0665"], "complex values read 're' or 're,im', got '\u0660.\u0665'"),
        (["scatter", "--b", "0.5, 1_0"], "complex values read 're' or 're,im', got '0.5, 1_0'"),
    ],
    ids=["comfort-inflow-1e3", "scatter-a-0.5,x", "scatter-a-arabic-indic", "scatter-b-separator"],
)
def test_malformed_option_values_exit_3(projective_file, argv, message, capsys):
    assert main([argv[0], projective_file, *argv[1:]]) == 3
    assert message in capsys.readouterr().err


def test_enumerate_takes_the_graph_from_a_file(projective_file, capsys):
    # The file's graph is K4, whatever its rotations and twists.
    assert main(["enumerate", projective_file, "--a", "0.98"]) == 0
    from_file = capsys.readouterr().out
    assert main(["enumerate", "K4", "--a", "0.98"]) == 0
    assert from_file == capsys.readouterr().out
    assert len(from_file.splitlines()) == 12


def test_help_exits_0_with_the_usage_on_stdout(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("Usage: surfwalk [OPTIONS] COMMAND") and err == ""
    for command in ("faces", "genus", "orientable", "scatter", "comfort", "simulate", "enumerate", "rank"):
        assert f"\n  {command} " in out
    assert main(["simulate", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("Usage: surfwalk simulate [OPTIONS] FILE") and err == ""
    assert "--max-steps INTEGER" in out and "[default: 1000000]" in out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["genus", "{file}", "--bogus"],
        ["genus"],
        ["genus", "{absent}"],
        ["genus", "{directory}"],
        ["simulate", "{file}", "--tol", "x"],
        ["simulate", "{file}", "--tol", " 1_0e-3 "],
        ["simulate", "{file}", "--tol", "1_0e-3"],
        ["enumerate", "K4", "--a", "\u0660.\u0665"],
        ["rank", "K4", "--a", "0.98 "],
        ["simulate", "{file}", "--max-steps", "x"],
        ["enumerate", "K4", "--a", "x"],
        ["enumerate", "K\u0664"],
        ["rank", "K\u0661\u0660"],
        ["genus", "{file}", "--out", ""],
        ["genus", "{file}", "--out="],
    ],
    ids=["no-command", "unknown-command", "unknown-option", "missing-file", "absent-file", "directory-file",
         "tol-x", "tol-spaces-separator", "tol-separator", "enumerate-a-arabic-indic", "rank-a-space",
         "max-steps-x", "enumerate-a-x", "arabic-indic-kn", "arabic-indic-rank-kn", "empty-out",
         "empty-out-after-equals"],
)
def test_usage_faults_exit_2_with_one_error_line(argv, projective_file, tmp_path, capsys):
    paths = {"file": projective_file, "absent": str(tmp_path / "absent.txt"), "directory": str(tmp_path)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("d", ["-0.3,0.4", f"-{ROOT2!r}"], ids=["complex-d", "hadamard-d"])
def test_an_option_value_after_equals_is_the_next_token(projective_file, d, capsys):
    # The token after an option is its value whatever it starts with, as
    # after "=".
    runs = []
    for flag in ([f"--d={d}"], ["--d", d]):
        code = main(["scatter", projective_file, "--a", repr(ROOT2), *flag])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == (3 if "," in d else 0)
    assert main(["genus", "--", projective_file]) == 0


def test_importing_the_cli_leaves_click_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(surfwalk.__file__).parents[1]), env.get("PYTHONPATH", "")])
    script = "import sys, surfwalk.cli; sys.exit('click' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0
