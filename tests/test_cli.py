import json
import math
import time

import numpy as np
import pytest

from surfwalk.cli import main
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


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("EW_BUDGET", "10")
    assert main(["enumerate", "K4"]) == 5


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
