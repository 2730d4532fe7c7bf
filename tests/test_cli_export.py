"""The CLI's exported arrays: byte identity with the entry-by-entry oracle
and the vectorised text helpers on their own."""

import json
import math
import re

import numpy as np
import pytest

import cli_oracle
import dense_oracle
from conftest import random_rotation_system
from surfwalk import cli
from surfwalk.covering_blowup import hedgehog
from surfwalk.fileformat import parse_rotation_system, serialize_rotation_system
from surfwalk.graph_core import complete_graph
from surfwalk.scattering import ScatteringMatrix, scattering_matrix
from surfwalk.walk_dynamics import Coin
from test_cli import C4_PLANAR
from test_fileformat import PROJECTIVE_K4_FILE

ROOT2 = 1.0 / math.sqrt(2.0)
_COMPLEX = Coin.from_params(0.7, 0.4, 1.3)
COINS = {
    "hadamard": (ROOT2, ROOT2, ROOT2, -ROOT2),
    "complex": (_COMPLEX.a, _COMPLEX.b, _COMPLEX.c, _COMPLEX.d),
}


def _system_file(tmp_path, name):
    if name == "projective":
        text = PROJECTIVE_K4_FILE
    elif name == "c4":
        text = C4_PLANAR
    else:
        n = int(name[1:])
        text = serialize_rotation_system(random_rotation_system(np.random.default_rng(n), complete_graph(n)))
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    return str(path), parse_rotation_system(text)


def _coin_args(name):
    """The CLI flags for a coin, and the coin the CLI parses from them."""
    entries = [complex(x) for x in COINS[name]]
    flags = [f for key, z in zip("abcd", entries) for f in (f"--{key}", cli_oracle.fmt_complex(z))]
    return flags, Coin(*entries)


def _run(argv, out):
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("coin_name", sorted(COINS))
@pytest.mark.parametrize("file_name", ["projective", "c4", "k12"])
def test_exports_match_entry_by_entry_oracle(file_name, coin_name, tmp_path):
    path, rs = _system_file(tmp_path, file_name)
    flags, coin = _coin_args(coin_name)
    out = tmp_path / "out"
    assert _run(["scatter", path, *flags], out) == cli_oracle.scatter_json(rs, coin)
    assert _run(["scatter", path, *flags, "--format", "csv"], out) == cli_oracle.scatter_csv(rs, coin)
    simulated = _run(["simulate", path, *flags, "--tol", "1e-12"], out)
    assert simulated == cli_oracle.simulate_json(rs, coin, tail=0, tol=1e-12)


def test_oracle_exercises_signed_zero(tmp_path):
    # The Hadamard walk on the projective K4 leaves entries of exactly -0,
    # which a renderer deduplicating float values would print as 0.
    path, rs = _system_file(tmp_path, "projective")
    flags, coin = _coin_args("hadamard")
    oracle = cli_oracle.simulate_json(rs, coin, tail=0, tol=1e-12)
    assert re.search(r'[",]-0[,"]', oracle)
    assert _run(["simulate", path, *flags, "--tol", "1e-12"], tmp_path / "out") == oracle


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scatter_stdout_matches_out_file(fmt, tmp_path, capsys):
    path, _ = _system_file(tmp_path, "k12")
    flags, _ = _coin_args("complex")
    argv = ["scatter", path, *flags, "--format", fmt]
    written = _run(argv, tmp_path / "out")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == written
    assert written.endswith("}\n" if fmt == "json" else "\n")


@pytest.mark.parametrize("command", [["faces"], ["comfort", "--limit"]], ids=["faces", "comfort"])
def test_json_stdout_matches_out_file(command, tmp_path, capsys):
    path, _ = _system_file(tmp_path, "projective")
    argv = [command[0], path, *command[1:]]
    written = _run(argv, tmp_path / "out")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == written
    assert written.endswith("}\n")


ADVERSARIAL = np.array(
    [
        0.0,
        -0.0,
        np.nan,
        np.copysign(np.nan, -1.0),
        np.inf,
        -np.inf,
        5e-324,
        -5e-324,
        np.nextafter(1.0, 2.0),
        np.nextafter(1.0, 0.0),
        1.0,
        1 / 3,
        -1 / 3,
        np.nextafter(1 / 3, 1.0),
        np.nextafter(1 / 3, 0.0),
        0.1,
        1e300,
        -2.2250738585072014e-308,
        0.0,
        -0.0,
    ]
)


def test_float_texts_match_format_spec():
    expected = [f"{x:.17g}" for x in ADVERSARIAL.tolist()]
    assert cli._float_texts(ADVERSARIAL).tolist() == expected
    assert cli._float_texts(ADVERSARIAL.reshape(4, 5)).tolist() == np.reshape(expected, (4, 5)).tolist()
    assert cli._float_texts(np.zeros(0)).tolist() == []


def test_complex_texts_match_format_spec():
    # Pair every adversarial float with every other, as (re, im) bit patterns.
    re_part, im_part = np.meshgrid(ADVERSARIAL, ADVERSARIAL)
    z = np.stack([re_part, im_part], axis=-1).view(complex)[..., 0]
    expected = [[f"{v.real:.17g},{v.imag:.17g}" for v in row] for row in z.tolist()]
    assert cli._complex_texts(z).tolist() == expected


def _plain(node, matrices):
    """The payload as json.dumps takes it: lists for arrays, a list of
    records for a tail legend, and for each matrix renderer the rows that
    ``matrices`` holds for it."""
    if isinstance(node, cli._TailLegend):
        return [
            {"tail": t, "bridge": b, "base_arc": [o, d], "sheet": s}
            for t, b, o, d, s in zip(node.tail, node.bridge, node.origin, node.terminus, node.sheet)
        ]
    if isinstance(node, dict):
        return {key: _plain(value, matrices) for key, value in node.items()}
    if isinstance(node, list):
        return [_plain(value, matrices) for value in node]
    if callable(node):
        return matrices[node]
    return node.tolist() if isinstance(node, np.ndarray) else node


def test_dumps_matches_json_dumps():
    texts = np.array(["1,0", "-0,2", "3,nan", "inf,-inf"], dtype=object)
    grids = [np.array([[0, 1], [2, 3]]), np.array([[3]]), np.array([[1, 1, 0], [0, 2, 2], [3, 3, 3]])]
    two, one, three = renderers = cli._json_blocks(texts, grids)
    matrices = {render: texts[grid].tolist() for render, grid in zip(renderers, grids)}
    legend = cli._tail_legend(hedgehog(parse_rotation_system(PROJECTIVE_K4_FILE)))
    first = cli._TailLegend(*(column[:1] for column in legend))
    none = cli._TailLegend([], [], [], [], [])
    payloads = [
        {
            "n": 1.5,
            "empty": np.array([], dtype=object),
            "flat": texts,
            "nested": [{"matrix": two, "single": one}, texts[1:]],
            "last": "x",
        },
        legend,
        {"tails": legend, "n": 3},
        {"nested": [{"tails": first}, none, legend], "rows": [three, one]},
        {"n": 1, "last": first, "matrix": three},
    ]
    for payload in payloads:
        assert "".join(cli._iterdumps(payload)) == json.dumps(_plain(payload, matrices), indent=2)


def test_scatter_formats_each_distinct_float_once(tmp_path, monkeypatch):
    # A structural guard against a per-entry renderer: the one formatting
    # call site runs at most once per distinct bit pattern of the blocks.
    path, rs = _system_file(tmp_path, "k16")
    flags, coin = _coin_args("complex")
    blocks = scattering_matrix(hedgehog(rs), coin).blocks
    bits = np.concatenate([block.ravel() for _, block in blocks]).view(np.int64)
    distinct = len(np.unique(bits))
    assert distinct < bits.size

    calls = []
    format_float = cli._format_float
    monkeypatch.setattr(cli, "_format_float", lambda x: calls.append(x) or format_float(x))
    for fmt in ("json", "csv"):
        calls.clear()
        _run(["scatter", path, *flags, "--format", fmt], tmp_path / "out")
        assert 0 < len(calls) <= distinct


def test_scatter_renders_only_table_values(tmp_path, monkeypatch):
    # Every entry of a face block is one of its 2q + 1 table values, so the
    # distinct-float pass sees O(sum q) floats, not the 2 sum q^2 of the blocks.
    path, rs = _system_file(tmp_path, "k16")
    flags, coin = _coin_args("complex")
    lengths = [len(face) for face in hedgehog(rs).faces]
    floats = []
    distinct_texts = cli._distinct_texts
    monkeypatch.setattr(cli, "_distinct_texts", lambda x: floats.append(np.size(x)) or distinct_texts(x))
    for fmt in ("json", "csv"):
        floats.clear()
        _run(["scatter", path, *flags, "--format", fmt], tmp_path / "out")
        assert 0 < sum(floats) <= 2 * sum(2 * q + 1 for q in lengths) < sum(q * q for q in lengths)


def test_scatter_builds_no_dense_block(tmp_path, monkeypatch):
    # The export renders from the face tables and takes the unitarity defect
    # from the circulant spectrum; a dense block would show up here.
    path, rs = _system_file(tmp_path, "k16")
    flags, coin = _coin_args("complex")
    expected = {"json": cli_oracle.scatter_json(rs, coin), "csv": cli_oracle.scatter_csv(rs, coin)}
    dense = dense_oracle.unitarity_defect(scattering_matrix(hedgehog(rs), coin).blocks)

    def refuse(self):
        raise AssertionError("a dense face block was built")

    monkeypatch.setattr(ScatteringMatrix, "blocks", property(refuse))
    for fmt, text in expected.items():
        assert _run(["scatter", path, *flags, "--format", fmt], tmp_path / "out") == text
    # The oracle reads the library's defect for that key; hold it to the
    # dense Gram of the blocks.
    assert abs(json.loads(expected["json"])["unitarity_defect"] - dense) <= 1e-12
