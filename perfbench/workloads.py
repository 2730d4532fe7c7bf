"""The four workloads: what one op does and how its answer is checked.

Each workload has a ``generate`` step that builds JSON-able inputs from the
seed (``inputs`` module, no surfwalk) and a ``prepare`` step that turns
them into ops, doing any set-up that needs the program (the K4 census,
files on disk).  An op's ``run`` is timed; its ``check`` is not, and
compares the answer with an oracle that does not share the timed path.

The ops call surfwalk through module attributes at call time, so a traced
run sees them through its wrappers and an untraced run never does.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import surfwalk as sw
import surfwalk.cli  # noqa: F401  (makes sw.cli available)

from . import calibrate, inputs

ORACLE_TOL = 1e-8
# The simulator stops when one step changes the state by less than its
# tolerance; the error left is about that over (1 - rate), which for |a|
# near 0.9 comes within a factor of two of ORACLE_TOL at the default 1e-10.
SIMULATOR_TOL = 1e-12
FORMULA_RTOL = 1e-9
UNITARITY_TOL = 1e-9
RANK_A = 0.98

# closed_large: K_n sizes.  Each K_n embedding is the median of many random
# draws by cube share (inputs.random_kn_system).
CLOSED_SIZES = (16, 20, 24, 28, 32)
# oracle_small: points of the real_symmetric(a) grid.
ORACLE_GRID = 8
# oracle_small: one random system with each of these face counts per graph.
ORACLE_FACES = (1, 2)
ORACLE_COIN_MAGNITUDE = 0.7
# cli: the generated K_n files.
CLI_SIZES = (16, 20)


class Check:
    """The verdict on one op's answer."""

    def __init__(self):
        self.failures: list[str] = []
        self.max_gap = 0.0
        self.max_defect = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self, what: str, condition: bool):
        if not condition:
            self.failures.append(what)

    def close(self, what: str, gap: float, tol: float):
        gap = float(gap)
        self.max_gap = max(self.max_gap, gap)
        if not gap <= tol:
            self.failures.append(f"{what}: gap {gap:.3g} > {tol:g}")

    def unitarity(self, defect: float):
        defect = float(defect)
        self.max_defect = max(self.max_defect, defect)
        if not defect <= UNITARITY_TOL:
            self.failures.append(f"unitarity defect {defect:.3g} > {UNITARITY_TOL:g}")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Check], None]


@dataclass
class Prepared:
    ops: list[Op]
    warmup: list[Op]


def _maxabs(x) -> float:
    return float(np.abs(x).max(initial=0.0))


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(1.0, abs(ref))


def _coin(spec: dict | None) -> sw.Coin:
    if spec is None:
        return sw.Coin.hadamard_type()
    return sw.Coin.from_params(spec["s"], spec["phi"], spec["beta"])


def _unit(n: int, tail: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[tail] = 1.0
    return v


def _hedgehog(rs):
    return sw.attach_hedgehog(sw.blow_up(sw.double_cover(rs)))


# --------------------------------------------------------------------------
# census: enumeration, genus range and ranking of every small graph.
# --------------------------------------------------------------------------


def generate_census(rng) -> dict:
    # The seed shuffles the order only: enumeration time of some graphs
    # moves by up to half with the vertex labelling, which would make one
    # seed's op times differ from another's.
    family = inputs.census_family()
    return {"graphs": [{"n": n, "edges": edges} for n, edges in (family[i] for i in rng.permutation(len(family)))]}


def _census_op(n: int, edges) -> Op:
    edges = [tuple(e) for e in edges]
    raw = inputs.raw_system_count(n, edges)

    def run():
        classes = sw.enumerate_embeddings(sw.SymmetricDigraph.from_edges(n, edges))
        return classes, sw.min_max_genus(classes), sw.rank_by_comfortability(classes, RANK_A)

    def check(result, c: Check):
        classes, genus, ranked = result
        c.require("orbit sizes sum to the raw count", sum(x.orbit_size for x in classes) == raw)
        if n == 4 and len(edges) == 6:
            first, last = ranked[0].embedding, ranked[-1].embedding
            c.require("K4 has 11 classes", len(classes) == 11)
            c.require("the sphere ranks first", first.orientable and first.genus == 0)
            c.require(
                "the maximal-genus non-orientable class ranks last",
                not last.orientable and last.genus == genus.nonorientable_max,
            )

    return Op(f"census n={n} m={len(edges)}", run, check)


def prepare_census(data: dict, workdir: str) -> Prepared:
    ops = [_census_op(g["n"], g["edges"]) for g in data["graphs"]]
    return Prepared(ops, [op for op in ops if op.name == "census n=4 m=6"])


# --------------------------------------------------------------------------
# closed_large: the closed-form pipeline on random embeddings of K_n.
# --------------------------------------------------------------------------


def generate_closed_large(rng) -> dict:
    cases = []
    for n in CLOSED_SIZES:
        edges, orders, twists = inputs.random_kn_system(n, rng)
        text = inputs.system_text(n, edges, orders, twists)
        seeded = inputs.d_real_coin_params(rng, float(rng.uniform(0.2, 0.9)))
        for coin in (None, seeded):
            cases.append({"n": n, "text": text, "coin": coin, "tail": int(rng.integers(2 * n * (n - 1)))})
    return {"cases": cases}


def _closed_op(case: dict) -> Op:
    text, tail = case["text"], case["tail"]
    coin = _coin(case["coin"])
    # The simulator is deterministic and takes longer than the op itself on
    # K32, so it runs once per op and its answer is kept for later passes.
    oracle = []

    def run():
        rs = sw.parse_rotation_system(text)
        fd = sw.trace_faces(rs)
        bg = _hedgehog(rs)
        s = sw.scattering_matrix(bg, coin)
        inflow = _unit(bg.size, tail)
        state = sw.stationary_closed_form(bg, coin, inflow, scattering=s)
        report = sw.comfortability(fd, coin, inflow, scattering=s)
        average = sw.average_comfortability(fd, coin)
        limit = sw.limit_comfortability(fd)
        return bg, s, inflow, state, report, average, limit

    def check(result, c: Check):
        bg, s, inflow, state, report, average, limit = result
        if not oracle:
            oracle.append(sw.run_to_stationary(bg, coin, inflow, tol=SIMULATOR_TOL))
        sim = oracle[0]
        c.close("simulated vs closed-form outflow", _maxabs(sim.outflow - state.outflow), ORACLE_TOL)
        c.close(
            "simulated vs closed-form state",
            max(
                _maxabs(sim.island_in - state.island_in),
                _maxabs(sim.island_plus - state.island_plus),
                _maxabs(sim.bridge - state.bridge),
            ),
            ORACLE_TOL,
        )
        c.close("comfortability vs internal energy", _rel(report.energy, sw.internal_energy(state)), ORACLE_TOL)
        c.unitarity(s.unitarity_defect())
        c.require("finite average and limit", math.isfinite(average) and math.isfinite(limit))

    label = "hadamard" if case["coin"] is None else "seeded"
    return Op(f"closed K{case['n']} {label}", run, check)


def prepare_closed_large(data: dict, workdir: str) -> Prepared:
    ops = [_closed_op(case) for case in data["cases"]]
    smallest = min(case["n"] for case in data["cases"])
    return Prepared(ops, [op for op, case in zip(ops, data["cases"]) if case["n"] == smallest])


# --------------------------------------------------------------------------
# oracle_small: the simulator oracle and many small closed-form calls.
# --------------------------------------------------------------------------


def generate_oracle_small(rng) -> dict:
    # Random systems on the six-vertex, eight-edge census graphs: all have
    # 32 tails.  A closed op's cost grows with the face count (about 2 to
    # 5 ms for one to three faces), so each graph gets one system of each
    # count in ORACLE_FACES: a seed changes the systems but not the work.
    graphs = [(n, e) for n, e in inputs.census_family() if n == 6 and len(e) == 8]
    systems = []
    for n, edges in graphs:
        for faces in ORACLE_FACES:
            systems.append(inputs.system_text(n, *inputs.random_system_with_faces(n, edges, faces, rng)))
    grid = sorted((k + float(rng.uniform(0.1, 0.9))) / ORACLE_GRID for k in range(ORACLE_GRID))
    return {"systems": systems, "grid": grid, "coin": inputs.d_real_coin_params(rng, ORACLE_COIN_MAGNITUDE)}


def _simulate_op(label: str, bg, coin: sw.Coin) -> Op:
    def run():
        return sw.outflow_map(bg, coin)

    def check(outflow, c: Check):
        s = sw.scattering_matrix(bg, coin)
        c.close("outflow_map vs S", _maxabs(outflow - s.matrix()), ORACLE_TOL)

    return Op(f"simulate {label}", run, check)


def _closed_small_op(label: str, fd, bg, a: float) -> Op:
    coin = sw.Coin.real_symmetric(a)

    def run():
        s = sw.scattering_matrix(bg, coin)
        enumerated = sw.average_by_enumeration(fd, coin)
        formula = sw.average_comfortability(fd, coin)
        return s, enumerated, formula

    def check(result, c: Check):
        s, enumerated, formula = result
        c.close("enumerated vs formula average", _rel(enumerated, formula), FORMULA_RTOL)
        c.close("positive-coin form vs formula", _rel(sw.positive_coin_average(fd, a), formula), FORMULA_RTOL)
        c.unitarity(s.unitarity_defect())

    return Op(f"closed {label} a={a:.3f}", run, check)


def prepare_oracle_small(data: dict, workdir: str) -> Prepared:
    classes = sw.enumerate_embeddings(sw.complete_graph(4))
    subjects = [(f"K4 {c.label}", c.decomposition) for c in classes]
    subjects += [
        (f"random {i}", sw.trace_faces(sw.parse_rotation_system(text))) for i, text in enumerate(data["systems"])
    ]
    hedgehogs = [_hedgehog(fd.rs) for _, fd in subjects]
    seeded = _coin(data["coin"])
    ops = []
    # The simulator runs on the sphere and on the last (one-face) class.
    for index in (0, len(classes) - 1):
        for coin_label, coin in (("hadamard", sw.Coin.hadamard_type()), ("seeded", seeded)):
            ops.append(_simulate_op(f"{subjects[index][0]} {coin_label}", hedgehogs[index], coin))
    for (label, fd), bg in zip(subjects, hedgehogs):
        ops.extend(_closed_small_op(label, fd, bg, a) for a in data["grid"])
    return Prepared(ops, [ops[0], ops[-1]])


# --------------------------------------------------------------------------
# cli: every command in-process through surfwalk.cli.main.
# --------------------------------------------------------------------------

# The planar K4 rotation with edge 0-1 twisted: the projective plane.
PROJECTIVE_K4 = inputs.system_text(
    4,
    inputs.complete_edges(4),
    [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
    [1, 0, 0, 0, 0, 0],
)


def generate_cli(rng) -> dict:
    files = {"k4p": {"text": PROJECTIVE_K4, "faces": 3, "tail": int(rng.integers(24))}}
    for n in CLI_SIZES:
        edges, orders, twists = inputs.random_kn_system(n, rng)
        files[f"k{n}"] = {
            "text": inputs.system_text(n, edges, orders, twists),
            "faces": len(inputs.face_lengths(n, edges, orders, twists)) // 2,
            "tail": int(rng.integers(2 * n * (n - 1))),
        }
    return {"files": files}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli_op(label: str, argv: list[str], out: str, verify=None) -> Op:
    argv = argv + ["--out", out]

    def run():
        return sw.cli.main(argv)

    def check(code, c: Check):
        c.require(f"exit code {code}", code == 0)
        if code == 0 and verify is not None:
            verify(_read(out), c)

    return Op(label, run, check)


def _verify_scatter(text: str, c: Check):
    c.unitarity(json.loads(text)["unitarity_defect"])


def _verify_simulate(text: str, c: Check):
    for key, gap in json.loads(text)["comparison"].items():
        c.close(f"simulate {key}", gap, ORACLE_TOL)


def _verify_faces(count: int):
    def verify(text: str, c: Check):
        c.require(f"face count is {count}", json.loads(text)["face_count"] == count)

    return verify


def _verify_rank(text: str, c: Check):
    rows = text.splitlines()
    c.require("the sphere ranks first", len(rows) > 1 and rows[1].startswith("g=0"))


def _file_ops(name: str, path: str, spec: dict, workdir: str) -> list[Op]:
    def out(kind):
        return os.path.join(workdir, f"{name}-{kind}.out")

    return [
        _cli_op(f"faces {name}", ["faces", path], out("faces")),
        _cli_op(f"genus {name}", ["genus", path], out("genus"), _verify_faces(spec["faces"])),
        _cli_op(f"orientable {name}", ["orientable", path], out("orientable")),
        _cli_op(f"scatter json {name}", ["scatter", path], out("scatter.json"), _verify_scatter),
        _cli_op(f"scatter csv {name}", ["scatter", path, "--format", "csv"], out("scatter.csv")),
        _cli_op(f"comfort limit {name}", ["comfort", path, "--limit"], out("comfort")),
        _cli_op(f"comfort tail {name}", ["comfort", path, "--inflow", str(spec["tail"])], out("comfort-tail")),
        _cli_op(f"simulate {name}", ["simulate", path, "--tol", str(SIMULATOR_TOL)], out("simulate"), _verify_simulate),
    ]


def prepare_cli(data: dict, workdir: str) -> Prepared:
    ops, warmup = [], []
    for name, spec in data["files"].items():
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec["text"])
        file_ops = _file_ops(name, path, spec, workdir)
        ops += file_ops
        if name == "k4p":
            warmup += file_ops
    k4 = [
        _cli_op("enumerate K4", ["enumerate", "K4", "--a", "0.5", "--a", "0.98"], os.path.join(workdir, "enumerate.out")),
        _cli_op("rank K4", ["rank", "K4"], os.path.join(workdir, "rank.out"), _verify_rank),
    ]
    return Prepared(ops + k4, warmup + k4)


# name -> (generate, prepare, calibration kernel).  closed_large spends most
# of its time in large dense inverses; the others in the interpreter (cli's
# largest ops format JSON and CSV).
WORKLOADS = {
    "census": (generate_census, prepare_census, calibrate.INTERP),
    "closed_large": (generate_closed_large, prepare_closed_large, calibrate.DENSE),
    "oracle_small": (generate_oracle_small, prepare_oracle_small, calibrate.INTERP),
    "cli": (generate_cli, prepare_cli, calibrate.INTERP),
}
