"""Seeded operation streams for the four benchmark workloads, with output checks.

Every workload is a closed loop: the next operation ("op") starts when the
previous one has returned.  Op ``i`` of a workload is a pure function of
(workload, seed, i), so two commits run identical inputs.  The stream comes
in cycles that hold the same op shapes (the inputs that set an op's cost)
in a seeded order, each jittered by a few percent, so that the mix of op
costs is the same in every run and a run measures whole cycles.

Workloads and why they were chosen:

* ``table-closed`` -- ``sdpoisson table --method auto`` through ``cli.main``
  in process, CSV to a scratch directory.  lam*t and mu*s in [0.5, 6],
  a in [0.1, 0.9], both signs of z, blocks covering the Poisson mass
  (at most 47).  The paper's elementary closed-form route inside its
  validated box: the work is the closed terms in ``pmf`` and the Kummer and
  Poisson weights in ``special``.
* ``table-quadrature`` -- library ``pmf_table(method="quadrature")`` with
  lam*t and mu*s in [0.5, 20], the smaller at least half the larger.  The
  accuracy-authority route: the work is ``quadrature_term`` and scipy
  ``quad``; no closed term runs.
* ``mc-verify`` -- library ``mc_joint_pmf_grid`` (1-3 points, blocks
  3-10, 1e5-2e5 paths, one worker, no pool) mixed with
  ``sdpoisson verify --samples 200000``.  The Monte Carlo oracle: RNG
  draws, cumulative sums and count kernels, with memory growing with the
  horizon.  Horizons, as rate*time, run up to 40, where one op peaks near
  0.8 GB of RSS.
* ``paths`` -- ``simulate_path`` (1e3-2e4 renewals) followed by
  ``count_at``/``compensated_at`` on a time grid, mixed with
  ``sdpoisson simulate --n`` (1e4-1e5 renewals) in CSV and in JSON.  The
  only workload through the per-triple loop in ``process`` and the
  row-by-row writers in ``cli``; ``pmf`` does nothing here.

None of these ranges reaches the large-horizon underflow of the pmf
evaluators (horizons of 745 and beyond): a table covering that region costs
minutes per op, so the benchmark makes no claim about it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sdpoisson.cli
import sdpoisson.harness
import sdpoisson.pmf
import sdpoisson.process
from sdpoisson.exponential import ModelParams

# The printed op-list hash covers the first CHUNK ops, which fix the
# generator and hence the whole stream.
CHUNK = 256

# Each block axis stops where the Poisson tail beyond it drops below this,
# which keeps the truncation (<= 2e-10 per row or column) far inside the
# 1e-8 marginal tolerance.
BLOCK_TAIL = 1e-10
CLOSED_BLOCK_CAP = 47
QUAD_TOL = 1e-10
# Closed-route allowance on the table deficit, the one `sdpoisson verify`
# uses; a cell that may route to quadrature adds 4 * quad_tol.
CLOSED_DEFICIT_SLACK = 1e-12
MARGINAL_TOL = 1e-8
CROSSCHECK_TOL = 1e-8
CROSSCHECK_CELLS = 3
# Monte Carlo bands: a correct program fails a run with probability below
# 1e-4, by a Bonferroni split over at most this many cells per run.
MC_RUN_FAILURE = 1e-4
MC_MAX_CELLS_PER_RUN = 10**6
PATH_GRID = 200
# Largest Monte Carlo horizon, as rate * time.  _count_grid draws batches
# of 1e5 paths with load + 12*sqrt(load) + 30 renewals each (146 at 40), so
# an op's memory grows with its horizon; at 40 one op peaks near 0.8 GB.
MC_HORIZON = 40.0
# Deterministic checks of `sdpoisson verify`; the other two are statistical
# verdicts, tallied but not counted as failures.
VERIFY_DETERMINISTIC = (
    "explicit-formulas",
    "closed-vs-quadrature",
    "table-normalization",
    "table-marginals",
    "copula-bounds",
    "kummer-reduction",
)
VERIFY_STATISTICAL = ("mc-agreement", "sampler-correlations")


class CheckFailed(Exception):
    """An op's output broke one of its correctness checks."""


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict
    work: int  # cells, Monte Carlo paths or renewals, counted from the inputs

    def to_json(self) -> dict:
        return {"kind": self.kind, "args": self.args, "work": self.work}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def block_size(mean: float) -> int:
    """Smallest k with P(X > k) <= BLOCK_TAIL for X ~ Poisson(mean).

    Computed here, not by the program under test, so block sizes depend on
    the benchmark alone.  The pmf is summed from the top down, which keeps
    small tails exact to rounding; terms above ``top`` are below 1e-30 for
    every load the workloads use.
    """
    top = math.ceil(mean + 20.0 * math.sqrt(mean) + 40.0)
    log_mean = math.log(mean)
    tail = 0.0
    for k in range(top, -1, -1):
        if tail > BLOCK_TAIL:
            return k + 1
        tail += math.exp(k * log_mean - mean - math.lgamma(k + 1))
    return 0


def _between(lo: float, hi: float, v: float) -> float:
    return lo + (hi - lo) * v


def _jitter(rng: random.Random, x: float, lo: float, hi: float) -> float:
    # A value that leaves [lo, hi] is reflected back inside rather than
    # clipped, so that no two ops share an endpoint exactly; a range too
    # narrow to reflect into gets a log-uniform draw across it.
    y = x * math.exp(rng.uniform(-JITTER, JITTER))
    if y > hi:
        y = hi * hi / y
    elif y < lo:
        y = lo * lo / y
    return y if lo <= y <= hi else _log_uniform(lo, hi, rng.random())


# Every op maker takes (rng, i, u, v): op i of its type in the cycle, u, the
# position of its main size on a log grid over the whole range (0 and 1 are
# the endpoints), and v, three coordinates in (0, 1) of a Latin-hypercube
# design that is the same for every seed.  Together they fix an op's shape:
# the inputs that set its cost.  The seed jitters each shape by a few percent
# and draws everything that does not set the cost (how the loads split into
# rates and times, RNG seeds, checked cells), so every run holds the same mix
# of op costs on distinct inputs.
JITTER = 0.03


def _grid(rng, lo: float, hi: float, u: float) -> float:
    return _jitter(rng, _log_uniform(lo, hi, u), lo, hi)


def _spread(k: int) -> tuple[float, ...]:
    return tuple(i / (k - 1) for i in range(k))


def _split(rng: random.Random, lam_t: float, mu_s: float) -> tuple[float, float, float, float]:
    # Rates in [0.5, 2] and the times giving these loads; a table's cost
    # depends on the loads and a only.
    lam, mu = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    return lam, mu, mu_s / mu, lam_t / lam


def _table_shape(load_hi: float, u: float, v, small_frac: float, jitter=None):
    # (lam*t, mu*s, a) of a table shape; jitter(x, lo, hi) perturbs each.
    # The smaller load is at least small_frac of the larger one, which sets
    # the mean op cost and with it the op count of a run.
    jitter = jitter or (lambda x, lo, hi: x)
    big = jitter(_log_uniform(0.5, load_hi, u), 0.5, load_hi)
    small_lo = max(0.5, small_frac * big)
    small = jitter(_log_uniform(small_lo, big, v[0]), small_lo, big)
    a = jitter(_between(0.1, 0.9, v[1]), 0.1, 0.9)
    return ((big, small) if v[2] < 0.5 else (small, big)) + (a,)


def _table_structure(lam_t: float, mu_s: float, a: float) -> tuple[int, int, bool]:
    # What sets a table's cost in steps rather than smoothly: the block
    # sizes and the sign of z, which decides whether the m < n half of the
    # block is exact zeros (lemma-exact) or evaluated.
    return block_size(mu_s), block_size(lam_t), lam_t < a * mu_s


def _table_op(rng, i, u, v, load_hi: float, kind: str, small_frac: float) -> Op:
    # The jitter is redrawn until the op keeps its nominal shape's block
    # sizes and sign of z, so that it moves the op's cost smoothly and by a
    # few percent only.
    nominal = _table_structure(*_table_shape(load_hi, u, v, small_frac))
    while True:
        lam_t, mu_s, a = _table_shape(load_hi, u, v, small_frac,
                                      lambda x, lo, hi: _jitter(rng, x, lo, hi))
        if _table_structure(lam_t, mu_s, a) == nominal:
            break
    lam, mu, s, t = _split(rng, lam_t, mu_s)
    m_max, n_max = block_size(mu_s), block_size(lam_t)
    if kind == "table-cli" and max(m_max, n_max) > CLOSED_BLOCK_CAP:
        raise AssertionError("closed-route block exceeds its cap")
    args = {"lam": lam, "mu": mu, "a": a, "s": s, "t": t, "m_max": m_max, "n_max": n_max,
            "check_seed": rng.getrandbits(32)}
    return Op(kind, args, (m_max + 1) * (n_max + 1))


def _mc_op(rng, i, u, v) -> Op:
    # Point 0 sits at the horizon (as rate * time) on one axis; the horizon
    # fixes the renewal budget and hence the op's memory.
    horizon = _grid(rng, 0.5, MC_HORIZON, u)
    lam, mu, _, _ = _split(rng, 1.0, 1.0)
    points = []
    for j in range(1 + i % 3):
        lt = horizon * (1.0 if j == 0 else rng.uniform(0.3, 1.0))
        ms = horizon * rng.uniform(0.3, 1.0)
        if rng.random() < 0.5:
            lt, ms = ms, lt
        points.append([ms / mu, lt / lam])
    n_samples = round(_jitter(rng, _between(100_000, 200_000, v[0]), 100_000, 200_000))
    args = {"lam": lam, "mu": mu, "a": rng.uniform(0.2, 0.8), "points": points,
            "m_max": rng.randint(3, 10), "n_max": rng.randint(3, 10),
            "n_samples": n_samples, "seed": rng.getrandbits(32)}
    return Op("mc-grid", args, n_samples)


def _verify_op(rng, i, u, v) -> Op:
    args = {"lam": _jitter(rng, _between(0.5, 2.0, v[0]), 0.5, 2.0),
            "mu": _jitter(rng, _between(0.5, 2.0, v[1]), 0.5, 2.0),
            "a": _jitter(rng, _between(0.2, 0.8, v[2]), 0.2, 0.8),
            "samples": 200_000, "seed": rng.getrandbits(31)}
    return Op("verify-cli", args, args["samples"])


def _path_op(rng, i, u, v) -> Op:
    n = round(_grid(rng, 1_000, 20_000, u))
    lam, mu, _, _ = _split(rng, 1.0, 1.0)
    args = {"lam": lam, "mu": mu, "a": rng.uniform(0.1, 0.9), "n": n,
            "seed": rng.getrandbits(32)}
    return Op("path", args, n)


def _simulate_op(fmt: str):
    def make(rng, i, u, v) -> Op:
        # The compensated trace has one row per jump of either chain below
        # the shorter horizon, so its length follows the rate ratio mu/lam.
        n = round(_grid(rng, 10_000, 100_000, u))
        ratio = _jitter(rng, _log_uniform(0.5, 2.0, v[0]), 0.5, 2.0)
        lam = rng.uniform(max(0.5, 0.5 / ratio), min(2.0, 2.0 / ratio))
        args = {"lam": lam, "mu": lam * ratio, "a": rng.uniform(0.1, 0.9), "n": n,
                "format": fmt, "seed": rng.getrandbits(31)}
        return Op("simulate-cli", args, n)
    return make


# One cycle per workload: (op maker, grid positions of its ops' main size,
# copies per cycle of the shape at a grid index; one where none is given).
# Cycle lengths are odd, and the median and the tail percentile fall inside
# a group of equal shapes rather than between two, so that neither flips
# between neighbouring shapes from run to run.
#
# The shape that holds the median, found by timing every shape of a cycle
# at several seeds, runs in several copies with as many shapes below it as
# above.  The median is then the middle of a group of 3-7 samples per cycle
# rather than one, which steadies it against the per-op noise of a shared
# host (about 15% between repeats of one op).  These are table-closed shape
# 8 (about 85 ms), table-quadrature shape 4 (about 250 ms) and mc-verify
# shape 6 (about 720 ms).  In ``paths`` the path ops and the small JSON ops
# repeat one size each: seven path ops at 1e3 renewals sit below the seven
# at 4.5e3 and seven costlier ops above them.
_CYCLES = {
    "table-closed": [(lambda *a: _table_op(*a, load_hi=6.0, kind="table-cli",
                                           small_frac=0.0), _spread(15), {8: 5})],
    "table-quadrature": [(lambda *a: _table_op(*a, load_hi=20.0, kind="table-lib",
                                               small_frac=0.5), _spread(9), {4: 5})],
    "mc-verify": [(_mc_op, _spread(10), {6: 3}), (_verify_op, (0.0,), {})],
    "paths": [(_path_op, (0.0,) * 7 + (0.5,) * 7 + (1.0,), {}),
              (_simulate_op("csv"), (0.0, 1.0), {}),
              (_simulate_op("json"), (0.0, 0.0, 0.0, 1.0), {})],
}


# Percentile at which each workload reports its op-latency tail.  It is
# fixed, so that runs and commits with different op counts report the same
# statistic; a run times enough cycles to leave ten ops beyond it.  Runs of
# ``mc-verify`` time 39 ops and runs of ``paths`` 63 (84 on a fast host), and
# p74 and p84 are the highest percentiles with ten ops beyond them at 39 and
# 63 ops.  They fall in the middle of the verify ops and of the 1e4-renewal
# JSON ops, where p75 and p80 would sit on a group's edge.
TAIL_PERCENTILE = {"table-closed": 90, "table-quadrature": 75, "mc-verify": 74, "paths": 84}
WORKLOADS = tuple(_CYCLES)


def _op_key(op: Op) -> list[tuple]:
    a = op.args
    if op.kind == "mc-grid":
        return [(a["lam"], a["mu"], a["a"], s, t) for s, t in a["points"]]
    return [(a["lam"], a["mu"], a["a"], a.get("s"), a.get("t"))]


class OpStream:
    """The workload's infinite op sequence, generated cycle by cycle."""

    def __init__(self, workload: str, seed: int):
        if workload not in _CYCLES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        design = random.Random(f"{workload}/design")
        self._design = []
        for make, grid, copies in _CYCLES[workload]:
            k = len(grid)
            perms = [design.sample(range(k), k) for _ in range(3)]
            for i, u in enumerate(grid):
                slot = (make, i, u, [(p[i] + 0.5) / k for p in perms])
                self._design += [slot] * copies.get(i, 1)
        self.cycle_len = len(self._design)
        self.tail_percentile = TAIL_PERCENTILE[workload]
        self.ops: list[Op] = []
        self._keys: set[tuple] = set()
        self._cycle = 0
        self._extend(CHUNK)
        self.digest = hashlib.sha256(
            json.dumps([op.to_json() for op in self.ops[:CHUNK]], sort_keys=True).encode()
        ).hexdigest()

    def _extend(self, count: int) -> None:
        while len(self.ops) < count:
            rng = random.Random(f"{self.workload}/{self.seed}/{self._cycle}")
            slots = list(self._design)
            rng.shuffle(slots)
            for make, i, u, v in slots:
                self._add(make(rng, i, u, v))
            self._cycle += 1

    def _add(self, op: Op) -> None:
        keys = _op_key(op)
        if any(key in self._keys for key in keys):
            raise AssertionError(f"generated a repeated (lam, mu, a, s, t): {keys}")
        self._keys.update(keys)
        self.ops.append(op)

    def __getitem__(self, i: int) -> Op:
        if i >= len(self.ops):
            self._extend(i + CHUNK)
        return self.ops[i]

    def warmup_op(self) -> Op:
        # Smallest size of the first op type, drawn from its own stream.
        rng = random.Random(f"{self.workload}/{self.seed}/warmup")
        make, _, _, v = self._design[0]
        op = make(rng, 0, 0.0, v)
        self._add(op)
        return op


# ---------------------------------------------------------------------------
# Execution (the timed part) and collection of outputs (untimed)
# ---------------------------------------------------------------------------


def _params(args: dict) -> ModelParams:
    return ModelParams(lam=args["lam"], mu=args["mu"], a=args["a"])


def _common_argv(args: dict, out: Path) -> list[str]:
    return ["--lambda", repr(args["lam"]), "--mu", repr(args["mu"]), "--a", repr(args["a"]),
            "--output", str(out / "op")]


def _cli(argv: list[str]) -> int:
    # The console report goes to memory, as to a pipe nobody reads.
    with contextlib.redirect_stdout(io.StringIO()):
        return sdpoisson.cli.main(argv)


def execute(op: Op, out: Path):
    """Run one op.  Module attributes are looked up at call time, so a
    traced run sees the calls through its wrappers."""
    a = op.args
    if op.kind == "table-cli":
        argv = ["table", *_common_argv(a, out), "--s", repr(a["s"]), "--t", repr(a["t"]),
                "--m-max", str(a["m_max"]), "--n-max", str(a["n_max"]), "--method", "auto"]
        return _cli(argv)
    if op.kind == "table-lib":
        return sdpoisson.pmf.pmf_table(_params(a), a["s"], a["t"], a["m_max"], a["n_max"],
                                       method="quadrature", quad_tol=QUAD_TOL)
    if op.kind == "mc-grid":
        return sdpoisson.harness.mc_joint_pmf_grid(
            _params(a), [tuple(p) for p in a["points"]], a["m_max"], a["n_max"],
            a["n_samples"], a["seed"], n_workers=1, parallel=False)
    if op.kind == "verify-cli":
        argv = ["verify", *_common_argv(a, out), "--samples", str(a["samples"]),
                "--seed", str(a["seed"]), "--format", "json"]
        return _cli(argv)
    if op.kind == "path":
        path = sdpoisson.process.simulate_path(_params(a), a["n"], a["seed"])
        grids, counts, comps = [], [], []
        for which, arrivals in (("N", path.t_arrivals), ("M", path.s_arrivals)):
            grid = np.linspace(0.0, arrivals[-1], PATH_GRID + 2)[1:-1]
            grids.append(grid)
            counts.append([sdpoisson.process.count_at(path, float(x), which) for x in grid])
            comps.append([sdpoisson.process.compensated_at(path, float(x), which) for x in grid])
        return {"path": path, "grids": grids, "counts": counts, "compensated": comps}
    if op.kind == "simulate-cli":
        argv = ["simulate", *_common_argv(a, out), "--n", str(a["n"]),
                "--seed", str(a["seed"]), "--format", a["format"]]
        return _cli(argv)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def collect(op: Op, result, out: Path) -> dict:
    """Gather an op's outputs into plain data for its checks."""
    if op.kind in ("table-cli", "verify-cli", "simulate-cli"):
        # verify exits 1 or 2 when a statistical verdict is not a pass;
        # its deterministic checks are judged from the JSON below.
        if result not in ((0, 1, 2) if op.kind == "verify-cli" else (0,)):
            raise CheckFailed(f"cli exit code {result}")
        files = sorted(out.iterdir())
        data = {"exit": result, "bytes": sum(f.stat().st_size for f in files)}
        if op.kind == "table-cli":
            rows = _read_csv(out / "op.csv")
            data["values"] = np.array([[float(v) for v in r[1:-2]] for r in rows])
            data["row_sums"] = np.array([float(r[-2]) for r in rows])
            data["poisson_row"] = np.array([float(r[-1]) for r in rows])
            cols = _read_csv(out / "op_colsums.csv")
            data["col_sums"] = np.array([float(r[1]) for r in cols])
            data["poisson_col"] = np.array([float(r[2]) for r in cols])
            summary = json.loads((out / "op_summary.json").read_text(encoding="utf-8"))
            data["deficit"] = summary["results"]["deficit"]
            data["tail_bound"] = summary["results"]["tail_bound"]
        elif op.kind == "verify-cli":
            data["checks"] = json.loads((out / "op.json").read_text(encoding="utf-8"))["checks"]
        elif op.args["format"] == "csv":
            rows = _read_csv(out / "op.csv")
            data["k"] = [int(r[0]) for r in rows]
            data["last"] = {"t_n": float(rows[-1][3]), "s_n": float(rows[-1][4])}
            data["summary"] = json.loads(
                (out / "op_summary.json").read_text(encoding="utf-8"))["results"]
            data["compensated_rows"] = len(_read_csv(out / "op_compensated.csv"))
        else:
            results = json.loads((out / "op.json").read_text(encoding="utf-8"))["results"]
            rows = results.pop("renewals")
            data["k"] = [int(r[0]) for r in rows]
            data["last"] = {"t_n": rows[-1][3], "s_n": rows[-1][4]}
            data["compensated_rows"] = len(results.pop("compensated"))
            data["summary"] = results
        for f in files:
            f.unlink()
        return data
    if op.kind == "table-lib":
        t = result
        return {"values": t.values, "row_sums": t.row_sums, "col_sums": t.col_sums,
                "poisson_row": t.poisson_row, "poisson_col": t.poisson_col,
                "deficit": t.deficit, "tail_bound": t.tail_bound}
    if op.kind == "mc-grid":
        return {"freq": np.array(result)}
    return {**result, "counts": [list(c) for c in result["counts"]]}


def corrupt(op: Op, data: dict) -> None:
    """Deliberately damage an op's output (smoke test of the checks)."""
    if "values" in data:
        data["values"] = data["values"].copy()
        data["values"][0, 0] += 1e-3
    elif "freq" in data:
        data["freq"] = data["freq"].copy()
        data["freq"][0, 0, 0] += 0.1
    elif "checks" in data:
        data["checks"][0]["verdict"] = "fail"
    elif "counts" in data:
        data["counts"][0] = list(data["counts"][0])
        data["counts"][0][-1] += 1
    else:
        data["k"] = data["k"][:-1]


# ---------------------------------------------------------------------------
# Checks (untimed).  Each returns (label, error, tolerance) triples; an error
# above its tolerance fails the op.
# ---------------------------------------------------------------------------


def _check_table(op: Op, d: dict) -> list[tuple[str, float, float]]:
    a = op.args
    cells = (a["m_max"] + 1) * (a["n_max"] + 1)
    slack = CLOSED_DEFICIT_SLACK + 4.0 * QUAD_TOL * cells
    deficit, bound = d["deficit"], d["tail_bound"]
    checks = [
        ("deficit-low", max(0.0, -deficit), 1e-9),
        ("deficit-high", max(0.0, deficit - bound), slack),
        ("total", abs((1.0 - float(d["values"].sum())) - deficit), 1e-12),
        ("row-sums", float(np.max(np.abs(d["values"].sum(axis=1) - d["poisson_row"]))),
         MARGINAL_TOL),
        ("col-sums", float(np.max(np.abs(d["values"].sum(axis=0) - d["poisson_col"]))),
         MARGINAL_TOL),
        ("reported-row-sums", float(np.max(np.abs(d["values"].sum(axis=1) - d["row_sums"]))),
         1e-12),
    ]
    if op.kind == "table-cli":
        rng = random.Random(a["check_seed"])
        live = [(m, n) for m in range(a["m_max"] + 1) for n in range(a["n_max"] + 1)
                if min(d["poisson_row"][m], d["poisson_col"][n]) >= 1e-12]
        params = _params(a)
        for m, n in rng.sample(live, min(CROSSCHECK_CELLS, len(live))):
            ref = sdpoisson.pmf.joint_pmf(params, m, n, a["s"], a["t"], method="quadrature",
                                          quad_tol=QUAD_TOL).value
            checks.append((f"quadrature-cell-{m}-{n}", abs(d["values"][m, n] - ref),
                           CROSSCHECK_TOL))
    return checks


def _bernstein_band(p: float, n: int, alpha: float) -> float:
    # |freq - p| exceeds this with probability below alpha (Bernstein's
    # inequality for a mean of n Bernoulli(p) indicators).
    log_term = math.log(2.0 / alpha)
    return math.sqrt(2.0 * p * (1.0 - p) * log_term / n) + 2.0 * log_term / (3.0 * n)


def _check_mc(op: Op, d: dict) -> list[tuple[str, float, float]]:
    a = op.args
    params, freq, n = _params(a), d["freq"], a["n_samples"]
    cells = len(a["points"]) * (a["m_max"] + 1) * (a["n_max"] + 1)
    alpha = MC_RUN_FAILURE / MC_MAX_CELLS_PER_RUN
    checks = [("point-totals", float(np.max(np.abs(freq.sum(axis=(1, 2)) - 1.0))), 1e-9)]
    worst = (0.0, 1.0)
    for i, (s, t) in enumerate(a["points"]):
        exact = sdpoisson.pmf.pmf_table(params, s, t, a["m_max"], a["n_max"]).values
        for m in range(a["m_max"] + 1):
            for k in range(a["n_max"] + 1):
                p = min(max(float(exact[m, k]), 0.0), 1.0)
                err, band = abs(float(freq[i, m, k]) - p), _bernstein_band(p, n, alpha)
                if err / band > worst[0] / worst[1]:
                    worst = (err, band)
    checks.append((f"mc-band-{cells}-cells", *worst))
    return checks


def _check_verify(op: Op, d: dict) -> list[tuple[str, float, float]]:
    by_name = {c["name"]: c["verdict"] for c in d["checks"]}
    missing = set(VERIFY_DETERMINISTIC + VERIFY_STATISTICAL) - set(by_name)
    checks = [("verify-checks-present", float(len(missing)), 0.0)]
    for name in VERIFY_DETERMINISTIC:
        checks.append((f"verify-{name}", 0.0 if by_name.get(name) == "pass" else 1.0, 0.0))
    return checks


def _check_path(op: Op, d: dict) -> list[tuple[str, float, float]]:
    a = op.args
    path = d["path"]
    checks = [("renewals", abs(path.n_renewals - a["n"]), 0)]
    for i, (arrivals, rate) in enumerate(((path.t_arrivals, a["lam"]),
                                          (path.s_arrivals, a["mu"]))):
        grid, counts, comps = d["grids"][i], np.array(d["counts"][i]), np.array(d["compensated"][i])
        ref = np.searchsorted(arrivals, grid, side="right") - 1
        checks += [
            ("count-vs-searchsorted", float(np.max(np.abs(counts - ref))), 0.0),
            ("count-monotone", float(max(0, -int(np.min(np.diff(counts))))), 0.0),
            ("compensated", float(np.max(np.abs(comps - (counts - rate * grid)))), 0.0),
        ]
    return checks


def _check_simulate(op: Op, d: dict) -> list[tuple[str, float, float]]:
    n, summary = op.args["n"], d["summary"]
    return [
        ("rows", float(abs(len(d["k"]) - n)), 0.0),
        ("row-index", 0.0 if d["k"] == list(range(1, n + 1)) else 1.0, 0.0),
        ("summary-n", float(abs(summary["n_renewals"] - n)), 0.0),
        ("summary-final-t", abs(summary["final_t"] - d["last"]["t_n"]), 0.0),
        ("summary-final-s", abs(summary["final_s"] - d["last"]["s_n"]), 0.0),
        ("compensated-rows", 0.0 if d["compensated_rows"] > 0 else 1.0, 0.0),
    ]


_CHECKS = {
    "table-cli": _check_table,
    "table-lib": _check_table,
    "mc-grid": _check_mc,
    "verify-cli": _check_verify,
    "path": _check_path,
    "simulate-cli": _check_simulate,
}


def check(op: Op, data: dict) -> float:
    """Raise :class:`CheckFailed` on a bad output; return the largest
    error-to-tolerance ratio among the checks with a nonzero tolerance."""
    worst = 0.0
    for label, err, tol in _CHECKS[op.kind](op, data):
        if not err <= tol:
            raise CheckFailed(f"{label}: error {err!r} above tolerance {tol!r}")
        if tol > 0.0:
            worst = max(worst, err / tol)
    return worst


def verify_tally(op: Op, data: dict, tally: dict) -> None:
    """Count the statistical verdicts of a verify op (not failures)."""
    if op.kind == "verify-cli":
        for c in data["checks"]:
            if c["name"] in VERIFY_STATISTICAL:
                key = f"{c['name']}.{c['verdict']}"
                tally[key] = tally.get(key, 0) + 1
