"""The sdpoisson benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload table-closed --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times ops for ``--seconds`` seconds of op time
and prints the end-to-end metrics; with ``--trace 1`` it runs the first
cycle of ops twice, untraced and then traced, and prints the per-layer
metrics.  Every op's output is checked outside its timed region.  The last
line of standard output is the result object; the line before it records
the inputs' hash, the environment and the failures.  The program is
imported from ``src/`` of the checkout and nowhere else; everything runs in
this one process on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
# A run leaves at least this many ops beyond its tail percentile.
TAIL_BEYOND = 10
WORK_NAMES = {
    "table-closed": "cells_per_s",
    "table-quadrature": "cells_per_s",
    "mc-verify": "mc_paths_per_s",
    "paths": "renewals_per_s",
}


def _import_program():
    """Import sdpoisson from this checkout's src/, or exit without a result."""
    if not (SRC / "sdpoisson" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'sdpoisson'}; run from a source checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sdpoisson

    if Path(sdpoisson.__file__).resolve().parent != (SRC / "sdpoisson").resolve():
        sys.exit(f"perfbench: imported sdpoisson from {sdpoisson.__file__}, not {SRC}")
    return sdpoisson


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many ops (smoke tests)")
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help="damage this op's output before its check (smoke tests)")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_seconds(args, digest: str) -> float:
    """Median wall time from a fresh interpreter to generated inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        times.append(perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.split()[-1:] != [digest]:
            sys.exit(f"perfbench: setup probe failed or generated other inputs:\n{proc.stderr}")
    return statistics.median(times)


def _environment(args, digest: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "op_list_sha256": digest,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _clear_program_caches() -> None:
    # Traced and untraced passes over the same ops start from the same
    # (empty) program caches, so their times and counts compare.
    for name, module in list(sys.modules.items()):
        if name.startswith("sdpoisson."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Pass:
    """Runs ops from a stream, times each, and checks its output untimed."""

    def __init__(self, wl, stream, out: Path, corrupt_op: int | None):
        self.wl, self.stream, self.out, self.corrupt_op = wl, stream, out, corrupt_op
        self.latencies: list[float] = []
        self.work = 0
        self.failures: list[dict] = []
        self.max_err_ratio = 0.0
        self.bytes_written = 0
        self.verdicts: dict = {}

    def run_op(self, i: int, tracer=None) -> None:
        op = self.stream[i]
        error = None
        result = None
        # Start every op from a collected heap, as a fresh CLI process would,
        # so that a collection triggered by earlier ops' garbage does not land
        # in a later op's time.
        gc.collect()
        if tracer is not None:
            root = tracer.open("op", op=i)
        try:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                t0 = perf_counter()
                try:
                    result = self.wl.execute(op, self.out)
                finally:
                    dt = perf_counter() - t0
        except Exception:  # an op that raises is a failed op, not a failed run
            error = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.close(root)
        self.latencies.append(dt)
        self.work += op.work
        if error is None:
            try:
                data = self.wl.collect(op, result, self.out)
                self.bytes_written += data.get("bytes", 0)
                if i == self.corrupt_op:
                    self.wl.corrupt(op, data)
                self.max_err_ratio = max(self.max_err_ratio, self.wl.check(op, data))
                self.wl.verify_tally(op, data, self.verdicts)
            except Exception:  # a check that cannot run fails its op
                error = traceback.format_exc(limit=3)
        if error is not None:
            self.failures.append({"op": i, "inputs": op.to_json(), "error": error})
            for f in self.out.iterdir():
                f.unlink()

    @property
    def timed(self) -> float:
        return sum(self.latencies)


def _percentile(latencies: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct * len(latencies) / 100))
    return sorted(latencies)[rank - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {wl.WORKLOADS}")
    stream = wl.OpStream(args.workload, args.seed)
    if args.probe:
        print(stream.digest)
        return 0
    setup_s = _setup_seconds(args, stream.digest) if args.trace == 0 else None

    out = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        warm = Pass(wl, [stream.warmup_op()], out, None)
        warm.run_op(0)
        if args.trace == 0:
            passes = [Pass(wl, stream, out, args.corrupt_op)]
            limit = args.max_ops if args.max_ops is not None else math.inf
            i = 0
            # Time whole cycles, so every run holds the same mix of op
            # costs: stop at the cycle boundary nearest to --seconds of op
            # time, once TAIL_BEYOND ops lie beyond the tail percentile.
            min_cycles = math.ceil(
                100 * TAIL_BEYOND / (stream.cycle_len * (100 - stream.tail_percentile)))
            while i < limit:
                cycles = i // stream.cycle_len
                if i % stream.cycle_len == 0 and cycles >= min_cycles and (
                    passes[0].timed * (1 + 0.5 / cycles) >= args.seconds
                ):
                    break
                passes[0].run_op(i)
                i += 1
        else:
            import tracing

            n_ops = min(stream.cycle_len, args.max_ops or stream.cycle_len)
            tracer = tracing.Tracer()
            passes = [Pass(wl, stream, out, args.corrupt_op), Pass(wl, stream, out, None)]
            for p, tr in zip(passes, (None, tracer)):
                _clear_program_caches()
                for i in range(n_ops):
                    p.run_op(i, tr)
            tracer.write(OUT_ROOT / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    failures = warm.failures + [f for p in passes for f in p.failures]
    attempted = 1 + sum(len(p.latencies) for p in passes)
    main_pass = passes[-1]
    pct = stream.tail_percentile
    info = {
        "env": _environment(args, stream.digest),
        "op_tail_ms": {"percentile": pct, "samples": len(main_pass.latencies)},
        "failed_ratio": len(failures) / attempted,
        WORK_NAMES[args.workload]: main_pass.work / main_pass.timed,
        "max_err_ratio": max(p.max_err_ratio for p in passes),
        "verify_verdicts": main_pass.verdicts,
        "failures": failures,
    }
    if args.trace == 0:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(len(main_pass.latencies) / main_pass.timed, "1/s"),
            "op_p50_ms": _metric(1e3 * statistics.median(main_pass.latencies), "ms"),
            "op_tail_ms": _metric(1e3 * _percentile(main_pass.latencies, pct), "ms"),
            "work_per_s": _metric(main_pass.work / main_pass.timed, "1/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        values = tracing.layer_metrics(tracer, {
            "bytes_written": main_pass.bytes_written,
            "max_err_ratio": info["max_err_ratio"],
            "traced_s": passes[1].timed,
            "untraced_s": passes[0].timed,
        })
        units = dict(tracing.PER_LAYER)
        metrics = {name: _metric(v, units[name]) for name, v in values.items()}
    for f in failures:
        print(f"perfbench: op {f['op']} failed: {json.dumps(f['inputs'])}\n{f['error']}",
              file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
