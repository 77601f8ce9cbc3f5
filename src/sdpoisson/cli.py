"""Command-line front end: simulation, pmf tables, copula grids, verification.

Output conventions: CSV files carry a header row, comma separators, '.'
decimals with 17 significant digits, UTF-8 and LF line endings; JSON
files hold a single object with "config", "results" and "checks" keys,
compact on one line with sorted keys (``python -m json.tool`` pretty-prints
it).  Rows are written a chunk at a time, so the peak memory of
``simulate`` is its numpy columns, not Python row objects.  All commands
are deterministic for a fixed seed.

Exit codes: 0 success (verify: all checks pass), 1 runtime failure or any
failed check, 2 any inconclusive check, 64 usage error (bad flags or
parameter domain).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_args

import numpy as np

from . import copulas as cop
from .errors import DomainError, SdPoissonError
from .exponential import ModelParams, sample_triples
from .harness import (
    McEstimate,
    TolerancePolicy,
    Verdict,
    compare,
    mc_joint_pmf_grid,
    sample_correlation,
)
from .pmf import Method, joint_pmf, pmf_table
from .process import simulate_path
from .special import _kummer_reduction, kummer_series

EX_OK = 0
EX_FAIL = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64

# Each --copula choice and the family it builds from the run's config.
_COPULAS = {
    "sd": lambda c: cop.SelfDecomposableCopula(c.a),
    "gumbel": lambda c: cop.GumbelCopula(c.a, c.lam, c.mu),
    "marshall-olkin": lambda c: cop.MarshallOlkinCopula(c.a, c.options["b"]),
    "raftery": lambda c: cop.RafteryCopula(c.a),
    "frechet-lower": lambda c: cop.FrechetLowerCopula(),
    "frechet-upper": lambda c: cop.FrechetUpperCopula(),
    "independence": lambda c: cop.IndependenceCopula(),
}


@dataclass
class RunConfig:
    """Parsed invocation; round-trips through to_dict/from_dict unchanged."""

    command: str
    lam: float
    mu: float
    a: float
    seed: int
    output: str
    fmt: str
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)  # copies the options dict

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        return RunConfig(**{**data, "options": dict(data["options"])})


class _Parser(argparse.ArgumentParser):
    # Unknown flags and malformed values are usage errors (exit 64),
    # matching the documented convention instead of argparse's default 2.
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: usage error: {message}\n")


# Rows converted to Python objects at a time: large enough that each
# chunk's formatting runs at C speed, small enough that a writer's peak
# memory is the numpy columns, not their rows.
_CHUNK_ROWS = 8192


class _Columns(tuple):
    """Equal-length numpy columns, written one row per index, in order."""


def _row_chunks(columns: _Columns):
    # Lists of rows, _CHUNK_ROWS at a time, converted with .tolist().
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        yield list(zip(*(col[start:start + _CHUNK_ROWS].tolist() for col in columns)))


def _row_template(row: tuple) -> str:
    # Floats as %.17g (round-trip exact), everything else as str().
    return ",".join("%.17g" if isinstance(v, float) else "%s" for v in row) + "\n"


def _write_csv(path: Path, header: list[str], rows) -> None:
    # Each column of a _Columns value converts to one Python type, so the
    # first row of a chunk gives the %-template for all of it, and lines are
    # written a chunk at a time.  A row of any other iterable may have cell
    # types of its own and is formatted by its own template.
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, _Columns):
            for chunk in _row_chunks(rows):
                template = _row_template(chunk[0])
                fh.write("".join([template % row for row in chunk]))
        else:
            fh.write("".join([_row_template(row) % row for row in map(tuple, rows)]))


def _dumps(value) -> str:
    # The C encoder (no indent); NaN and infinity are not JSON.
    return json.dumps(value, sort_keys=True, allow_nan=False)


def _json_pieces(value):
    # The text of _dumps(value) in pieces: dicts are walked key by key, a
    # _Columns value is one array streamed a chunk of rows at a time, and
    # everything else is encoded whole.
    if isinstance(value, _Columns):
        yield "["
        for i, chunk in enumerate(_row_chunks(value)):
            yield (", " if i else "") + _dumps(chunk)[1:-1]
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield (", " if i else "") + _dumps(key) + ": "
            yield from _json_pieces(value[key])
        yield "}"
    else:
        yield _dumps(value)


def _write_json(path: Path, config: RunConfig, results: dict, checks: list) -> None:
    # Exactly json.dumps(payload, sort_keys=True) + "\n": compact, one line.
    payload = {"config": config.to_dict(), "results": results, "checks": checks}
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_pieces(payload))
        fh.write("\n")


def _read_config_file(path: str) -> dict:
    """Flat key=value file mirroring the long flag names."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line is not key=value: {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="sdpoisson", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="rate of the N-chain renewals")
        p.add_argument("--mu", type=float, default=1.0, help="rate of the M-chain renewals")
        p.add_argument("--a", type=float, default=0.5, help="decomposition/correlation parameter in (0,1)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", type=str, default="sdpoisson_out")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--config", type=str, default=None, help="flat key=value file mirroring flags")

    p_sim = sub.add_parser("simulate", help="emit renewal pairs, arrival chains and compensated traces")
    add_common(p_sim)
    p_sim.add_argument("--n", type=int, default=1000, help="number of renewals")

    p_pmf = sub.add_parser("pmf", help="evaluate a single joint probability")
    add_common(p_pmf)
    p_pmf.add_argument("--m", type=int, required=True)
    p_pmf.add_argument("--n", type=int, required=True)
    p_pmf.add_argument("--s", type=float, required=True)
    p_pmf.add_argument("--t", type=float, required=True)
    p_pmf.add_argument("--method", choices=get_args(Method), default="auto")

    p_tab = sub.add_parser("table", help="evaluate a block of joint probabilities")
    add_common(p_tab)
    p_tab.add_argument("--m-max", type=int, default=10)
    p_tab.add_argument("--n-max", type=int, default=10)
    p_tab.add_argument("--s", type=float, required=True)
    p_tab.add_argument("--t", type=float, required=True)
    p_tab.add_argument("--method", choices=get_args(Method), default="auto")

    p_cop = sub.add_parser("copula", help="tabulate a copula on a regular grid")
    add_common(p_cop)
    p_cop.add_argument("--copula", choices=tuple(_COPULAS), default="sd")
    p_cop.add_argument("--b", type=float, default=0.5, help="second Marshall-Olkin parameter")
    p_cop.add_argument("--grid", type=int, default=21, help="points per axis")

    p_ver = sub.add_parser("verify", help="run the oracle and Monte Carlo check suite")
    add_common(p_ver)
    p_ver.add_argument("--samples", type=int, default=200_000)
    parser.commands = sub.choices
    return parser


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    # The file's values become the defaults of every command that has the
    # flag, which is then no longer required, and argv is parsed once: so
    # argparse converts them and every explicit flag wins, however it is
    # abbreviated.  Keys are long flag names of any command.
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    values = _read_config_file(path) if path is not None else {}
    for key, raw in values.items():
        flag = "--" + key
        owners = [p for p in parser.commands.values() if flag in p._option_string_actions]
        if key in ("help", "config") or not owners:
            raise DomainError(f"unknown config key {key!r}")
        for p in owners:
            act = p._option_string_actions[flag]
            act.default, act.required = raw, False
    args = parser.parse_args(argv)
    actions = parser.commands[args.command]._option_string_actions
    for key in values:
        act = actions.get("--" + key)
        if act is None or act.choices is None:
            continue
        value = getattr(args, act.dest)
        if value not in act.choices:
            raise DomainError(f"config key {key!r}: {value!r} is not one of {', '.join(act.choices)}")
    return args


def _run_config(args: argparse.Namespace) -> RunConfig:
    options = dict(vars(args))
    del options["config"]
    common = ("command", "lam", "mu", "a", "seed", "output", "fmt")
    return RunConfig(**{k: options.pop(k) for k in common}, options=options)


def _out_path(config: RunConfig, suffix: str = "", ext: str | None = None) -> Path:
    base = Path(config.output)
    ext = ext or config.fmt
    stem = base.stem if base.suffix else base.name
    parent = base.parent
    return parent / f"{stem}{suffix}.{ext}"


def _sample_corr(u: np.ndarray, v: np.ndarray) -> float | None:
    # Pearson correlation; None (JSON null) where it is undefined, below
    # 2 renewals.
    return float(np.corrcoef(u, v)[0, 1]) if len(u) >= 2 else None


def cmd_simulate(config: RunConfig) -> int:
    params = ModelParams(lam=config.lam, mu=config.mu, a=config.a)
    n = config.options["n"]
    path = simulate_path(params, n, config.seed)
    x, y, z = path.x_steps, path.y_steps, path.z_steps
    t_arr, s_arr = path.t_arrivals, path.s_arrivals
    t_n, s_n = t_arr[1:], s_arr[1:]
    k = np.arange(1, n + 1)
    renewals = _Columns((k, x, y, t_n, s_n, t_n - k / params.lam, s_n - k / params.mu))

    # Compensated traces sampled at the merged jump times of both chains,
    # cut below the shorter horizon so no count is censored.
    horizon = min(t_arr[-1], s_arr[-1])
    times = np.concatenate([t_n, s_n])
    times = np.sort(times[times < horizon])
    n_at = np.searchsorted(t_arr, times, side="right") - 1
    m_at = np.searchsorted(s_arr, times, side="right") - 1
    compensated = _Columns((times, n_at - params.lam * times, m_at - params.mu * times))

    results = {
        "n_renewals": n,
        "sample_corr_xy": _sample_corr(x, y),
        "sample_corr_xz": _sample_corr(x, z),
        "final_t": float(t_arr[-1]),
        "final_s": float(s_arr[-1]),
    }
    if config.fmt == "json":
        results |= {"renewals": renewals, "compensated": compensated}
        _write_json(_out_path(config), config, results, [])
    else:
        _write_csv(
            _out_path(config), ["k", "x", "y", "t_n", "s_n", "t_centered", "s_centered"],
            renewals,
        )
        _write_csv(
            _out_path(config, "_compensated"), ["time", "n_compensated", "m_compensated"],
            compensated,
        )
        _write_json(_out_path(config, "_summary", ext="json"), config, results, [])
    return EX_OK


def cmd_pmf(config: RunConfig) -> int:
    params = ModelParams(lam=config.lam, mu=config.mu, a=config.a)
    opt = config.options
    report = joint_pmf(params, opt["m"], opt["n"], opt["s"], opt["t"], method=opt["method"])
    results = {
        "m": report.m, "n": report.n, "s": report.s, "t": report.t,
        "probability": report.value, "raw": report.raw, "method": report.method_used,
    }
    if config.fmt == "json":
        _write_json(_out_path(config), config, results, [])
    else:
        _write_csv(_out_path(config), list(results), [tuple(results.values())])
    return EX_OK


def cmd_table(config: RunConfig) -> int:
    params = ModelParams(lam=config.lam, mu=config.mu, a=config.a)
    opt = config.options
    table = pmf_table(
        params, opt["s"], opt["t"], opt["m_max"], opt["n_max"], method=opt["method"]
    )
    summary = {"deficit": table.deficit, "tail_bound": table.tail_bound}
    if config.fmt == "json":
        results = {
            "s": table.s, "t": table.t, **summary,
            "pmf": table.values.tolist(),
            "row_sums": table.row_sums.tolist(),
            "col_sums": table.col_sums.tolist(),
            "poisson_row": table.poisson_row.tolist(),
            "poisson_col": table.poisson_col.tolist(),
        }
        _write_json(_out_path(config), config, results, [])
        return EX_OK
    m_idx, n_idx = np.arange(opt["m_max"] + 1), np.arange(opt["n_max"] + 1)
    header = ["m"] + [f"p_{n}" for n in n_idx] + ["row_sum", "poisson_row"]
    _write_csv(
        _out_path(config), header,
        _Columns((m_idx, *table.values.T, table.row_sums, table.poisson_row)),
    )
    _write_csv(
        _out_path(config, "_colsums"), ["n", "col_sum", "poisson_col"],
        _Columns((n_idx, table.col_sums, table.poisson_col)),
    )
    _write_json(_out_path(config, "_summary", ext="json"), config, summary, [])
    return EX_OK


def cmd_copula(config: RunConfig) -> int:
    grid = config.options["grid"]
    if grid < 2:
        raise DomainError(f"--grid must be >= 2, got {grid}")
    family = _COPULAS[config.options["copula"]](config)
    us = np.linspace(0.0, 1.0, grid).tolist()
    rows = [(u, v, cop.copula_eval(family, u, v), *cop.frechet_bounds(u, v)) for u in us for v in us]
    if config.fmt == "json":
        results = {"copula": config.options["copula"], "grid": grid, "values": rows}
        _write_json(_out_path(config), config, results, [])
    else:
        _write_csv(_out_path(config), ["u", "v", "value", "frechet_lower", "frechet_upper"], rows)
    return EX_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _explicit_reference(m: int, n: int, lam: float, mu: float, s: float, t: float, a: float) -> float:
    # The six low-order probabilities in elementary form, valid when
    # a*mu*s >= lam*t.
    u = lam * t
    v = mu * s
    e = math.exp(-v)
    q = -math.expm1(-u)
    if (m, n) == (0, 0):
        return e
    if (m, n) == (1, 0):
        return e / a * ((1 - a) * q + a * v - u)
    if (m, n) == (1, 1):
        return e / a * (u - (1 - a) * q)
    if (m, n) == (2, 0):
        return e / (2 * a * a) * (2 * (1 - a) * (1 + a * v) * q + (a * v - u) ** 2 - 2 * (1 - a) * u)
    if (m, n) == (2, 1):
        return e / (a * a) * ((1 - a) * (a - 4 - (1 - a) * u - a * v) * q
                              + u * (a * a - 5 * a + 4 + a * v - u))
    if (m, n) == (2, 2):
        return e / (2 * a * a) * (2 * (1 - a) * (3 - a + (1 - a) * u) * q
                                  + u * (u - 2 * (1 - a) * (3 - a)))
    raise DomainError(f"no explicit reference for (m, n) = ({m}, {n})")


def _verify_checks(config: RunConfig) -> list[dict]:
    params = ModelParams(lam=config.lam, mu=config.mu, a=config.a)
    n_samples = config.options["samples"]
    checks: list[dict] = []

    def record(name: str, verdict: Verdict, detail: str) -> None:
        checks.append({"name": name, "verdict": verdict.value, "detail": detail})

    # 1. general evaluator vs the explicit low-order formulas
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(20):
        s = rng.uniform(0.2, 2.5)
        t = rng.uniform(0.01, 0.95) * params.a * s * params.mu / params.lam
        for m in range(3):
            for n in range(m + 1):
                got = joint_pmf(params, m, n, s, t, method="closed").raw
                ref = _explicit_reference(m, n, params.lam, params.mu, s, t, params.a)
                worst = max(worst, abs(got - ref))
    record("explicit-formulas", Verdict.PASS if worst <= 1e-10 else Verdict.FAIL,
           f"max abs err {worst:.3e} (tol 1e-10)")

    # 2. closed form vs quadrature oracle
    worst = 0.0
    st_points = [(0.8, 0.15), (0.8, 0.7), (1.6, 0.35), (1.6, 1.3), (2.4, 2.0)]
    for s, t in st_points:
        for m in range(5):
            for n in range(5):
                closed = joint_pmf(params, m, n, s, t, method="closed").raw
                quadr = joint_pmf(params, m, n, s, t, method="quadrature").raw
                worst = max(worst, abs(closed - quadr))
    record("closed-vs-quadrature", Verdict.PASS if worst <= 1e-8 else Verdict.FAIL,
           f"max abs gap {worst:.3e} (tol 1e-8)")

    # 3. normalization and marginals
    table = pmf_table(params, 1.0, 1.0, 30, 30)
    ok = -1e-9 <= table.deficit <= table.tail_bound + 1e-12
    record("table-normalization", Verdict.PASS if ok else Verdict.FAIL,
           f"deficit {table.deficit:.3e}, tail bound {table.tail_bound:.3e}")
    row_gap = float(np.max(np.abs(table.row_sums - table.poisson_row)))
    col_gap = float(np.max(np.abs(table.col_sums - table.poisson_col)))
    ok = row_gap <= 1e-8 and col_gap <= 1e-8
    record("table-marginals", Verdict.PASS if ok else Verdict.FAIL,
           f"row gap {row_gap:.3e}, col gap {col_gap:.3e} (tol 1e-8)")

    # 4. Monte Carlo agreement on a small block
    points = [(1.0, 0.3), (1.0, 0.8)]
    freq = mc_joint_pmf_grid(params, points, 3, 3, n_samples, config.seed)
    policy = TolerancePolicy(k_se=3.5, abs_floor=3.0 / n_samples)
    verdict = Verdict.PASS
    worst_gap = 0.0
    for i, (s, t) in enumerate(points):
        for m in range(4):
            for n in range(4):
                closed = joint_pmf(params, m, n, s, t).value
                count = int(round(freq[i, m, n] * n_samples))
                est = McEstimate.from_count(count, n_samples, config.seed)
                v = compare(closed, est, policy)
                worst_gap = max(worst_gap, abs(closed - est.value))
                if v == Verdict.FAIL:
                    verdict = Verdict.FAIL
                elif v == Verdict.INCONCLUSIVE and verdict == Verdict.PASS:
                    verdict = Verdict.INCONCLUSIVE
    record("mc-agreement", verdict, f"max |closed - mc| {worst_gap:.3e} at {n_samples} paths")

    # 5. sampler correlations with batch-estimated standard errors
    rng = np.random.default_rng(config.seed + 1)
    x, y, z, _ = sample_triples(params, n_samples, rng)
    est_xy = sample_correlation(x, y)
    est_xz = sample_correlation(x, z)
    a_val = params.a
    ok = (abs(est_xy.value - a_val) <= 3.0 * est_xy.std_error
          and abs(est_xz.value - (1.0 - a_val)) <= 3.0 * est_xz.std_error)
    record("sampler-correlations", Verdict.PASS if ok else Verdict.FAIL,
           f"corr(x,y) {est_xy.value:.4f} vs {a_val}, corr(x,z) {est_xz.value:.4f} vs {1-a_val:.4f}")

    # 6. copula sanity on a coarse grid
    families = [
        cop.SelfDecomposableCopula(params.a),
        cop.GumbelCopula(min(params.a, params.lam * params.mu), params.lam, params.mu),
        cop.MarshallOlkinCopula(params.a, 0.7),
        cop.RafteryCopula(params.a),
        cop.IndependenceCopula(),
    ]
    worst = 0.0
    us = np.linspace(0.0, 1.0, 21).tolist()
    for family in families:
        for u in us:
            for v in us:
                value = cop.copula_eval(family, u, v)
                lo, hi = cop.frechet_bounds(u, v)
                worst = max(worst, lo - value, value - hi)
    record("copula-bounds", Verdict.PASS if worst <= 1e-14 else Verdict.FAIL,
           f"max bound excursion {worst:.3e}")

    # 7. degenerate-Kummer reduction vs its series, at the points where the
    # reduction holds; elsewhere kummer_elementary is the series itself.
    worst = 0.0
    compared = fell_back = 0
    for beta in range(1, 11):
        for alpha in range(1, beta + 1):
            for xv in (0.01, 0.1, 1.0, 5.0, 20.0):
                reduced = _kummer_reduction(alpha, beta, xv)
                if reduced is None:
                    fell_back += 1
                    continue
                compared += 1
                s_val = kummer_series(alpha, beta, xv)
                worst = max(worst, abs(reduced - s_val) / s_val)
    ok = compared > 0 and worst <= 1e-10
    record("kummer-reduction", Verdict.PASS if ok else Verdict.FAIL,
           f"max rel gap {worst:.3e} over {compared} points, {fell_back} fell back "
           f"to the series (tol 1e-10)")
    return checks


def cmd_verify(config: RunConfig) -> int:
    checks = _verify_checks(config)
    verdicts = {c["verdict"] for c in checks}
    if config.fmt == "json":
        _write_json(_out_path(config), config, {"n_checks": len(checks)}, checks)
    else:
        _write_csv(
            _out_path(config), ["name", "verdict", "detail"],
            [(c["name"], c["verdict"], '"' + c["detail"] + '"') for c in checks],
        )
    for c in checks:
        print(f"[{c['verdict'].upper():12s}] {c['name']}: {c['detail']}")
    if "fail" in verdicts:
        return EX_FAIL
    if "inconclusive" in verdicts:
        return EX_INCONCLUSIVE
    return EX_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "pmf": cmd_pmf,
    "table": cmd_table,
    "copula": cmd_copula,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        config = _run_config(_parse_args(parser, argv))
        ModelParams(lam=config.lam, mu=config.mu, a=config.a)  # domain gate
    except (DomainError, OSError, ValueError) as exc:
        print(f"sdpoisson: usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return _COMMANDS[config.command](config)
    except DomainError as exc:
        print(f"sdpoisson: usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"sdpoisson: i/o error: {exc}", file=sys.stderr)
        return EX_FAIL
    except SdPoissonError as exc:
        print(f"sdpoisson: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
