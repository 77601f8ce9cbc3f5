"""Command-line surface: exit codes, file formats, determinism."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sdpoisson.cli import _CHUNK_ROWS, EX_FAIL, EX_OK, EX_USAGE, RunConfig, _write_csv, main
from sdpoisson.exponential import ModelParams
from sdpoisson.pmf import joint_pmf
from sdpoisson.process import compensated_at, simulate_path


def run(args):
    return main(args)


class TestExitCodes:
    def test_corrupted_parameter(self, tmp_path, capsys):
        code = run(["pmf", "--a", "1.5", "--m", "0", "--n", "0", "--s", "1", "--t", "0.4",
                    "--output", str(tmp_path / "x.csv")])
        assert code == EX_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["pmf", "--m", "0", "--n", "0", "--s", "1", "--t", "0.4", "--frobnicate", "1"])
        assert exc.value.code == EX_USAGE

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == EX_USAGE

    def test_closed_overflow_is_runtime_failure(self, tmp_path, capsys):
        # a ** (-j) overflows in the closed Q term; no traceback escapes
        code = run(["pmf", "--m", "300", "--n", "0", "--s", "300", "--t", "10", "--a", "0.05",
                    "--method", "closed", "--output", str(tmp_path / "x.csv")])
        assert code == EX_FAIL
        assert "ConsistencyError" in capsys.readouterr().err

    def test_domain_error_in_command_is_usage_error(self, tmp_path, capsys):
        # the grid check runs inside the command, after the flags parsed
        code = run(["copula", "--grid", "1", "--output", str(tmp_path / "cop.csv")])
        assert code == EX_USAGE
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output(self, tmp_path):
        code = run(["pmf", "--m", "0", "--n", "0", "--s", "1", "--t", "0.4",
                    "--output", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
        assert code == EX_FAIL


class TestPmfCommand:
    def test_value_matches_library(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert run(["pmf", "--m", "1", "--n", "1", "--s", "1", "--t", "0.4",
                    "--output", str(out)]) == EX_OK
        header, row = out.read_text().strip().split("\n")
        assert header == "m,n,s,t,probability,raw,method"
        fields = row.split(",")
        expected = joint_pmf(ModelParams(1.0, 1.0, 0.5), 1, 1, 1.0, 0.4).value
        assert float(fields[4]) == pytest.approx(expected, rel=1e-15)

    def test_lemma_cell_reports_exact_method(self, tmp_path):
        out = tmp_path / "pmf.csv"
        run(["pmf", "--m", "0", "--n", "2", "--s", "1", "--t", "0.4", "--output", str(out)])
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[4]) == 0.0
        assert row[6] == "lemma-exact"

    def test_json_layout(self, tmp_path):
        out = tmp_path / "pmf.json"
        run(["pmf", "--m", "0", "--n", "0", "--s", "1", "--t", "0.4",
            "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "results", "checks"}
        assert payload["results"]["probability"] == pytest.approx(math.exp(-1.0))


class TestCsvWriter:
    def test_row_template_matches_per_cell_format(self, tmp_path):
        rows = [
            (0, 1.5, -0.0, "closed"),
            (1, math.inf, -math.inf, math.nan),
            ("x", 1e-300, 5e-324, 1 / 3),
            (np.int64(7), np.float64(0.1), True, None),
            [2, 3.0, 2**70, -1.25e17],
        ]
        path = tmp_path / "mixed.csv"
        _write_csv(path, ["c0", "c1", "c2", "c3"], rows)
        want = ["c0,c1,c2,c3"] + [
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
            for row in rows
        ]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestSimulateWriters:
    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    def test_csv_bytes_match_library_columns(self, tmp_path, n):
        lam, mu = 1.3, 0.7
        assert run(["simulate", "--n", str(n), "--lambda", "1.3", "--mu", "0.7", "--seed", "5",
                    "--output", str(tmp_path / "sim.csv")]) == EX_OK
        path = simulate_path(ModelParams(lam=lam, mu=mu, a=0.5), n, 5)
        t_arr, s_arr = path.t_arrivals, path.s_arrivals
        renewals = ["k,x,y,t_n,s_n,t_centered,s_centered"] + [
            "%d," % k + ",".join("%.17g" % v for v in (
                path.x_steps[k - 1], path.y_steps[k - 1], t_arr[k], s_arr[k],
                t_arr[k] - k / lam, s_arr[k] - k / mu))
            for k in range(1, n + 1)
        ]
        times = np.concatenate([t_arr[1:], s_arr[1:]])
        times = np.sort(times[times < min(t_arr[-1], s_arr[-1])])
        counts_n = np.searchsorted(t_arr, times, side="right") - 1
        counts_m = np.searchsorted(s_arr, times, side="right") - 1
        compensated = ["time,n_compensated,m_compensated"] + [
            "%.17g,%.17g,%.17g" % (w, cn - lam * w, cm - mu * w)
            for w, cn, cm in zip(times, counts_n, counts_m)
        ]
        for name, lines in (("sim.csv", renewals), ("sim_compensated.csv", compensated)):
            assert (tmp_path / name).read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_renewal_writes_null_correlations(self, tmp_path, fmt):
        out = tmp_path / f"one.{fmt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--n", "1", "--format", fmt, "--output", str(out)]) == EX_OK
        text = (tmp_path / ("one.json" if fmt == "json" else "one_summary.json")).read_text()
        results = _strict_json(text)["results"]
        assert results["sample_corr_xy"] is None and results["sample_corr_xz"] is None
        assert '"sample_corr_xy": null' in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_is_the_columns(self, tmp_path, fmt):
        # 2e4 renewals hold about 3 MiB of numpy columns; one chunk of rows
        # as Python objects and their text adds about as much again.  A
        # writer that builds every row before writing peaks at 23 MiB (CSV)
        # and 47 MiB (JSON) on this run (tracemalloc, CPython 3.11).
        out = str(tmp_path / f"sim.{fmt}")
        run(["simulate", "--n", "10", "--format", fmt, "--output", out])  # imports, caches
        tracemalloc.start()
        try:
            assert run(["simulate", "--n", "20000", "--format", fmt, "--output", out]) == EX_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestJsonWriter:
    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--n", "300", "--format", "json"], "out.json"),
        (["simulate", "--n", "300"], "out_summary.json"),
        (["pmf", "--m", "1", "--n", "1", "--s", "1", "--t", "0.4", "--format", "json"], "out.json"),
        (["table", "--s", "1", "--t", "1", "--m-max", "4", "--n-max", "3", "--format", "json"],
         "out.json"),
        (["table", "--s", "1", "--t", "1", "--m-max", "4", "--n-max", "3"], "out_summary.json"),
        (["copula", "--grid", "5", "--format", "json"], "out.json"),
        (["verify", "--samples", "5000", "--format", "json"], "out.json"),
    ])
    def test_compact_sorted_text(self, tmp_path, argv, name):
        run(argv + ["--output", str(tmp_path / "out")])
        text = (tmp_path / name).read_text()
        assert text == json.dumps(_strict_json(text), sort_keys=True) + "\n"


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert run(["simulate", "--n", "500", "--seed", "42",
                        "--output", str(out)]) == EX_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a_compensated.csv").read_bytes() == (
            tmp_path / "b_compensated.csv"
        ).read_bytes()

    def test_weak_coupling_statistics(self, tmp_path):
        out = tmp_path / "weak.csv"
        run(["simulate", "--n", "1000", "--a", "0.01", "--seed", "1", "--output", str(out)])
        stats = json.loads((tmp_path / "weak_summary.json").read_text())
        assert abs(stats["results"]["sample_corr_xy"] - 0.01) < 0.12

    def test_strong_coupling_chains_align(self, tmp_path):
        out = tmp_path / "strong.csv"
        run(["simulate", "--n", "1000", "--a", "0.99", "--seed", "1", "--output", str(out)])
        stats = json.loads((tmp_path / "strong_summary.json").read_text())
        gap = abs(stats["results"]["final_t"] - stats["results"]["final_s"])
        assert gap / stats["results"]["final_t"] < 0.05
        assert stats["results"]["sample_corr_xy"] > 0.95

    def test_renewal_file_layout(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(["simulate", "--n", "10", "--seed", "0", "--output", str(out)])
        lines = out.read_text().split("\n")
        assert lines[0] == "k,x,y,t_n,s_n,t_centered,s_centered"
        assert len([ln for ln in lines if ln]) == 11  # header + 10 renewals

    def test_json_rows_match_library(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run(["simulate", "--n", "40", "--lambda", "1.5", "--mu", "0.8", "--a", "0.3",
                    "--seed", "11", "--format", "json", "--output", str(out)]) == EX_OK
        results = json.loads(out.read_text())["results"]
        lam, mu = 1.5, 0.8
        path = simulate_path(ModelParams(lam=lam, mu=mu, a=0.3), 40, 11)
        x, y, t_n, s_n = path.x_steps, path.y_steps, path.t_arrivals, path.s_arrivals
        assert results["renewals"] == [
            [k, x[k - 1], y[k - 1], t_n[k], s_n[k], t_n[k] - k / lam, s_n[k] - k / mu]
            for k in range(1, 41)
        ]
        assert len(results["compensated"]) > 40
        for time, n_comp, m_comp in results["compensated"]:
            assert [n_comp, m_comp] == [compensated_at(path, time, "N"),
                                        compensated_at(path, time, "M")]


class TestTableCommand:
    def test_outputs_and_summary(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["table", "--s", "1", "--t", "1", "--m-max", "8", "--n-max", "8",
                    "--output", str(out)]) == EX_OK
        rows = out.read_text().strip().split("\n")
        assert rows[0].startswith("m,p_0,")
        assert len(rows) == 10
        summary = json.loads((tmp_path / "table_summary.json").read_text())
        assert summary["results"]["deficit"] <= summary["results"]["tail_bound"] + 1e-9
        colsums = (tmp_path / "table_colsums.csv").read_text().strip().split("\n")
        assert colsums[0] == "n,col_sum,poisson_col"

    def test_json_matrix(self, tmp_path):
        out = tmp_path / "table.json"
        run(["table", "--s", "1", "--t", "0.4", "--m-max", "3", "--n-max", "3",
             "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        pmf = payload["results"]["pmf"]
        assert len(pmf) == 4 and len(pmf[0]) == 4
        assert pmf[0][0] == pytest.approx(math.exp(-1.0))
        assert pmf[0][1] == 0.0  # empty region


class TestCopulaCommand:
    def test_grid_within_bounds(self, tmp_path):
        out = tmp_path / "cop.csv"
        assert run(["copula", "--copula", "sd", "--a", "0.6", "--grid", "11",
                    "--output", str(out)]) == EX_OK
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 121
        for row in rows:
            u, v, value, lower, upper = map(float, row.split(","))
            assert lower - 1e-14 <= value <= upper + 1e-14

    def test_json_values_match_csv(self, tmp_path):
        args = ["copula", "--copula", "gumbel", "--a", "0.4", "--lambda", "1.3", "--grid", "7"]
        assert run(args + ["--output", str(tmp_path / "cop.csv")]) == EX_OK
        assert run(args + ["--format", "json", "--output", str(tmp_path / "cop.json")]) == EX_OK
        csv_rows = [[float(v) for v in line.split(",")]
                    for line in (tmp_path / "cop.csv").read_text().splitlines()[1:]]
        results = json.loads((tmp_path / "cop.json").read_text())["results"]
        assert (results["copula"], results["grid"]) == ("gumbel", 7)
        assert results["values"] == csv_rows  # %.17g round-trips exactly
        assert len(csv_rows) == 49

    def test_all_families_run(self, tmp_path):
        for kind in ("gumbel", "marshall-olkin", "raftery", "frechet-lower",
                     "frechet-upper", "independence"):
            out = tmp_path / f"{kind}.csv"
            assert run(["copula", "--copula", kind, "--grid", "5",
                        "--output", str(out)]) == EX_OK


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = run(["verify", "--samples", "50000", "--format", "json",
                    "--output", str(out)])
        assert code == EX_OK
        payload = json.loads(out.read_text())
        assert all(c["verdict"] == "pass" for c in payload["checks"])
        printed = capsys.readouterr().out
        assert printed.count("[PASS") == len(payload["checks"])

    def test_report_bytes_deterministic(self, tmp_path):
        out = tmp_path / "verify.json"
        run(["verify", "--samples", "20000", "--format", "json", "--output", str(out)])
        first = out.read_bytes()
        out.unlink()
        run(["verify", "--samples", "20000", "--format", "json", "--output", str(out)])
        assert out.read_bytes() == first

    def test_exit_code_mapping(self, tmp_path, monkeypatch, capsys):
        import sdpoisson.cli as cli_mod

        def fake_checks(verdicts):
            return [{"name": f"c{i}", "verdict": v, "detail": ""} for i, v in enumerate(verdicts)]

        base = ["verify", "--output", str(tmp_path / "v.csv")]
        monkeypatch.setattr(cli_mod, "_verify_checks", lambda cfg: fake_checks(["pass", "fail"]))
        assert run(base) == 1
        monkeypatch.setattr(
            cli_mod, "_verify_checks", lambda cfg: fake_checks(["pass", "inconclusive"])
        )
        assert run(base) == 2
        monkeypatch.setattr(
            cli_mod, "_verify_checks", lambda cfg: fake_checks(["fail", "inconclusive"])
        )
        assert run(base) == 1  # fail dominates inconclusive

    def test_kummer_check_catches_a_wrong_reduction(self, tmp_path, capsys, monkeypatch):
        import sdpoisson.cli as cli_mod

        real = cli_mod._kummer_reduction

        def off_by_1e9(alpha, beta, x):
            value = real(alpha, beta, x)
            return None if value is None else value * (1 + 1e-9)

        monkeypatch.setattr(cli_mod, "_kummer_reduction", off_by_1e9)
        out = tmp_path / "v.json"
        assert run(["verify", "--samples", "5000", "--format", "json",
                    "--output", str(out)]) == EX_FAIL
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        kummer = checks["kummer-reduction"]
        assert kummer["verdict"] == "fail"
        assert "over 218 points, 57 fell back" in kummer["detail"]
        assert "[FAIL        ] kummer-reduction" in capsys.readouterr().out


class TestConfigPlumbing:
    def test_config_file_overlay(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=0.25\nseed=9\n# comment\nmu=2.0\n")
        out = tmp_path / "pmf.json"
        run(["pmf", "--m", "0", "--n", "0", "--s", "1", "--t", "0.1",
             "--config", str(cfg), "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["config"]["a"] == 0.25
        assert payload["config"]["mu"] == 2.0
        assert payload["config"]["seed"] == 9

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=0.25\n")
        out = tmp_path / "pmf.json"
        run(["pmf", "--m", "0", "--n", "0", "--s", "1", "--t", "0.1", "--a", "0.7",
             "--config", str(cfg), "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["config"]["a"] == 0.7

    def test_abbreviated_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=3.0\n")
        out = tmp_path / "table.json"
        code = run(["table", "--s", "1", "--t", "1", "--m-max", "3", "--n-max", "3",
                    "--lam", "2.0", "--config", str(cfg), "--format", "json", "--output", str(out)])
        assert code == EX_OK
        payload = json.loads(out.read_text())
        assert payload["config"]["lam"] == 2.0

    def test_config_supplies_required_pmf_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nn=1\ns=1.0\nt=0.4\n")
        from_file, explicit = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert run(["pmf", "--config", str(cfg), "--output", str(from_file)]) == EX_OK
        assert run(["pmf", "--m", "1", "--n", "1", "--s", "1.0", "--t", "0.4",
                    "--output", str(explicit)]) == EX_OK
        assert from_file.read_bytes() == explicit.read_bytes()

    def test_config_supplies_required_table_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s=1.5\nt=0.6\n")
        from_file, explicit = tmp_path / "file.csv", tmp_path / "flags.csv"
        block = ["--m-max", "4", "--n-max", "3"]
        assert run(["table", *block, "--config", str(cfg), "--output", str(from_file)]) == EX_OK
        assert run(["table", *block, "--s", "1.5", "--t", "0.6",
                    "--output", str(explicit)]) == EX_OK
        assert from_file.read_bytes() == explicit.read_bytes()

    def test_other_commands_keys_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=5000\n")
        code = run(["table", "--s", "1", "--t", "1", "--m-max", "2", "--n-max", "2",
                    "--config", str(cfg), "--output", str(tmp_path / "t.csv")])
        assert code == EX_OK

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code = run(["pmf", "--m", "0", "--n", "0", "--s", "1", "--t", "0.1",
                    "--config", str(cfg)])
        assert code == EX_USAGE

    @pytest.mark.parametrize("line", ["copula=gumbelx", "format=xml"])
    def test_bad_config_choice_is_usage_error(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "cop.xml"
        code = run(["copula", "--grid", "3", "--config", str(cfg), "--output", str(out)])
        assert code == EX_USAGE
        assert not out.exists()

    def test_runconfig_round_trip(self):
        config = RunConfig(
            command="pmf", lam=1.5, mu=0.5, a=0.3, seed=11, output="out.csv",
            fmt="csv", options={"m": 2, "n": 1, "s": 1.0, "t": 0.5, "method": "auto"},
        )
        assert RunConfig.from_dict(config.to_dict()) == config
