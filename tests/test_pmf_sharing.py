"""Shared evaluation inside one pmf table, against values pinned before it.

``data/pmf_pins.json`` was recorded with the term-by-term closed kernels
(the triple sums evaluated literally) and one independent ``joint_pmf``
call per cell, with no work shared between cells.  Its closed values were
later re-recorded once the closed kernels took every Kummer value from
the all-positive series, which moved them toward a 40-digit mpmath
evaluation of the same sums (worst gap 1.6e-13 -> 1.6e-14 on the Q terms,
7.8e-12 -> 3.0e-13 on the tables).  The quadrature values of the two
guard-tripping tables were re-recorded once the quadrature terms took
their Poisson pair sums from the library binomial and Poisson tails
(63 of 72 cells moved, by at most 6.3e-17).  Its routes, lemma-exact
values, guard magnitudes and the other quadrature values are the original
recording.  It holds

* ``terms``: ``[term, m, n, y, z, a, value, max_mag]`` of the Q and C
  kernels on a grid of a in {0.1, 0.5, 0.9}, both signs of z and m <= 40;
* ``tables``: the route and raw value of every cell of five ``auto``
  tables, two of which trip the cancellation guard.

It also checks that the sums a closed term shares across the rows m of a
table, and each Kummer value, are evaluated once, and the closed Kummer
reduction against mpmath.
"""

import json
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest

import sdpoisson.pmf as pmf
import sdpoisson.special as special
from sdpoisson.exponential import ModelParams
from sdpoisson.pmf import CANCEL_MAG_LIMIT, joint_pmf, pmf_table

PINS = json.loads((Path(__file__).parent / "data" / "pmf_pins.json").read_text())
KERNELS = {"Q": pmf._q_closed, "C": pmf._c_closed}


def _table_id(table):
    return "a{}-s{}-t{}".format(table["params"][2], table["s"], table["t"])


class TestPinnedValues:
    @pytest.mark.parametrize("term", ["Q", "C"])
    def test_kernels_match_term_by_term_sums(self, term):
        rows = [r for r in PINS["terms"] if r[0] == term]
        assert rows
        for _, m, n, y, z, a, value, max_mag in rows:
            got, mag = KERNELS[term](m, n, y, z, a)
            if max_mag <= CANCEL_MAG_LIMIT:
                assert abs(got - value) <= 1e-13, (term, m, n, y, z, a)
            assert abs(mag - max_mag) <= 1e-12 * max_mag, (term, m, n, y, z, a)

    @pytest.mark.parametrize("table", PINS["tables"], ids=_table_id)
    def test_auto_tables_keep_routes_and_values(self, table, monkeypatch):
        # Capture the reports pmf_table's own joint_pmf calls return, so
        # the routes are those taken with the table's shared terms.
        real = pmf.joint_pmf
        seen = {}

        def capture(params, m, n, s, t, **kw):
            report = real(params, m, n, s, t, **kw)
            seen[m, n] = report
            return report

        monkeypatch.setattr(pmf, "joint_pmf", capture)
        size = table["size"]
        pmf_table(ModelParams(*table["params"]), table["s"], table["t"], size - 1, size - 1)
        assert seen
        routes = Counter()
        for (m, n), report in seen.items():
            route, raw = table["routes"][m][n], table["raw"][m][n]
            assert report.method_used == route, (m, n)
            routes[route] += 1
            if route in ("quadrature", "lemma-exact"):
                assert report.raw == raw, (m, n)
            else:
                assert abs(report.raw - raw) <= 1e-13, (m, n)
        if table["params"][2] in (0.3, 0.7):
            assert routes["quadrature"] > 0  # the guard trips on these tables


# (s, t) with z < 0, z > 0 and z = 0 exactly at PARAMS.
PARAMS = ModelParams(lam=1.0, mu=1.0, a=0.5)
SIDES = {"neg": (4.0, 1.0), "pos": (1.0, 0.8), "zero": (1.0, 0.5)}


class TestTableSharing:
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("method", ["auto", "closed", "quadrature"])
    def test_table_equals_lone_cells(self, method, side):
        s, t = SIDES[side]
        size = 6 if method == "quadrature" else 12
        table = pmf_table(PARAMS, s, t, size - 1, size - 1, method=method)
        lone = np.array([
            [joint_pmf(PARAMS, m, n, s, t, method=method).value for n in range(size)]
            for m in range(size)
        ])
        assert np.array_equal(table.values, lone)

    def test_no_memo_outlives_a_call(self, monkeypatch):
        assert not any(callable(getattr(v, "cache_clear", None)) for v in vars(pmf).values())
        pmf_table(PARAMS, 1.0, 0.8, 8, 8)
        assert pmf._MEMO.get() is None
        joint_pmf(PARAMS, 3, 2, 1.0, 0.5, crosscheck=True)
        assert pmf._MEMO.get() is None

        def fail(*args, **kwargs):
            raise RuntimeError("term failed")

        monkeypatch.setattr(pmf, "quadrature_term", fail)
        with pytest.raises(RuntimeError):
            pmf_table(PARAMS, 1.0, 0.8, 4, 4, method="quadrature")
        assert pmf._MEMO.get() is None

    @pytest.mark.parametrize("side", SIDES)
    def test_each_closed_term_and_kummer_value_evaluated_once(self, side, monkeypatch):
        terms = Counter()
        kummer = Counter()
        for name, kernel in pmf._CLOSED.items():
            def counted(i, j, y, z, a, _name=name, _kernel=kernel):
                terms[_name, i, j] += 1
                return _kernel(i, j, y, z, a)

            monkeypatch.setitem(pmf._CLOSED, name, counted)
        real_kummer = pmf.kummer_series

        def counted_kummer(alpha, beta, x):
            kummer[alpha, beta, x] += 1
            return real_kummer(alpha, beta, x)

        monkeypatch.setattr(pmf, "kummer_series", counted_kummer)
        s, t = SIDES[side]
        pmf_table(PARAMS, s, t, 19, 19, method="closed")
        assert terms and kummer
        assert set(terms.values()) == {1}
        assert set(kummer.values()) == {1}

    @pytest.mark.parametrize("side", SIDES)
    def test_each_m_independent_sum_evaluated_once(self, side, monkeypatch):
        # S^A_n, each running-sum entry inner(k, n) of B, and each Q row
        # T_{j,n}; at z = 0 the B terms are a closed expression.
        calls = Counter()
        for name in ("_a_sum", "_b_inner", "_q_row"):
            def counted(*args, _name=name, _real=getattr(pmf, name)):
                calls[(_name, *args)] += 1
                return _real(*args)

            monkeypatch.setattr(pmf, name, counted)
        s, t = SIDES[side]
        pmf_table(PARAMS, s, t, 19, 19, method="closed")
        expected = {"neg": {"_q_row"}, "pos": {"_a_sum", "_b_inner"},
                    "zero": {"_q_row", "_a_sum"}}
        assert {key[0] for key in calls} == expected[side]
        assert set(calls.values()) == {1}

    def test_each_quadrature_term_evaluated_once(self, monkeypatch):
        calls = Counter()
        real = pmf.quadrature_term

        def counted(term, m, n, coords, a, tol=1e-10):
            calls[term, m, n] += 1
            return real(term, m, n, coords, a, tol)

        monkeypatch.setattr(pmf, "quadrature_term", counted)
        pmf_table(PARAMS, 1.0, 0.8, 5, 5, method="quadrature")
        assert calls and set(calls.values()) == {1}


class TestKummerElementary:
    def test_agrees_with_mpmath(self):
        # Measured worst on this grid: 2.1e-12 relative, at alpha = 2,
        # beta = 37, x = 0.05, where the closed form's two terms cancel to
        # within the guard; the series alone stays within 3e-15.  The bound
        # is the guard's documented "a few 1e-12", not a tighter one.
        worst = 0.0
        with mpmath.workdps(30):
            for beta in range(41):
                for alpha in range(beta + 1):
                    for x in (0.05, 0.2, 1.0, 4.0, 15.0, 60.0):
                        want = mpmath.hyp1f1(alpha, beta + 1, x)
                        got = special.kummer_elementary(alpha, beta, x)
                        worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-11
