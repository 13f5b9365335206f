
import bisect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias import __version__
from qfbias.cli import _fmt, main
from qfbias.counting import d_functions
from qfbias.equidist import (
    angle_arrays,
    ks_statistic,
    mirrored,
    sample_angles,
    sector_counts,
    weyl_sum,
)
from qfbias.forms import QuadraticForm, ensure_table, representation_table
from qfbias.primes import CongruenceClass, sieve_range
from qfbias.series import bias_series


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


@pytest.fixture
def sieve_spy(monkeypatch):
    """Record the upper end of every sieve; fail any sieve too big for a test."""
    calls = []

    def spy(lo, hi, *args, **kwargs):
        calls.append(hi)
        if hi > 10**7:
            raise AssertionError(f"test asked to sieve to {hi}")
        return sieve_range(lo, hi, *args, **kwargs)

    for module in ("primes", "counting", "cli"):
        monkeypatch.setattr(f"qfbias.{module}.sieve_range", spy)
    return calls


@pytest.mark.parametrize("args", [
    ["series", "--form", "1,0,1", "--nmax", "200000000", "-o", "s.csv"],
    ["represent", "--form", "1,0,1", "--limit", "5000000000", "--cache", "c.qfr"],
    ["density", "--delta", "-1", "--x", "5000000000", "-o", "d.csv"],
    ["sieve", "--limit", "5000000000", "--out", "p.txt"],
    ["sieve", "--lo", "4000000000", "--hi", "4000000001", "--out", "p.txt"],
])
def test_capacity_refused_before_sieving(runner, tmp_path, monkeypatch, sieve_spy, args):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "exceeds capacity" in result.stderr
    assert sieve_spy == []
    assert list(tmp_path.iterdir()) == []


def test_version_from_source_checkout(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.stdout.split()[-1] == __version__ == "0.1.0"


def _import_probe(openblas_threads=None):
    """Native thread count and OPENBLAS_NUM_THREADS after a fresh
    `import qfbias.cli`, with the variable unset or set to the given value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import os, qfbias.cli; print(len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))")
    probe = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    threads, setting = probe.stdout.split()
    return int(threads), setting


needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")


@needs_proc
def test_import_starts_no_blas_pool():
    assert _import_probe() == (1, "1")


@needs_proc
def test_import_keeps_callers_blas_setting():
    assert _import_probe("2")[1] == "2"


class TestLimitCommand:
    def test_first_moment_prints_silver_ratio(self, runner):
        result = invoke(runner, "limit", "--form", "1,0,1", "--k", "1")
        assert result.exit_code == 0
        assert result.stdout.strip() == "2.414213562373"

    def test_second_moment(self, runner):
        result = invoke(runner, "limit", "--form", "1,0,1", "--k", "2")
        assert result.stdout.strip() == "4.503876787768"

    def test_polynomial_route(self, runner):
        result = invoke(runner, "limit", "--form", "1,0,1", "--f", "x", "--g", "y")
        assert result.stdout.strip() == "2.414213562373"

    def test_flag_conflict_is_usage_error(self, runner):
        result = runner.invoke(main, ["limit", "--form", "1,0,1", "--k", "1", "--f", "x", "--g", "y"])
        assert result.exit_code == 2

    def test_zero_denominator_is_computation_error(self, runner):
        result = runner.invoke(
            main,
            ["limit", "--form", "1,0,1", "--f", "x^2", "--g", "-x^2 + 2xy + y^2"],
        )
        assert result.exit_code == 3

    def test_bad_form_is_usage_error(self, runner):
        result = runner.invoke(main, ["limit", "--form", "2,4,6", "--k", "1"])
        assert result.exit_code == 2

    def test_bad_polynomial_is_usage_error(self, runner):
        result = runner.invoke(main, ["limit", "--form", "1,0,1", "--f", "x^2 +", "--g", "y"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-9"])
    def test_tolerance_not_positive_is_usage_error(self, runner, tol):
        result = runner.invoke(main, ["limit", "--form", "1,0,1", "--k", "1", "--tol", tol])
        assert result.exit_code == 2
        assert "tolerance must be positive" in result.stderr


class TestSieveCommand:
    def test_count_to_stdout(self, runner):
        result = invoke(runner, "sieve", "--limit", "30")
        assert result.stdout.strip() == "10"

    def test_writes_primes(self, runner, tmp_path):
        out = tmp_path / "p.txt"
        invoke(runner, "sieve", "--lo", "10", "--hi", "30", "--out", str(out))
        assert out.read_text().split() == ["11", "13", "17", "19", "23", "29"]

    @pytest.mark.parametrize("args", [
        ["--limit", "200000"],
        ["--lo", "999000", "--hi", "1000000"],
        ["--lo", "24", "--hi", "28"],
    ])
    def test_out_file_is_one_prime_per_line(self, runner, tmp_path, args):
        out = tmp_path / "p.txt"
        result = invoke(runner, "sieve", *args, "--out", str(out))
        lo, hi = (2, int(args[1])) if args[0] == "--limit" else (int(args[1]), int(args[3]))
        primes = sieve_range(lo, hi).tolist()
        assert out.read_bytes() == "".join(f"{p}\n" for p in primes).encode()
        assert result.stdout.strip() == str(len(primes))

    def test_conflicting_flags(self, runner):
        result = runner.invoke(main, ["sieve", "--limit", "5", "--lo", "2", "--hi", "9"])
        assert result.exit_code == 2


class TestRepresentCommand:
    def test_record_count_to_100(self, runner, tmp_path):
        cache = tmp_path / "c.qfr"
        result = invoke(runner, "represent", "--form", "1,0,1", "--limit", "100",
                        "--cache", str(cache))
        assert result.stdout.strip() == "11"
        assert cache.exists()

    def test_no_records_below_five(self, runner, tmp_path):
        cache = tmp_path / "c.qfr"
        result = invoke(runner, "represent", "--form", "1,0,1", "--limit", "4",
                        "--cache", str(cache))
        assert result.stdout.strip() == "0"

    def test_imprimitive_form_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["represent", "--form", "2,4,6", "--limit", "10",
                                      "--cache", str(tmp_path / "c.qfr")])
        assert result.exit_code == 2

    def test_cache_dir_env(self, runner, tmp_path):
        env = {"QFBIAS_CACHE_DIR": str(tmp_path)}
        result = runner.invoke(main, ["represent", "--form", "1,0,1", "--limit", "50",
                                      "--cache", "sub/c.qfr"], env=env, catch_exceptions=False)
        assert result.exit_code == 0
        assert (tmp_path / "sub" / "c.qfr").exists()

    def test_cache_bytes_identical_across_threads(self, runner, tmp_path):
        c1, c2 = tmp_path / "c1.qfr", tmp_path / "c2.qfr"
        common = ["represent", "--form", "1,0,1", "--limit", "60000"]
        invoke(runner, *common, "--cache", str(c1), "--threads", "1")
        invoke(runner, *common, "--cache", str(c2), "--threads", "2")
        assert c1.read_bytes() == c2.read_bytes()

    def test_int64_range_is_computation_error(self, runner, tmp_path):
        result = runner.invoke(main, ["represent", "--form", f"{2**62},1,1", "--limit", "100",
                                      "--cache", str(tmp_path / "c.qfr")])
        assert result.exit_code == 3
        assert not (tmp_path / "c.qfr").exists()


class TestSeriesCommand:
    def test_pinned_row(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = invoke(runner, "series", "--form", "1,0,1", "--mod", "4", "--res", "1",
                        "--nmax", "10", "--stride", "10", "-o", str(out))
        assert result.stdout.strip() == "2.333333333333"
        assert out.read_text() == "N,PrN,sum_a,sum_b,F\n10,29,14,6,2.333333333333\n"

    def test_undefined_class_emits_empty_field(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = invoke(runner, "series", "--form", "1,0,1", "--mod", "4", "--res", "3",
                        "--nmax", "10", "--stride", "10", "-o", str(out))
        assert result.stdout.strip() == "undefined"
        assert out.read_text().splitlines()[1].endswith(",0,")

    def test_cache_equals_scratch(self, runner, tmp_path):
        cache = tmp_path / "c.qfr"
        invoke(runner, "represent", "--form", "1,0,1", "--limit", "600", "--cache", str(cache))
        fresh, cached = tmp_path / "fresh.csv", tmp_path / "cached.csv"
        invoke(runner, "series", "--form", "1,0,1", "--mod", "4", "--res", "1",
               "--nmax", "100", "--stride", "25", "-o", str(fresh))
        invoke(runner, "series", "--form", "1,0,1", "--mod", "4", "--res", "1",
               "--nmax", "100", "--stride", "25", "-o", str(cached), "--cache", str(cache))
        assert fresh.read_bytes() == cached.read_bytes()

    def test_cache_form_mismatch_fails(self, runner, tmp_path):
        cache = tmp_path / "c.qfr"
        invoke(runner, "represent", "--form", "1,0,2", "--limit", "600", "--cache", str(cache))
        result = runner.invoke(main, ["series", "--form", "1,0,1", "--mod", "4", "--res", "1",
                                      "--nmax", "100", "-o", str(tmp_path / "s.csv"),
                                      "--cache", str(cache)])
        assert result.exit_code == 3

    def test_missing_cache_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["series", "--form", "1,0,1", "--mod", "4", "--res", "1",
                                      "--nmax", "100", "-o", str(tmp_path / "s.csv"),
                                      "--cache", str(tmp_path / "absent.qfr")])
        assert result.exit_code == 2

    def test_unwritable_output_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, ["series", "--form", "1,0,1", "--mod", "4", "--res", "1",
                                      "--nmax", "10", "--stride", "10",
                                      "-o", str(tmp_path / "no" / "dir" / "s.csv")])
        assert result.exit_code == 4

    def test_nmax_below_stride_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["series", "--form", "1,0,1", "--mod", "4", "--res", "1",
                                      "--nmax", "5", "--stride", "100",
                                      "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == 2

    def test_residue_not_coprime_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["series", "--form", "1,0,1", "--mod", "8", "--res", "2",
                                      "--nmax", "10", "--stride", "10",
                                      "-o", str(tmp_path / "s.csv")])
        assert result.exit_code == 2
        assert "not coprime" in result.stderr

    def test_thread_count_does_not_change_bytes(self, runner, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        common = ["series", "--form", "1,0,1", "--mod", "8", "--res", "1",
                  "--nmax", "6000", "--stride", "500"]
        invoke(runner, *common, "-o", str(out1), "--threads", "1")
        invoke(runner, *common, "-o", str(out2), "--threads", "2")
        assert out1.read_bytes() == out2.read_bytes()


class TestRatioCommand:
    def test_self_consistent_final_value(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        result = invoke(runner, "ratio", "--form", "1,0,1", "--mod", "8", "--res", "1",
                        "--nmax", "10", "--stride", "10", "-o", str(out))
        assert result.stdout.strip() == "1.714285714286"
        assert out.read_text() == "N,R\n10,1.714285714286\n"

    def test_trivial_class_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["ratio", "--form", "1,0,1", "--nmax", "10",
                                      "-o", str(tmp_path / "r.csv")])
        assert result.exit_code == 2


class TestDfuncCommand:
    def test_csv_and_summary(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = invoke(runner, "dfunc", "--xmax", "20", "-o", str(out))
        assert result.stdout.strip() == "-1 0"
        lines = out.read_text().splitlines()
        assert lines[0] == "x,D1,D2"
        assert lines[1] == "5,0,-1"
        assert lines[2] == "13,0,0"
        assert lines[3] == "17,-1,0"
        assert lines[4] == "20,-1,0"

    # 13, 29 are 5 mod 8 and 17 is 1 mod 8, so x_max itself is dropped;
    # below 10 the D1 grid holds only the endpoint
    @pytest.mark.parametrize("xmax", [2, 10, 13, 17, 20, 29, 100_000])
    def test_csv_equals_per_row_value_at(self, runner, tmp_path, xmax):
        out = tmp_path / "d.csv"
        invoke(runner, "dfunc", "--xmax", str(xmax), "-o", str(out))
        # reference: a per-row bisect over Python lists, independent of value_at
        table = ensure_table(QuadraticForm(1, 0, 1), xmax)
        series = [(s.x_grid.tolist(), s.values.tolist()) for s in d_functions(table, xmax)]

        def value_at(grid, values, g):
            idx = bisect.bisect_right(grid, g)
            return values[idx - 1] if idx else 0

        merged = sorted(set(series[0][0]) | set(series[1][0]))
        rows = "".join(
            f"{g},{value_at(*series[0], g)},{value_at(*series[1], g)}\n" for g in merged
        )
        assert out.read_text() == "x,D1,D2\n" + rows


class TestAcoeffCommand:
    def test_value(self, runner):
        result = invoke(runner, "acoeff", "--delta", "-1", "--mod", "8", "--res", "5")
        assert result.stdout.strip() == "2"

    def test_zero_class(self, runner):
        result = invoke(runner, "acoeff", "--delta", "-1", "--mod", "8", "--res", "3")
        assert result.stdout.strip() == "0"

    def test_bad_delta(self, runner):
        result = runner.invoke(main, ["acoeff", "--delta", "-4", "--mod", "8", "--res", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("budget", ["-5", "0", "1", "20", "50000"])
    def test_budget_has_no_effect(self, runner, budget):
        # A(m, M) is a closed form: no --budget can change it; a scan to 20
        # once missed the residue 2 (mod 35)
        for delta, mod, res, value in [("-1", "35", "1", "1"), ("-1", "35", "2", "1"),
                                       ("-1", "35", "3", "1"), ("-1", "8", "5", "2"),
                                       ("-1", "8", "3", "0"), ("-3", "12", "5", "0")]:
            args = ["acoeff", "--delta", delta, "--mod", mod, "--res", res]
            plain = invoke(runner, *args)
            result = invoke(runner, *args, "--budget", budget)
            assert result.exit_code == 0
            assert result.stdout == plain.stdout == value + "\n"


class TestDensityCommand:
    def test_checkpoints_and_ratio(self, runner, tmp_path):
        out = tmp_path / "den.csv"
        result = invoke(runner, "density", "--delta", "-1", "--x", "100000", "-o", str(out))
        ratio = float(result.stdout.strip())
        assert 0.9 < ratio < 1.1
        lines = out.read_text().splitlines()
        assert lines[0] == "x,empirical,predicted,ratio"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["100", "1000", "10000", "100000"]

    def test_exact_zero_class(self, runner, tmp_path):
        out = tmp_path / "den.csv"
        result = invoke(runner, "density", "--delta", "-1", "--mod", "8", "--res", "3",
                        "--x", "1000", "-o", str(out))
        assert result.stdout.strip() == "exact-zero"
        assert out.read_text().splitlines()[1:] == ["100,0,0.000000000000,",
                                                    "1000,0,0.000000000000,"]

    @pytest.mark.parametrize("mod,res", [("8", "1"), ("35", "2")])
    def test_budget_has_no_effect(self, runner, tmp_path, mod, res):
        args = ["density", "--delta", "-1", "--mod", mod, "--res", res, "--x", "1000", "-o"]
        plain_csv = tmp_path / "plain.csv"
        plain = invoke(runner, *args, str(plain_csv))
        for budget in ("1", "20", "50000"):
            out = tmp_path / f"budget{budget}.csv"
            result = invoke(runner, *args, str(out), "--budget", budget)
            assert result.exit_code == 0
            assert result.stdout == plain.stdout
            assert out.read_bytes() == plain_csv.read_bytes()


class TestEquidistCommand:
    def test_angle_dump_and_ks(self, runner, tmp_path):
        out = tmp_path / "a.csv"
        result = invoke(runner, "equidist", "--form", "1,0,1", "--limit", "200",
                        "-o", str(out))
        ks = float(result.stdout.strip())
        assert 0.0 <= ks <= 1.0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,x,y,raw_arg,theta"
        assert lines[1].startswith("5,2,1,")
        assert len(lines) == 1 + 21

    def test_stats_sweep(self, runner, tmp_path):
        out, stats = tmp_path / "a.csv", tmp_path / "stats.csv"
        invoke(runner, "equidist", "--form", "1,0,1", "--limit", "5000",
               "-o", str(out), "--stats", str(stats), "--stats-stride", "100")
        lines = stats.read_text().splitlines()
        assert lines[0] == "N,ks,weyl_1,weyl_2,weyl_3,weyl_4,weyl_5"
        assert lines[1].split(",")[0] == "100"

    @given(form=st.sampled_from(["1,0,1", "1,1,1", "2,1,3"]), stride=st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_stats_rows_equal_per_prefix_recomputation(self, tmp_path_factory, form, stride):
        tmp = tmp_path_factory.mktemp("stats")
        out, stats = tmp / "a.csv", tmp / "stats.csv"
        invoke(CliRunner(), "equidist", "--form", form, "--limit", "3000", "-o", str(out),
               "--stats", str(stats), "--stats-stride", str(stride))
        table = representation_table(QuadraticForm(*map(int, form.split(","))),
                                     sieve_range(2, 3000))
        raw, _ = angle_arrays(table, 2)
        n = raw.size
        grid = list(range(stride, n + 1, stride))
        if not grid or grid[-1] != n:
            grid.append(n)
        quarter = math.pi / 4
        expected = ["N,ks,weyl_1,weyl_2,weyl_3,weyl_4,weyl_5"]
        for m in grid:
            cols = [ks_statistic(raw[:m], quarter)]
            cols += [weyl_sum(raw[:m], j, quarter) for j in range(1, 6)]
            expected.append(f"{m}," + ",".join(_fmt(c) for c in cols))
        assert stats.read_text().splitlines() == expected

    @given(form=st.sampled_from(["1,0,1", "1,1,1", "2,1,3", "2,-1,3"]),
           mod=st.sampled_from([1, 4, 8, 12]), count=st.integers(0, 80),
           k=st.integers(1, 12), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_count_sectors_conjugates_match_library(self, tmp_path_factory, form, mod,
                                                    count, k, data):
        res = data.draw(st.sampled_from([r for r in range(mod) if math.gcd(r, mod) == 1]))
        out = tmp_path_factory.mktemp("sectors") / "a.csv"
        result = CliRunner().invoke(
            main, ["equidist", "--form", form, "--mod", str(mod), "--res", str(res),
                   "--limit", "3000", "--count", str(count), "--sectors", str(k),
                   "--conjugates", "-o", str(out)])
        qf = QuadraticForm(*map(int, form.split(",")))
        table, raw, theta = sample_angles(ensure_table(qf, 3000), CongruenceClass(res, mod),
                                          3000, count)
        if len(table) == 0:
            assert result.exit_code == 3 and not out.exists()
            return
        assert result.exit_code == 0
        cols = zip(table.p.tolist(), table.x.tolist(), table.y.tolist(),
                   raw.tolist(), theta.tolist())
        expected = [f"{p},{x},{y},{_fmt(r)},{_fmt(t)}" for p, x, y, r, t in cols]
        assert out.read_text().splitlines()[1:] == expected
        counts = " ".join(str(c) for c in sector_counts(mirrored(theta), k))
        assert f"sector counts: {counts}" in result.stderr.splitlines()

    def test_negative_count_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--limit", "1000",
                                      "--count", "-5", "-o", str(tmp_path / "a.csv")])
        assert result.exit_code == 2
        assert not (tmp_path / "a.csv").exists()
        with pytest.raises(ValueError, match="nonnegative"):
            sample_angles(ensure_table(QuadraticForm(1, 0, 1), 1000), x_limit=1000, max_count=-5)

    def test_winding_below_one_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--limit", "1000",
                                      "--w", "0", "-o", str(tmp_path / "a.csv")])
        assert result.exit_code == 2
        assert not (tmp_path / "a.csv").exists()
        with pytest.raises(ValueError, match="positive"):
            sample_angles(ensure_table(QuadraticForm(1, 0, 1), 1000), x_limit=1000, w=0)

    @pytest.mark.parametrize("option", ["--sectors", "--stats-stride"])
    def test_negative_option_is_usage_error(self, runner, tmp_path, option):
        result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--limit", "1000",
                                      option, "-3", "-o", str(tmp_path / "a.csv")])
        assert result.exit_code == 2
        assert not (tmp_path / "a.csv").exists()

    def test_conjugates_without_sectors_is_usage_error(self, runner, tmp_path, sieve_spy):
        # the mirror angles only enter the sector counts, so the flag alone
        # would change nothing; it is refused before any table is built
        result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--limit", "1000",
                                      "--conjugates", "-o", str(tmp_path / "a.csv")])
        assert result.exit_code == 2
        assert "--sectors" in result.stderr
        assert sieve_spy == []
        assert not (tmp_path / "a.csv").exists()

    def test_empty_selection_is_computation_error(self, runner, tmp_path):
        result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--mod", "4",
                                      "--res", "3", "--limit", "100",
                                      "-o", str(tmp_path / "a.csv")])
        assert result.exit_code == 3


class TestReproCommand:
    def test_tiny_scale_produces_all_files(self, runner, tmp_path):
        outdir = tmp_path / "repro"
        result = invoke(runner, "repro", "--outdir", str(outdir), "--scale", "0.002")
        assert result.exit_code == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "fig1_class1mod8.csv",
            "fig1_class5mod8.csv",
            "fig2_class1mod12.csv",
            "fig2_class7mod12.csv",
            "fig3_ratio1mod8.csv",
            "fig3_ratio5mod8.csv",
            "fig4_dfunctions.csv",
        ]
        for name in names:
            assert (outdir / name).read_text().count("\n") >= 2

    def test_bad_scale(self, runner, tmp_path):
        result = runner.invoke(main, ["repro", "--outdir", str(tmp_path), "--scale", "2"])
        assert result.exit_code == 2

    def test_nan_scale_is_usage_error_before_outdir(self, runner, tmp_path):
        outdir = tmp_path / "repro"
        result = runner.invoke(main, ["repro", "--outdir", str(outdir), "--scale", "nan"])
        assert result.exit_code == 2
        assert "--scale must be in (0, 1]" in result.stderr
        assert not outdir.exists()

    def test_figures_3_and_4_match_ratio_and_dfunc(self, runner, tmp_path):
        outdir = tmp_path / "repro"
        invoke(runner, "repro", "--outdir", str(outdir), "--scale", "0.002", "--figure", "3")
        invoke(runner, "repro", "--outdir", str(outdir), "--scale", "0.002", "--figure", "4")
        for m in (1, 5):
            out = tmp_path / f"r{m}.csv"
            invoke(runner, "ratio", "--form", "1,0,1", "--mod", "8", "--res", str(m),
                   "--nmax", "1000", "--stride", "100", "-o", str(out))
            assert (outdir / f"fig3_ratio{m}mod8.csv").read_bytes() == out.read_bytes()
        out = tmp_path / "d.csv"
        invoke(runner, "dfunc", "--xmax", "10000", "-o", str(out))
        assert (outdir / "fig4_dfunctions.csv").read_bytes() == out.read_bytes()

    def test_figures_1_and_2_match_series(self, runner, tmp_path):
        outdir = tmp_path / "repro"
        invoke(runner, "repro", "--outdir", str(outdir), "--scale", "0.002", "--figure", "1")
        invoke(runner, "repro", "--outdir", str(outdir), "--scale", "0.002", "--figure", "2")
        # at this scale both figures run to N = 1000
        for fig, form, mod, res in ((1, "1,0,1", 8, 1), (1, "1,0,1", 8, 5),
                                    (2, "1,1,1", 12, 1), (2, "1,1,1", 12, 7)):
            out = tmp_path / f"s{fig}_{res}.csv"
            invoke(runner, "series", "--form", form, "--mod", str(mod), "--res", str(res),
                   "--nmax", "1000", "--stride", "100", "-o", str(out))
            assert (outdir / f"fig{fig}_class{res}mod{mod}.csv").read_bytes() == out.read_bytes()

    def test_all_equals_separate_figures(self, runner, tmp_path):
        together = invoke(runner, "repro", "--outdir", str(tmp_path / "all"), "--scale", "0.002")
        stderr = ""
        for fig in "1234":
            stderr += invoke(runner, "repro", "--outdir", str(tmp_path / "one"),
                             "--scale", "0.002", "--figure", fig).stderr
        assert together.stderr == stderr
        names = sorted(p.name for p in (tmp_path / "all").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
        for name in names:
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_all_computes_each_series_once(self, runner, tmp_path, monkeypatch):
        calls = []

        def spy(table, cls, n_max, **kwargs):
            calls.append((table.form, cls, n_max))
            return bias_series(table, cls, n_max, **kwargs)

        monkeypatch.setattr("qfbias.cli.bias_series", spy)
        invoke(runner, "repro", "--outdir", str(tmp_path), "--scale", "0.002")
        # fig1's two class series, fig2's two, and fig3's all-primes series
        assert len(calls) == len(set(calls)) == 5


THREADED_COMMANDS = {
    "represent": ["--form", "1,0,1", "--limit", "100", "--cache", "c.qfr"],
    "series": ["--form", "1,0,1", "--mod", "4", "--res", "1", "--nmax", "10",
               "--stride", "10", "-o", "s.csv"],
    "ratio": ["--form", "1,0,1", "--mod", "8", "--res", "1", "--nmax", "10",
              "--stride", "10", "-o", "r.csv"],
    "dfunc": ["--xmax", "20", "-o", "d.csv"],
    "equidist": ["--form", "1,0,1", "--limit", "200", "-o", "a.csv"],
    "repro": ["--outdir", "out", "--scale", "0.002", "--figure", "3"],
}


@pytest.mark.parametrize("command", sorted(THREADED_COMMANDS))
def test_threads_flag_still_accepted(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    args = [command, *THREADED_COMMANDS[command]]
    plain = invoke(runner, *args)
    threaded = invoke(runner, *args, "--threads", "3")
    assert threaded.exit_code == 0
    assert threaded.stdout == plain.stdout
