
import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbias import __version__
from qfbias import primes as primes_module
from qfbias import series as series_module
from qfbias.cache import read_cache, write_cache
from qfbias.cli import _dfunc_run, _fmt, main
from qfbias.counting import d_functions
from qfbias.equidist import (
    angle_arrays,
    ks_statistic,
    mirrored,
    root_count_for_form,
    sector_counts,
    weyl_sum,
)
from qfbias.forms import QuadraticForm, empty_table, representation_table
from qfbias.primes import DEFAULT_SEGMENT_SIZE, CongruenceClass, sieve_range
from qfbias.series import bias_series, fold_series

from conftest import UNSHRUNK
from oracles import (
    _simple_prime_flags,
    class_series,
    d_race_rows,
    negative_bias_fraction,
    sample_angles,
    table_to,
)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


@pytest.fixture
def sieve_spy(monkeypatch):
    """Record every sieved (lo, hi); fail a sieve wider than one segment, or
    a test that sieves more than 1e7 numbers in all."""
    calls = []

    def spy(lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        if hi - lo >= DEFAULT_SEGMENT_SIZE or sum(b - a + 1 for a, b in calls) > 10**7:
            raise AssertionError(f"test asked to sieve [{lo}, {hi}]")
        return sieve_range(lo, hi, *args, **kwargs)

    # every command sieves through `primes.segments`, one call per window
    monkeypatch.setattr("qfbias.primes.sieve_range", spy)
    return calls


def assert_windows_cover(spans, lo, hi):
    """The sieved spans run from lo to hi in order, each number once, none
    wider than one segment."""
    assert spans[0][0] == lo and spans[-1][1] == hi
    assert all(b + 1 == a for (_, b), (a, _) in zip(spans, spans[1:]))
    assert all(b - a < DEFAULT_SEGMENT_SIZE for a, b in spans)


@pytest.fixture
def passes(monkeypatch):
    """Record every series fold with the ranges sieved inside it, and every
    (form, prime) a representation table is enumerated for."""
    folds, enumerated, active = [], [], []

    def fold_spy(seed, classes, *args, **kwargs):
        folds.append((seed.form, tuple(classes), []))
        active.append(folds[-1][2])
        try:
            return fold_series(seed, classes, *args, **kwargs)
        finally:
            active.pop()

    def sieve_spy(lo, hi, *args, **kwargs):
        if active:
            active[-1].append((lo, hi))
        return sieve_range(lo, hi, *args, **kwargs)

    def table_spy(form, primes):
        enumerated.extend((form, p) for p in primes.tolist())
        return representation_table(form, primes)

    monkeypatch.setattr("qfbias.series.fold_series", fold_spy)
    monkeypatch.setattr("qfbias.primes.sieve_range", sieve_spy)
    monkeypatch.setattr("qfbias.forms.representation_table", table_spy)
    return folds, enumerated


def assert_one_pass_each(folds, enumerated):
    """Each fold sieves from 2 up with no number twice; no prime is enumerated twice."""
    for _, _, spans in folds:
        assert spans and spans[0][0] == 2
        assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    assert enumerated and len(enumerated) == len(set(enumerated))


@pytest.mark.parametrize("args", [
    ["series", "--form", "1,0,1", "--nmax", "200000000", "-o", "s.csv"],
    ["represent", "--form", "1,0,1", "--limit", "5000000000", "--cache", "c.qfr"],
    ["density", "--delta", "-1", "--x", "5000000000", "-o", "d.csv"],
    ["dfunc", "--xmax", "5000000000", "-o", "d.csv"],
    ["equidist", "--form", "1,0,1", "--limit", "5000000000", "-o", "a.csv"],
    ["sieve", "--limit", "5000000000", "--out", "p.txt"],
    ["sieve", "--lo", "4000000000", "--limit", "4000000001", "--out", "p.txt"],
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


def _fresh_run(code, *argv, openblas_threads=None, **kwargs):
    """`code` run in a fresh interpreter on the source checkout, with
    OPENBLAS_NUM_THREADS unset or set to the given value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          **{"capture_output": True, **kwargs})


def _fresh_python(code, *argv, openblas_threads=None):
    """Stdout of `code` run in a fresh interpreter on the source checkout,
    with OPENBLAS_NUM_THREADS unset or set to the given value."""
    return _fresh_run(code, *argv, openblas_threads=openblas_threads,
                      text=True, check=True).stdout


def _import_probe(openblas_threads=None, imports="import qfbias.cli"):
    """Native thread count and OPENBLAS_NUM_THREADS after a fresh
    `import qfbias.cli` (or the given statements), with the variable unset
    or set to the given value."""
    code = (f"import os; {imports}; print(len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))")
    threads, setting = _fresh_python(code, openblas_threads=openblas_threads).split()
    return int(threads), setting


needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")


@needs_proc
def test_import_starts_no_blas_pool():
    assert _import_probe() == (1, "1")


@needs_proc
def test_import_keeps_callers_blas_setting():
    assert _import_probe("2")[1] == "2"


@needs_proc
def test_first_layer_read_imports_numpy_with_blas_pool_off():
    # the CLI imports no numpy; the first layer it reads does, after
    # `import qfbias` has set the variable
    imports = "import sys, qfbias.cli; qfbias.cli.primes.sieve_range; assert 'numpy' in sys.modules"
    assert _import_probe(imports=imports) == (1, "1")


class TestNumpyFreeStartup:
    """The console script's own start-up, and every command that needs no
    table, run without importing numpy; each check is a fresh process."""

    def test_import_cli(self):
        out = _fresh_python("import sys, qfbias.cli; print('numpy' in sys.modules)")
        assert out.split() == ["False"]

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["--version"], 0),
        (["limit", "--help"], 0),
        (["limit", "--form", "1,0,1", "--k", "1"], 0),
        (["series", "--form", "1,0,1"], 2),
        (["series", "--form", "2,0,2", "--nmax", "10", "-o", "s.csv"], 2),
    ])
    def test_console_script(self, argv, code):
        script = ("import sys\nfrom qfbias.cli import main\n"
                  "try:\n    main(sys.argv[1:], prog_name='qfbias')\n"
                  "except SystemExit as exc:\n    print(exc.code, 'numpy' in sys.modules)\n")
        assert _fresh_python(script, *argv).split()[-2:] == [str(code), "False"]

    def test_layers_registered_and_loaded_on_first_read(self):
        # the seven layers the per-layer benchmark traces, each by one of
        # its traced functions; `limits` alone loads without numpy
        script = """
import sys, types, qfbias
reads = {"limits": "integrate", "primes": "sieve_range", "forms": "representation_table",
         "series": "bias_series", "counting": "d_functions", "equidist": "weyl_sum",
         "cache": "read_cache"}
mods = {layer: sys.modules[f"qfbias.{layer}"] for layer in reads}
assert "numpy" not in sys.modules
for layer, name in reads.items():
    mod = mods[layer]
    assert type(mod) is not types.ModuleType
    assert callable(getattr(mod, name)) and type(mod) is types.ModuleType
    assert getattr(qfbias, layer) is mod is sys.modules[f"qfbias.{layer}"]
    print(layer, "numpy" in sys.modules)
"""
        lines = _fresh_python(script).splitlines()
        assert lines[0] == "limits False"
        assert lines[1:] == [f"{layer} True" for layer in
                             ("primes", "forms", "series", "counting", "equidist", "cache")]


class TestExitHook:
    """`import qfbias.cli` registers `gc.freeze` to run at interpreter exit."""

    # the hook as shipped, or unregistered after the import
    SCRIPT = """
import atexit, gc, sys
from qfbias.cli import main
if sys.argv[1] == "unhooked":
    atexit.unregister(gc.freeze)
main(sys.argv[2:], prog_name="qfbias")
"""

    @pytest.mark.parametrize("argv, code", [
        (["series", "--form", "1,0,1", "--mod", "8", "--res", "1", "--nmax", "1000",
          "-o", "s.csv"], 0),
        (["series", "--form", "1,0,1", "--nmax", "0", "-o", "s.csv"], 2),
        (["sieve", "--limit", "5000000000"], 3),
        (["series", "--form", "1,0,1", "--nmax", "1000", "-o", "missing/s.csv"], 4),
    ])
    def test_exit_is_unchanged_by_the_hook(self, tmp_path, argv, code):
        runs = {}
        for mode in ("hooked", "unhooked"):
            (tmp_path / mode).mkdir()
            run = _fresh_run(self.SCRIPT, mode, *argv, cwd=tmp_path / mode)
            csv = tmp_path / mode / "s.csv"
            runs[mode] = (run.returncode, run.stdout, run.stderr,
                          csv.read_bytes() if csv.exists() else None)
        (rc, out, err, csv), (rc0, out0, err0, csv0) = runs["hooked"], runs["unhooked"]
        assert rc == rc0 == code
        assert (out, csv) == (out0, csv0)
        if code == 0:
            assert out.strip() and csv.startswith(b"N,PrN,")
        if code == 4:
            # the message names a temporary file with a pid and random suffix
            assert err.startswith(b"i/o error:") and err0.startswith(b"i/o error:")
        else:
            assert err == err0

    def test_exit_freezes_the_heap(self):
        # exit handlers run last-registered first, so this one runs after the hook
        code = ("import atexit, gc\n"
                "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
                "import qfbias.cli\n")
        assert _fresh_python(code).split() == ["True"]

    def test_in_process_runs_never_freeze(self, runner, tmp_path):
        for args in (["limit", "--form", "1,0,1", "--k", "1"],
                     ["series", "--form", "1,0,1", "--nmax", "1000", "-o", str(tmp_path / "s.csv")],
                     ["series", "--form", "1,0,1", "--nmax", "0", "-o", str(tmp_path / "t.csv")],
                     ["sieve", "--limit", "5000000000"]):
            runner.invoke(main, args)
        assert gc.get_freeze_count() == 0 and gc.isenabled()


@pytest.mark.parametrize("argv, printed", [
    (["series", "--form", "1,0,1", "--nmax", "1000", "--stride", "500", "-o"], b"2.381073446328\n"),
    (["sieve", "--limit", "100", "--out"], b"25\n"),
])
def test_csv_to_its_own_stdout_keeps_the_printed_result(runner, tmp_path, argv, printed):
    # `-o /dev/stdout > f` writes the CSV then the result into f, as a pipe does
    plain = invoke(runner, *argv, str(tmp_path / "plain.csv"))
    want = (tmp_path / "plain.csv").read_bytes() + plain.stdout_bytes
    assert plain.stdout_bytes == printed
    code = "import sys\nfrom qfbias.cli import main\nmain(sys.argv[1:], prog_name='qfbias')\n"
    with open(tmp_path / "f", "wb") as fh:
        _fresh_run(code, *argv, "/dev/stdout", capture_output=False, stdout=fh, check=True)
    assert (tmp_path / "f").read_bytes() == want
    assert _fresh_run(code, *argv, "/dev/stdout", check=True).stdout == want


def test_stream_commands_load_no_fractions(tmp_path):
    # the series, D1/D2 and repro streams compile neither `polynomials` nor
    # `limits`; the commands that evaluate polynomials or integrals still do
    script = ("import sys\nfrom qfbias.cli import main\n"
              "try:\n    main(sys.argv[1:], prog_name='qfbias')\n"
              "except SystemExit as exc:\n    print(exc.code, 'fractions' in sys.modules)\n")
    for argv, loaded in [
        (["series", "--form", "1,0,1", "--nmax", "1000", "-o", str(tmp_path / "s.csv")],
         "False"),
        (["dfunc", "--xmax", "10000", "-o", str(tmp_path / "d.csv")], "False"),
        (["repro", "--outdir", str(tmp_path / "r"), "--scale", "0.002"], "False"),
        (["limit", "--form", "1,0,1", "--k", "1"], "True"),
        (["density", "--delta", "-1", "--x", "1000", "-o", str(tmp_path / "n.csv")], "True"),
    ]:
        assert _fresh_python(script, *argv).split()[-2:] == ["0", loaded], argv


# every primitive positive-definite form with a <= 6, |b| <= 2a + 3 and c <= 8
SMALL_FORMS = [
    f"{a},{b},{c}"
    for a in range(1, 7) for b in range(-2 * a - 3, 2 * a + 4) for c in range(1, 9)
    if b * b < 4 * a * c and math.gcd(a, b, c) == 1
]


def _limit_run(*args):
    result = CliRunner().invoke(main, ["limit", *args])
    return result.exit_code, result.stdout


class TestLimitCommand:
    def test_first_moment_prints_silver_ratio(self, runner):
        result = invoke(runner, "limit", "--form", "1,0,1", "--k", "1")
        assert result.exit_code == 0
        assert result.stdout.strip() == "2.414213562373"

    def test_second_moment(self, runner):
        result = invoke(runner, "limit", "--form", "1,0,1", "--k", "2")
        assert result.stdout.strip() == "4.503876787768"

    def test_high_power_of_moderate_form_converges(self, runner):
        # integrals of size ~1e4 whose rounding exceeds the default tolerance;
        # the reference value is the integral ratio at 40 digits (mpmath)
        result = invoke(runner, "limit", "--form", "1,0,5", "--k", "8")
        assert result.exit_code == 0
        assert float(result.stdout) == pytest.approx(2939.8132247575093, abs=1e-11)

    def test_polynomial_route(self, runner):
        result = invoke(runner, "limit", "--form", "1,0,1", "--f", "x", "--g", "y")
        assert result.stdout.strip() == "2.414213562373"

    def test_flag_conflict_is_usage_error(self, runner):
        result = runner.invoke(main, ["limit", "--form", "1,0,1", "--k", "1", "--f", "x", "--g", "y"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, message", [
        ([], "specify either a moment power or both polynomials"),
        (["--k", "1", "--f", "x"], "specify either a moment power or both polynomials"),
        (["--f", "x"], "polynomial problems need both f and g"),
    ], ids=["neither", "k-and-f", "f-alone"])
    def test_exactly_one_route_is_usage_error(self, runner, args, message):
        result = runner.invoke(main, ["limit", "--form", "1,0,1", *args])
        assert result.exit_code == 2 and result.stdout == ""
        assert message in result.stderr

    @given(form=st.sampled_from(SMALL_FORMS), k=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_moment_is_the_polynomial_limit_of_x_k_over_y_k(self, form, k):
        moment = _limit_run("--form", form, "--k", str(k))
        assert moment[0] == 0
        assert moment == _limit_run("--form", form, "--f", f"x^{k}", "--g", f"y^{k}")

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_tiny_sign_definite_denominator_is_not_refused(self, k):
        # beta ~ 0.002 for this form, so the y^k integral is ~1e-23 at k = 8:
        # small, but y^k > 0 on (0, beta), so it cannot vanish by cancellation
        moment = _limit_run("--form", "1,1000,250001", "--k", str(k))
        assert moment[0] == 0
        assert moment == _limit_run("--form", "1,1000,250001", "--f", f"x^{k}", "--g", f"y^{k}")

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
        invoke(runner, "sieve", "--lo", "10", "--limit", "30", "--out", str(out))
        assert out.read_text().split() == ["11", "13", "17", "19", "23", "29"]

    @pytest.mark.parametrize("args", [
        ["--limit", "200000"],
        ["--lo", "999000", "--limit", "1000000"],
        ["--lo", "24", "--limit", "28"],
    ])
    def test_out_file_is_one_prime_per_line(self, runner, tmp_path, args):
        out = tmp_path / "p.txt"
        result = invoke(runner, "sieve", *args, "--out", str(out))
        lo, hi = (2, int(args[1])) if args[0] == "--limit" else (int(args[1]), int(args[3]))
        primes = sieve_range(lo, hi).tolist()
        assert out.read_bytes() == "".join(f"{p}\n" for p in primes).encode()
        assert result.stdout.strip() == str(len(primes))

    @pytest.mark.parametrize("limit", ["1", "0"])
    def test_limit_below_two_is_usage_error_naming_limit(self, runner, sieve_spy, limit):
        result = runner.invoke(main, ["sieve", "--limit", limit])
        assert result.exit_code == 2
        assert "--limit" in result.stderr and "--lo" not in result.stderr
        assert sieve_spy == []

    def test_streams_the_sieve_one_window_at_a_time(self, runner, sieve_spy):
        result = invoke(runner, "sieve", "--lo", "999999000", "--limit", "1001000000")
        assert_windows_cover(sieve_spy, 999_999_000, 1_001_000_000)
        assert result.stdout == "48200\n"

    def test_out_file_written_across_three_windows(self, runner, tmp_path, sieve_spy):
        out = tmp_path / "p.txt"
        result = invoke(runner, "sieve", "--limit", "3000000", "--out", str(out))
        assert len(sieve_spy) == 3
        assert_windows_cover(sieve_spy, 2, 3_000_000)
        # the reference is the plain sieve of Eratosthenes, not the segmented one
        want = np.flatnonzero(_simple_prime_flags(3_000_000))
        assert out.read_bytes() == "".join(f"{p}\n" for p in want.tolist()).encode()
        assert result.stdout == f"{want.size}\n" == "216816\n"

    @pytest.mark.parametrize("existing", [None, b"2\n3\n5\n"], ids=["new", "existing"])
    def test_failed_run_leaves_no_partial_file(self, runner, tmp_path, monkeypatch, existing):
        out = tmp_path / "p.txt"
        if existing is not None:
            out.write_bytes(existing)
        segments = primes_module.segments

        def failing(lo, hi):
            stream = segments(lo, hi)
            yield next(stream)
            raise OSError("disk gone after the first window")

        monkeypatch.setattr("qfbias.primes.segments", failing)
        result = runner.invoke(main, ["sieve", "--limit", "3000000", "--out", str(out)])
        assert result.exit_code == 4
        assert "disk gone" in result.stderr
        # no temporary is left beside the target, and an older file stays whole
        assert list(tmp_path.iterdir()) == ([] if existing is None else [out])
        if existing is not None:
            assert out.read_bytes() == existing

    def test_conflicting_flags(self, runner, sieve_spy):
        result = runner.invoke(main, ["sieve", "--lo", "9", "--limit", "5"])
        assert result.exit_code == 2
        assert "--lo" in result.stderr and "--limit" in result.stderr
        assert sieve_spy == []


# primitive positive-definite forms, b < 0 included
PRIMITIVE_FORMS = st.tuples(st.integers(1, 6), st.integers(-9, 9), st.integers(1, 9)).filter(
    lambda f: f[1] ** 2 < 4 * f[0] * f[2] and math.gcd(*f) == 1
).map(lambda f: QuadraticForm(*f))


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

    @pytest.mark.parametrize("limit", ["1", "-5"])
    def test_limit_below_two_is_usage_error(self, runner, tmp_path, limit):
        cache = tmp_path / "c.qfr"
        result = runner.invoke(main, ["represent", "--form", "1,0,1", "--limit", limit,
                                      "--cache", str(cache)])
        assert result.exit_code == 2
        assert not cache.exists()

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

    def test_int64_range_is_computation_error(self, runner, tmp_path, sieve_spy):
        # refused before the cache opens: no cache and no temporary file, and
        # an older cache behind a link stays whole
        old = tmp_path / "old.qfr"
        old.write_bytes(b"older cache")
        (tmp_path / "link.qfr").symlink_to(old)
        for name in ("c.qfr", "link.qfr"):
            result = runner.invoke(main, ["represent", "--form", f"{2**62},1,1", "--limit", "100",
                                          "--cache", str(tmp_path / name)])
            assert result.exit_code == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.qfr", "old.qfr"]
        assert old.read_bytes() == b"older cache"
        assert sieve_spy == []

    def test_non_regular_target_is_usage_error(self, runner, sieve_spy):
        # the count is written after the records, so the target must seek
        result = runner.invoke(main, ["represent", "--form", "1,0,1", "--limit", "100000",
                                      "--cache", "/dev/null"])
        assert result.exit_code == 2
        assert "/dev/null is not a regular file" in result.stderr
        assert sieve_spy == []

    @given(form=PRIMITIVE_FORMS, limit=st.integers(2, 30_000), size=st.integers(1, 3000))
    @settings(UNSHRUNK, max_examples=40)
    def test_cache_equals_the_oracle_table_written_whole(self, tmp_path_factory, form, limit,
                                                        size):
        limit = min(limit, 200 * size)  # at most 200 segments
        tmp = tmp_path_factory.mktemp("represent")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", size)
            result = invoke(CliRunner(), "represent", "--form", f"{form.a},{form.b},{form.c}",
                            "--limit", str(limit), "--cache", str(tmp / "c.qfr"))
        table = table_to(form, limit)
        assert write_cache(tmp / "want.qfr", form, [table]) == len(table)
        assert result.stdout == f"{len(table)}\n"
        assert (tmp / "c.qfr").read_bytes() == (tmp / "want.qfr").read_bytes()


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

    def test_flipped_cache_bit_exits_3_before_the_csv(self, runner, tmp_path):
        cache = tmp_path / "c.qfr"
        invoke(runner, "represent", "--form", "1,0,1", "--limit", "100000", "--cache", str(cache))
        blob = bytearray(cache.read_bytes())
        blob[-16] ^= 1  # the low bit of the last record's x
        cache.write_bytes(blob)
        out = tmp_path / "c.csv"
        result = invoke(runner, "series", "--form", "1,0,1", "--nmax", "1000", "-o", str(out),
                        "--cache", str(cache))
        assert result.exit_code == 3 and not out.exists()

    def test_short_cache_equals_scratch(self, runner, tmp_path):
        # the cache serves the primes it covers and the rest are enumerated
        cache = tmp_path / "c.qfr"
        invoke(runner, "represent", "--form", "1,-1,2", "--limit", "3000", "--cache", str(cache))
        fresh, cached = tmp_path / "fresh.csv", tmp_path / "cached.csv"
        common = ["series", "--form", "1,-1,2", "--nmax", "2000", "--stride", "50"]
        invoke(runner, *common, "-o", str(fresh))
        invoke(runner, *common, "-o", str(cached), "--cache", str(cache))
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

    def test_both_series_from_one_pass(self, runner, tmp_path, passes):
        # Pr(1e5) = 1299709 spans two sieve segments
        invoke(runner, "ratio", "--form", "1,0,1", "--mod", "8", "--res", "5",
               "--nmax", "100000", "-o", str(tmp_path / "r.csv"))
        folds, enumerated = passes
        assert [(form, classes) for form, classes, _ in folds] == [
            (QuadraticForm(1, 0, 1), (CongruenceClass(5, 8), CongruenceClass.trivial()))
        ]
        assert len(folds[0][2]) == 2
        assert_one_pass_each(folds, enumerated)


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
        rows = d_race_rows(xmax)
        assert out.read_text() == dfunc_csv(rows)
        # d_functions returns the CSV's rows as d_race's int64 columns
        columns = d_functions(table_to(QuadraticForm(1, 0, 1), xmax), xmax)
        assert [c.dtype for c in columns] == [np.int64] * 3
        assert list(zip(*(c.tolist() for c in columns))) == rows


Q11 = QuadraticForm(1, 0, 1)
PRIMES_TO_2E5 = sieve_range(2, 200_000)


@st.composite
def dfunc_bounds(draw):
    """A sieve segment size in 1..5000 and an x_max in [2, 2e5] at most 200
    segments long: anywhere, next to a segment edge, or a prime."""
    size = draw(st.integers(1, 5000))
    top = min(200_000, 200 * size)
    kind = draw(st.sampled_from(["any", "edge", "prime"]))
    if kind == "any":
        x_max = draw(st.integers(2, top))
    elif kind == "edge":
        # the segments are [2, 1 + size], [2 + size, 1 + 2 * size], ...
        x_max = 1 + draw(st.integers(1, (top - 1) // size)) * size + draw(st.integers(0, 2))
    else:
        x_max = int(draw(st.sampled_from(PRIMES_TO_2E5[PRIMES_TO_2E5 <= top].tolist())))
    return size, min(x_max, top)


def dfunc_csv(rows) -> str:
    """The dfunc CSV text of (x, D1, D2) rows."""
    return "x,D1,D2\n" + "".join(f"{x},{d1},{d2}\n" for x, d1, d2 in rows)


def dfunc_reference(x_max):
    """CSV text, stdout and fraction line of dfunc, from the per-prime oracle."""
    rows = d_race_rows(x_max)
    f1, f2 = map(negative_bias_fraction, class_series(*zip(*rows)))
    fractions = (f"negative fraction: D1 {f1.negative:.4f} (<=0: {f1.nonpositive:.4f}), "
                 f"D2 {f2.negative:.4f} (<=0: {f2.nonpositive:.4f})")
    return dfunc_csv(rows), "{} {}\n".format(*rows[-1][1:]), fractions


class TestDfuncStream:
    @given(x_max=st.integers(2, 20_000), size=st.integers(1, 5000))
    @settings(UNSHRUNK, max_examples=40)
    def test_run_and_fractions_equal_the_per_prime_oracle(self, tmp_path_factory, x_max, size):
        x_max = min(x_max, 200 * size)  # at most 200 segments
        path = tmp_path_factory.mktemp("dfunc") / "d.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", size)
            final, fractions = _dfunc_run(path, empty_table(Q11), x_max)
        rows = d_race_rows(x_max)
        assert path.read_text() == dfunc_csv(rows)
        assert tuple(final.tolist()) == rows[-1][1:]
        assert fractions == tuple(map(negative_bias_fraction, class_series(*zip(*rows))))

    @given(bounds=dfunc_bounds(), cache_limit=st.none() | st.integers(2, 200_000))
    @settings(UNSHRUNK, max_examples=40)
    def test_streamed_csv_equals_per_row_reference(self, tmp_path_factory, bounds,
                                                   cache_limit):
        size, x_max = bounds
        tmp = tmp_path_factory.mktemp("dfunc")
        args = ["dfunc", "--xmax", str(x_max), "-o", str(tmp / "d.csv")]
        if cache_limit is not None:
            # the cache's rows are cut at segment edges, and the rest enumerated
            write_cache(tmp / "c.qfr", Q11, [table_to(Q11, cache_limit)])
            args += ["--cache", str(tmp / "c.qfr")]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", size)
            result = invoke(CliRunner(), *args)
        csv, stdout, fractions = dfunc_reference(x_max)
        # line lists: a failing example then reports its first differing row
        assert (tmp / "d.csv").read_text().splitlines() == csv.splitlines()
        assert (tmp / "d.csv").read_text() == csv
        assert result.stdout == stdout
        assert fractions in result.stderr.splitlines()

    def test_three_segments_streamed(self, runner, tmp_path, sieve_spy):
        out = tmp_path / "d.csv"
        result = invoke(runner, "dfunc", "--xmax", "3000000", "-o", str(out))
        assert len(sieve_spy) == 3
        assert_windows_cover(sieve_spy, 2, 2_999_999)
        assert result.stdout == "-59 -76\n"
        lines = out.read_bytes().splitlines()
        assert len(lines) == 108285 and lines[-1] == b"3000000,-59,-76"

    def test_covering_cache_sieves_nothing(self, runner, tmp_path, monkeypatch):
        cache = tmp_path / "c.qfr"
        write_cache(cache, Q11, [table_to(Q11, 50_000)])
        # a cache covers its largest prime; dfunc reads the primes below x_max
        xmax = str(read_cache(cache).limit + 1)
        fresh, cached = tmp_path / "fresh.csv", tmp_path / "cached.csv"
        plain = invoke(runner, "dfunc", "--xmax", xmax, "-o", str(fresh))
        monkeypatch.setattr("qfbias.primes.sieve_range",
                            lambda lo, hi: pytest.fail(f"sieved [{lo}, {hi}]"))
        result = invoke(runner, "dfunc", "--xmax", xmax, "-o", str(cached), "--cache", str(cache))
        assert result.stdout == plain.stdout
        assert cached.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("xmax", ["1", "0", "-7"])
    def test_xmax_below_two_is_usage_error(self, runner, tmp_path, xmax):
        result = runner.invoke(main, ["dfunc", "--xmax", xmax, "-o", str(tmp_path / "d.csv")])
        assert result.exit_code == 2
        assert "x_max must be >= 2" in result.stderr
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("delta, mod, res, value", [
        ("-999999937", "8", "1", "1"),  # d_K = -3999999748 does not divide 8
        ("-9999991", "9999991", "2", "2"),  # d_K = delta, chi_K(2) = 1
        ("-9999991", "19999982", "3", "0"),  # chi_K(3) = -1
        ("-1", str(10**20), "1", "2"),  # a modulus past int64: chi_K read mod 4
        ("-1", str(10**20), "3", "0"),
    ])
    def test_large_discriminants_and_moduli(self, runner, delta, mod, res, value):
        result = invoke(runner, "acoeff", "--delta", delta, "--mod", mod, "--res", res)
        assert result.stdout == value + "\n"

    def test_discriminant_past_int64(self, runner):
        # delta = -(2*3*5*...*53), squarefree, so d_K = 4*delta is past int64:
        # index 1 needs no character value, index 2 is refused as a usage error
        delta = -math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
        args = ["acoeff", "--delta", str(delta), "--res", "1", "--mod"]
        assert invoke(runner, *args, "8").stdout == "1\n"
        result = runner.invoke(main, [*args, str(-4 * delta)])
        assert result.exit_code == 2 and "a inside int64" in result.stderr

    @pytest.mark.parametrize("budget", ["-5", "0", "1", "20", "50000"])
    def test_budget_has_no_effect(self, runner, budget):
        # A(m, M) is a closed form, so there is no scan budget to set: every
        # --budget is a usage error and the values stay the closed form's; a
        # scan of primes to 20 once missed the residue 2 (mod 35)
        for delta, mod, res, value in [("-1", "35", "1", "1"), ("-1", "35", "2", "1"),
                                       ("-1", "35", "3", "1"), ("-1", "8", "5", "2"),
                                       ("-1", "8", "3", "0"), ("-3", "12", "5", "0")]:
            args = ["acoeff", "--delta", delta, "--mod", mod, "--res", res]
            assert invoke(runner, *args).stdout == value + "\n"
            result = runner.invoke(main, [*args, "--budget", budget])
            assert result.exit_code == 2
            assert "No such option" in result.stderr and "--budget" in result.stderr
            assert result.stdout == ""


class TestDensityCommand:
    def test_checkpoints_and_ratio(self, runner, tmp_path):
        out = tmp_path / "den.csv"
        result = invoke(runner, "density", "--delta", "-1", "--x", "100000", "-o", str(out))
        ratio = float(result.stdout.strip())
        assert 0.9 < ratio < 1.1
        lines = out.read_text().splitlines()
        assert lines[0] == "x,empirical,predicted,ratio"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["100", "1000", "10000", "100000"]

    def test_every_checkpoint_from_one_sieve(self, runner, tmp_path, sieve_spy):
        out = tmp_path / "den.csv"
        invoke(runner, "density", "--delta", "-1", "--mod", "8", "--res", "1",
               "--x", "123456", "-o", str(out))
        assert sieve_spy == [(2, 123456)]
        assert len(out.read_text().splitlines()) == 1 + 5

    def test_streams_the_sieve_one_window_at_a_time(self, runner, tmp_path, sieve_spy):
        result = invoke(runner, "density", "--delta", "-1", "--mod", "8", "--res", "1",
                        "--x", "3000000", "-o", str(tmp_path / "den.csv"))
        assert len(sieve_spy) == 3
        assert_windows_cover(sieve_spy, 2, 3_000_000)
        assert result.stdout == "0.998112549642\n"

    def test_exact_zero_class(self, runner, tmp_path):
        out = tmp_path / "den.csv"
        result = invoke(runner, "density", "--delta", "-1", "--mod", "8", "--res", "3",
                        "--x", "1000", "-o", str(out))
        assert result.stdout.strip() == "exact-zero"
        assert out.read_text().splitlines()[1:] == ["100,0,0.000000000000,",
                                                    "1000,0,0.000000000000,"]

    @pytest.mark.parametrize("mod,res", [("8", "1"), ("35", "2")])
    def test_budget_has_no_effect(self, runner, tmp_path, mod, res):
        # no budget can change the CSV: --budget is a usage error that writes
        # nothing, and the run without it is unchanged
        args = ["density", "--delta", "-1", "--mod", mod, "--res", res, "--x", "1000", "-o"]
        plain_csv = tmp_path / "plain.csv"
        plain = invoke(runner, *args, str(plain_csv))
        plain_bytes = plain_csv.read_bytes()
        for budget in ("1", "20", "50000"):
            out = tmp_path / f"budget{budget}.csv"
            result = runner.invoke(main, [*args, str(out), "--budget", budget])
            assert result.exit_code == 2
            assert "No such option" in result.stderr and "--budget" in result.stderr
            assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.csv"]
        assert invoke(runner, *args, str(plain_csv)).stdout == plain.stdout
        assert plain_csv.read_bytes() == plain_bytes


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
        if count == 0:  # a usage error: no sample could be written
            assert result.exit_code == 2 and not out.exists()
            return
        table, raw, theta = sample_angles(table_to(qf, 3000), CongruenceClass(res, mod),
                                          count)
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

    @given(form=st.sampled_from(["1,0,1", "1,1,1", "2,-1,3"]), size=st.integers(1, 3000),
           limit=st.integers(2, 30_000), mod=st.sampled_from([1, 4, 8, 12]),
           count=st.none() | st.integers(0, 2000),
           cache_limit=st.none() | st.integers(2, 30_000), data=st.data())
    @settings(UNSHRUNK, max_examples=40)
    def test_streamed_csv_equals_sample_angles(self, tmp_path_factory, form, size, limit, mod,
                                               count, cache_limit, data):
        res = data.draw(st.sampled_from([r for r in range(mod) if math.gcd(r, mod) == 1]))
        limit = min(limit, 200 * size)  # at most 200 segments
        qf = QuadraticForm(*map(int, form.split(",")))
        tmp = tmp_path_factory.mktemp("angles")
        out = tmp / "a.csv"
        args = ["equidist", "--form", form, "--mod", str(mod), "--res", str(res), "-o", str(out)]
        if count is not None:
            args += ["--count", str(count)]
        table = table_to(qf, limit)
        if cache_limit is not None:
            write_cache(tmp / "c.qfr", qf, [table_to(qf, cache_limit)])
            args += ["--cache", str(tmp / "c.qfr")]
            if data.draw(st.booleans()):  # without --limit the cache's coverage is the bound
                table = read_cache(tmp / "c.qfr")
                limit = None
        if limit is not None:
            args += ["--limit", str(limit)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", size)
            result = CliRunner().invoke(main, args)
        rows, raw, theta = sample_angles(table, CongruenceClass(res, mod), count)
        if len(rows) == 0:
            # neither the CSV nor its temporary file is left behind; --count 0
            # is refused as a usage error before any cache is read
            assert result.exit_code == (2 if count == 0 else 3)
            assert [p.name for p in tmp.iterdir()] == ["c.qfr"] * (cache_limit is not None)
            return
        assert result.exit_code == 0
        cols = zip(rows.p.tolist(), rows.x.tolist(), rows.y.tolist(), raw.tolist(), theta.tolist())
        expected = [f"{p},{x},{y},{_fmt(r)},{_fmt(t)}" for p, x, y, r, t in cols]
        assert out.read_text().splitlines()[1:] == expected
        assert result.stdout == _fmt(ks_statistic(raw, math.pi / 4)) + "\n"

    def test_count_ends_the_pass(self, runner, tmp_path, sieve_spy):
        # the sieve spy fails a test that sieves more than 1e7 numbers
        out = tmp_path / "a.csv"
        result = invoke(runner, "equidist", "--form", "1,0,1", "--limit", "100000000",
                        "--count", "70000", "-o", str(out))
        assert len(sieve_spy) == 2
        rows, raw, _ = sample_angles(table_to(Q11, 2_000_000), max_count=70_000)
        assert len(out.read_bytes().splitlines()) == 1 + 70_000
        assert result.stdout == _fmt(ks_statistic(raw, math.pi / 4)) + "\n"

    def test_winding_resolved_once_per_run(self, runner, tmp_path, monkeypatch, sieve_spy):
        calls = []

        def spy(form):
            calls.append(form)
            return root_count_for_form(form)

        monkeypatch.setattr("qfbias.equidist.root_count_for_form", spy)
        monkeypatch.setattr(primes_module, "DEFAULT_SEGMENT_SIZE", 1000)
        out = tmp_path / "a.csv"
        invoke(runner, "equidist", "--form", "1,0,1", "--limit", "5000", "-o", str(out))
        assert len(sieve_spy) >= 3
        assert calls == [Q11]
        rows, _, _ = sample_angles(table_to(Q11, 5000))
        assert len(out.read_bytes().splitlines()) == 1 + len(rows)

    def test_negative_count_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--limit", "1000",
                                      "--count", "-5", "-o", str(tmp_path / "a.csv")])
        assert result.exit_code == 2
        assert not (tmp_path / "a.csv").exists()
        with pytest.raises(ValueError, match="nonnegative"):
            sample_angles(table_to(QuadraticForm(1, 0, 1), 1000), max_count=-5)

    def test_zero_count_is_usage_error(self, runner, tmp_path, monkeypatch):
        # it could never write a sample, so it is refused before any cache is read
        monkeypatch.setattr("qfbias.cache.read_cache", lambda *a, **k: pytest.fail("read"))
        cache = tmp_path / "c.qfr"
        write_cache(cache, Q11, [table_to(Q11, 1000)])
        result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--limit", "1000",
                                      "--count", "0", "--cache", str(cache),
                                      "-o", str(tmp_path / "a.csv")])
        assert result.exit_code == 2
        assert "--count" in result.stderr
        assert not (tmp_path / "a.csv").exists()
        assert sample_angles(table_to(Q11, 1000), max_count=0)[0].p.size == 0

    def test_winding_below_one_is_usage_error(self):
        # the command winds by the field's own root count; the library refuses w < 1
        with pytest.raises(ValueError, match="positive"):
            sample_angles(table_to(QuadraticForm(1, 0, 1), 1000), w=0)

    @pytest.mark.parametrize("option", ["--sectors", "--stats-stride"])
    def test_negative_option_is_usage_error(self, runner, tmp_path, option):
        result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--limit", "1000",
                                      option, "-3", "-o", str(tmp_path / "a.csv")])
        assert result.exit_code == 2
        assert not (tmp_path / "a.csv").exists()

    def test_conjugates_without_sectors_is_usage_error(self, runner, tmp_path, monkeypatch,
                                                       sieve_spy):
        # the mirror angles only enter the sector counts, and the stride only
        # the sweep, so either flag alone would change nothing; each is refused
        # before any cache is read or table built
        monkeypatch.setattr("qfbias.cache.read_cache", lambda *a, **k: pytest.fail("read"))
        cache = tmp_path / "c.qfr"
        write_cache(cache, Q11, [table_to(Q11, 1000)])
        for flag, needed in ((["--conjugates"], "give --sectors"),
                             (["--stats-stride", "5"], "give --stats")):
            result = runner.invoke(main, ["equidist", "--form", "1,0,1", "--limit", "1000",
                                          *flag, "--cache", str(cache),
                                          "-o", str(tmp_path / "a.csv")])
            assert result.exit_code == 2
            assert needed in result.stderr
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

    def test_figures_1_and_2_match_series(self, runner, tmp_path):
        outdir = tmp_path / "repro"
        invoke(runner, "repro", "--outdir", str(outdir), "--scale", "0.002")
        # at this scale both figures run to N = 1000
        for fig, form, mod, res in ((1, "1,0,1", 8, 1), (1, "1,0,1", 8, 5),
                                    (2, "1,1,1", 12, 1), (2, "1,1,1", 12, 7)):
            out = tmp_path / f"s{fig}_{res}.csv"
            invoke(runner, "series", "--form", form, "--mod", str(mod), "--res", str(res),
                   "--nmax", "1000", "--stride", "100", "-o", str(out))
            assert (outdir / f"fig{fig}_class{res}mod{mod}.csv").read_bytes() == out.read_bytes()

    def test_figures_3_and_4_match_ratio_and_dfunc(self, runner, tmp_path):
        outdir = tmp_path / "repro"
        invoke(runner, "repro", "--outdir", str(outdir), "--scale", "0.002")
        # at this scale fig3 runs to N = 1000 and fig4 to x = 1e4
        for m in (1, 5):
            out = tmp_path / f"r{m}.csv"
            invoke(runner, "ratio", "--form", "1,0,1", "--mod", "8", "--res", str(m),
                   "--nmax", "1000", "--stride", "100", "-o", str(out))
            assert (outdir / f"fig3_ratio{m}mod8.csv").read_bytes() == out.read_bytes()
        out = tmp_path / "d.csv"
        invoke(runner, "dfunc", "--xmax", "10000", "-o", str(out))
        assert (outdir / "fig4_dfunctions.csv").read_bytes() == out.read_bytes()

    def test_progress_lines_in_figure_order(self, runner, tmp_path):
        result = invoke(runner, "repro", "--outdir", str(tmp_path), "--scale", "0.002")
        assert result.stderr.splitlines() == [
            "fig1: final F[1 (mod 8)]=2.325625117503 F[5 (mod 8)]=2.436710054707; "
            "1 sign changes of the difference",
            "fig2: final F[1 (mod 12)]=2.584348641050 F[7 (mod 12)]=2.736674816626; "
            "2 sign changes of the difference",
            "fig3: final R[1 (mod 8)]=0.976712885984",
            "fig3: final R[5 (mod 8)]=1.023366187408",
            "fig4: negative fractions D1 0.8750, D2 0.3651",
        ]
        assert result.stdout == f"{tmp_path}\n"

    def test_all_computes_each_series_once(self, runner, tmp_path, passes):
        invoke(runner, "repro", "--outdir", str(tmp_path), "--scale", "0.01")
        folds, enumerated = passes
        # one pass for fig1's and fig3's x^2 + y^2 series, one for fig2's
        assert [(form, classes) for form, classes, _ in folds] == [
            (QuadraticForm(1, 0, 1),
             (CongruenceClass(1, 8), CongruenceClass(5, 8), CongruenceClass.trivial())),
            (QuadraticForm(1, 1, 1), (CongruenceClass(1, 12), CongruenceClass(7, 12))),
        ]
        # fig4's table below 1e4 seeds the first fold, so none is enumerated twice
        assert (QuadraticForm(1, 0, 1), 9973) in enumerated
        assert_one_pass_each(folds, enumerated)

    @staticmethod
    def run_marking_folds(runner, monkeypatch, enumerated, outdir, scale):
        """Run repro; returns each fold's (first, last) index into enumerated."""
        fold_spy, marks = series_module.fold_series, []

        def fold_marked(*args, **kwargs):
            first = len(enumerated)
            try:
                return fold_spy(*args, **kwargs)
            finally:
                marks.append((first, len(enumerated)))

        monkeypatch.setattr("qfbias.series.fold_series", fold_marked)
        invoke(runner, "repro", "--outdir", str(outdir), "--scale", scale)
        return marks

    def assert_fig4_is_dfunc(self, runner, tmp_path, outdir):
        out = tmp_path / "d.csv"
        invoke(runner, "dfunc", "--xmax", "10000", "-o", str(out))
        assert (outdir / "fig4_dfunctions.csv").read_bytes() == out.read_bytes()

    def test_fig4_enumerates_past_pr_n(self, runner, tmp_path, passes, monkeypatch):
        # at this scale Pr(1000) = 7919 but fig4 counts the primes below 1e4:
        # fig4's table enumerates [2, 9999] first, and the fold reads its rows
        folds, enumerated = passes
        outdir = tmp_path / "r"
        [(first, last), _] = self.run_marking_folds(runner, monkeypatch, enumerated, outdir,
                                                    "0.002")
        q11 = QuadraticForm(1, 0, 1)
        assert enumerated[:first] == [(q11, p) for p in sieve_range(2, 9999).tolist()]
        assert last == first
        # fig2's fold enumerates only its own form
        assert {form for form, _ in enumerated[last:]} == {QuadraticForm(1, 1, 1)}
        assert_one_pass_each(folds, enumerated)
        self.assert_fig4_is_dfunc(runner, tmp_path, outdir)

    def test_fold_enumerates_past_fig4_table(self, runner, tmp_path, passes, monkeypatch):
        # at this scale fig4's table ends at 9999 < Pr(5000) = 48611: the fold
        # reads the table's rows and enumerates only the primes above it
        folds, enumerated = passes
        outdir = tmp_path / "r"
        [(first, last), _] = self.run_marking_folds(runner, monkeypatch, enumerated, outdir,
                                                    "0.01")
        q11 = QuadraticForm(1, 0, 1)
        assert enumerated[:first] == [(q11, p) for p in sieve_range(2, 9999).tolist()]
        assert enumerated[first:last] == [(q11, p) for p in sieve_range(10000, 48611).tolist()]
        assert_one_pass_each(folds, enumerated)
        out = tmp_path / "s.csv"
        invoke(runner, "series", "--form", "1,0,1", "--mod", "8", "--res", "1",
               "--nmax", "5000", "-o", str(out))
        assert (outdir / "fig1_class1mod8.csv").read_bytes() == out.read_bytes()
        self.assert_fig4_is_dfunc(runner, tmp_path, outdir)


@pytest.mark.parametrize("removed, args", [
    ("--figure", ["repro", "--outdir", "out", "--scale", "0.002", "--figure", "1"]),
    ("--w", ["equidist", "--form", "1,0,1", "--limit", "1000", "--w", "4", "-o", "a.csv"]),
    ("--hi", ["sieve", "--lo", "2", "--hi", "10", "--out", "p.txt"]),
], ids=["repro", "equidist", "sieve"])
def test_removed_option_is_usage_error(runner, tmp_path, monkeypatch, removed, args):
    # repro always writes all four figures, equidist winds by the field's
    # root count, and sieve's one upper bound is --limit
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.stderr and removed in result.stderr
    assert list(tmp_path.iterdir()) == []


THREADED_COMMANDS = {
    "represent": ["--form", "1,0,1", "--limit", "100", "--cache", "c.qfr"],
    "series": ["--form", "1,0,1", "--mod", "4", "--res", "1", "--nmax", "10",
               "--stride", "10", "-o", "s.csv"],
    "ratio": ["--form", "1,0,1", "--mod", "8", "--res", "1", "--nmax", "10",
              "--stride", "10", "-o", "r.csv"],
    "dfunc": ["--xmax", "20", "-o", "d.csv"],
    "equidist": ["--form", "1,0,1", "--limit", "200", "-o", "a.csv"],
    "repro": ["--outdir", "out", "--scale", "0.002"],
}


@pytest.mark.parametrize("command", sorted(THREADED_COMMANDS))
def test_threads_flag_still_accepted(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    args = [command, *THREADED_COMMANDS[command]]
    plain = invoke(runner, *args)
    threaded = invoke(runner, *args, "--threads", "3")
    assert threaded.exit_code == 0
    assert threaded.stdout == plain.stdout
