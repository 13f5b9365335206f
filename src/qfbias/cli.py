"""Command-line surface: experiment orchestration, CSV emission, caching.

Machine-readable results go to standard output; progress and timing go to
standard error. Exit codes: 0 success, 2 usage error, 3 computation error,
4 I/O error.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import gc
import math
import os
import sys
import time
from pathlib import Path

import click

# layers are bound as modules, which `import qfbias` registers lazily: numpy
# loads with the first layer a command reads, so `limit`, `--help`,
# `--version` and usage errors import none
from . import (
    __version__, cache, counting, csvtext, equidist, forms, limits, polynomials, primes, series,
)
from .atomic import replacing
from .errors import ComputationError
from .qform import QuadraticForm

CACHE_DIR_ENV = "QFBIAS_CACHE_DIR"

# each command is one short process: freezing the heap at exit spares the
# finalizing interpreter's full collections, which would walk every object of
# numpy, click and the stdlib; refcount teardown, stdio flushing and the other
# exit handlers run as before
atexit.register(gc.freeze)


def _fmt(v: float) -> str:
    return f"{v:.12f}"


def _fmt_opt(v: float) -> str:
    """12 decimals, or the empty field for NaN (undefined)."""
    return "" if math.isnan(v) else _fmt(v)


def progress(msg: str) -> None:
    click.echo(msg, err=True)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ComputationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            # contract violations surface as usage errors at the CLI boundary
            raise click.UsageError(str(exc)) from exc
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _parse_form(ctx, param, value) -> QuadraticForm | None:
    if value is None:
        return None
    try:
        parts = [int(t) for t in value.split(",")]
        if len(parts) != 3:
            raise ValueError("expected three comma-separated integers")
        return QuadraticForm(*parts)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _parse_poly(ctx, param, value):
    if value is None:
        return None
    try:
        return polynomials.parse_polynomial(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _class_from(mod: int, res: int | None) -> primes.CongruenceClass:
    if res is None and mod == 1:
        return primes.CongruenceClass.trivial()
    if res is None:
        raise click.UsageError("--res is required when --mod is given")
    return primes.CongruenceClass(res, mod)


def _resolve_cache(path: str) -> Path:
    p = Path(path)
    env = os.environ.get(CACHE_DIR_ENV)
    if env and not p.is_absolute():
        return Path(env) / p
    return p


def _load_seed(form: QuadraticForm, cache_file: str | None) -> forms.RepTable:
    """The cache's table when one is given, else an empty table of form."""
    if not cache_file:
        return forms.empty_table(form)
    path = _resolve_cache(cache_file)
    if not path.exists():
        raise click.UsageError(f"cache file {path} does not exist")
    seed = cache.read_cache(path, expected_form=form)
    progress(f"cache: {len(seed)} records up to {seed.max_prime} from {path}")
    return seed


form_option = click.option(
    "--form", callback=_parse_form, required=True, help="form coefficients a,b,c"
)
mod_option = click.option("--mod", type=int, default=1, show_default=True, help="congruence modulus M")
res_option = click.option("--res", type=int, default=None, help="congruence residue m")
# kept so existing command lines still parse; representation runs in-process
threads_option = click.option(
    "--threads", type=int, default=1, show_default=True, expose_value=False,
    help="accepted for compatibility; has no effect",
)
cache_option = click.option("--cache", default=None, help="representation cache file (QFR1)")
output_option = click.option(
    "-o", "--output", required=True, type=click.Path(dir_okay=False), help="CSV output path"
)


@click.group()
@click.version_option(version=__version__)
def main():
    """Prime representations by quadratic forms: bias series and statistics."""


# ---------------------------------------------------------------------------


@main.command("sieve")
@click.option("--limit", type=int, default=None, help="sieve [2, limit]")
@click.option("--lo", type=int, default=None)
@click.option("--hi", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="write primes, one per line")
@handle_errors
def cmd_sieve(limit, lo, hi, out):
    """Count (and optionally list) primes in a range."""
    if limit is not None:
        if lo is not None or hi is not None:
            raise click.UsageError("--limit conflicts with --lo/--hi")
        lo, hi = 2, limit
    if lo is None or hi is None:
        raise click.UsageError("need --limit or both --lo and --hi")
    if lo > hi:
        raise click.UsageError("--lo must not exceed --hi")
    t0 = time.perf_counter()
    count = 0
    blocks = primes.segments(lo, hi)  # refuses a range past the capacity before --out opens
    with _write_csv(out, None) if out else contextlib.nullcontext() as write:
        for block in blocks:
            count += block.size
            if write:
                write(block)
    progress(f"sieved [{lo}, {hi}] in {time.perf_counter() - t0:.2f}s")
    click.echo(str(count))


@main.command("represent")
@form_option
@click.option("--limit", type=click.IntRange(min=2), required=True, help="prime bound (inclusive)")
@click.option("--cache", "cache_out", required=True, help="QFR1 cache file to write")
@threads_option
@handle_errors
def cmd_represent(form, limit, cache_out):
    """Compute canonical representations up to a bound and cache them."""
    t0 = time.perf_counter()
    table = forms.ensure_table(form, limit)
    dt = time.perf_counter() - t0
    path = _resolve_cache(cache_out)
    path.parent.mkdir(parents=True, exist_ok=True)
    cache.write_cache(path, table)
    rate = len(table) / dt if dt > 0 else float("inf")
    progress(f"{len(table)} records in {dt:.1f}s ({rate:,.0f} records/s) -> {path}")
    click.echo(str(len(table)))


@contextlib.contextmanager
def _write_csv(path, header: str | None):
    """Write a CSV block by block: the header line, if any, then the rows of
    each block of columns handed to the yielded write(*columns).

    Integer columns write as str(v), float columns as 12 decimals with an
    empty field for NaN (undefined); see `csvtext.csv_blocks`. The file
    appears whole when the block ends (`atomic.replacing`): a stream that
    fails part-way leaves no partial file and any previous file at path
    whole.
    """
    with replacing(path) as fh:
        if header is not None:
            fh.write(header.encode() + b"\n")
        yield lambda *columns: fh.writelines(csvtext.csv_blocks(columns))


def _series_step(path, ser: series.BiasSeries) -> float:
    """Write a bias series CSV; returns the final F (NaN if undefined)."""
    f = ser.F
    with _write_csv(path, "N,PrN,sum_a,sum_b,F") as write:
        write(*ser.points.T, f)
    return float(f[-1])


def _ratio_step(path, ser_cls: series.BiasSeries, ser_all: series.BiasSeries) -> float:
    """Write the ratio CSV of a class series over the all-primes one; returns the final R."""
    r = series.ratio_series(ser_cls, ser_all)
    with _write_csv(path, "N,R") as write:
        write(ser_cls.points[:, 0], r)
    return float(r[-1])


def _dfunc_run(path, seed: forms.RepTable, x_max: int) -> counting.DStep:
    """Write the D1/D2 CSV of the x^2 + y^2 primes below x_max; returns the finished step.

    The rows stream block by block from `forms.row_blocks` over seed, so
    only the primes above the seed's limit are enumerated.
    """
    blocks = forms.row_blocks(seed, x_max - 1)  # refuses x_max past the capacity before path opens
    with _write_csv(path, "x,D1,D2") as write:
        step = counting.DStep(x_max, write)
        for block in blocks:
            step.add(block)
        step.end()
    return step


@main.command("series")
@form_option
@mod_option
@res_option
@click.option("--nmax", type=int, required=True, help="prime-index bound N")
@click.option("--stride", type=int, default=100, show_default=True)
@output_option
@cache_option
@threads_option
@handle_errors
def cmd_series(form, mod, res, nmax, stride, output, cache):
    """Bias series: cumulative coordinate sums at every stride-th prime index."""
    cls = _class_from(mod, res)
    [ser] = series.fold_series(_load_seed(form, cache), [cls], nmax, stride=stride)
    final = _series_step(output, ser)
    click.echo("undefined" if math.isnan(final) else _fmt(final))


@main.command("ratio")
@form_option
@mod_option
@res_option
@click.option("--nmax", type=int, required=True)
@click.option("--stride", type=int, default=100, show_default=True)
@output_option
@cache_option
@threads_option
@handle_errors
def cmd_ratio(form, mod, res, nmax, stride, output, cache):
    """Ratio series: class bias series normalized by the all-primes series."""
    cls = _class_from(mod, res)
    if cls.is_trivial:
        raise click.UsageError("ratio needs a nontrivial congruence class")
    ser_cls, ser_all = series.fold_series(
        _load_seed(form, cache), [cls, primes.CongruenceClass.trivial()], nmax, stride=stride
    )
    final = _ratio_step(output, ser_cls, ser_all)
    click.echo("undefined" if math.isnan(final) else _fmt(final))


@main.command("limit")
@form_option
@click.option("--k", type=int, default=None, help="moment power")
@click.option("--f", "poly_f", callback=_parse_poly, default=None, help="numerator polynomial")
@click.option("--g", "poly_g", callback=_parse_poly, default=None, help="denominator polynomial")
@click.option("--tol", type=float, default=1e-12, show_default=True)
@handle_errors
def cmd_limit(form, k, poly_f, poly_g, tol):
    """Exact limit of the bias series, by quadrature of the closed form."""
    if (k is None) == (poly_f is None and poly_g is None):
        raise click.UsageError("specify either a moment power or both polynomials")
    if k is not None:
        value = limits.limit_ratio_moment(form, k, tol)
    elif poly_f is None or poly_g is None:
        raise click.UsageError("polynomial problems need both f and g")
    else:
        value = limits.limit_ratio_poly(form, poly_f, poly_g, tol)
    click.echo(_fmt(value))


@main.command("dfunc")
@click.option("--xmax", type=int, required=True, help="count primes below this bound")
@output_option
@cache_option
@threads_option
@handle_errors
def cmd_dfunc(xmax, output, cache):
    """Counting-function differences for p = a^2 + 4b^2 in classes 1, 5 mod 8."""
    step = _dfunc_run(output, _load_seed(QuadraticForm(1, 0, 1), cache), xmax)
    f1, f2 = step.fractions()
    progress(
        f"negative fraction: D1 {f1.negative:.4f} (<=0: {f1.nonpositive:.4f}), "
        f"D2 {f2.negative:.4f} (<=0: {f2.nonpositive:.4f})"
    )
    click.echo(f"{step.final[0]} {step.final[1]}")


@main.command("acoeff")
@click.option("--delta", type=int, required=True, help="squarefree negative field input")
@click.option("--mod", type=int, required=True)
@click.option("--res", type=int, required=True)
@handle_errors
def cmd_acoeff(delta, mod, res):
    """Density coefficient A(m, M) as a norm-residue subgroup index."""
    fs = counting.FieldSplitting(delta)
    cls = _class_from(mod, res)
    click.echo(str(counting.a_coefficient(fs, cls)))


@main.command("density")
@click.option("--delta", type=int, required=True)
@mod_option
@res_option
@click.option("--x", "x_max", type=int, required=True)
@output_option
@handle_errors
def cmd_density(delta, mod, res, x_max, output):
    """Prime-ideal counts against the predicted leading term, at checkpoints."""
    fs = counting.FieldSplitting(delta)
    cls = _class_from(mod, res)
    if x_max < 100:
        raise click.UsageError("--x must be at least 100")
    checkpoints = []
    x = 100
    while x < x_max:
        checkpoints.append(x)
        x *= 10
    checkpoints.append(x_max)
    reports = counting.density_check(fs, cls, checkpoints)
    with _write_csv(output, "x,empirical,predicted,ratio") as write:
        write(checkpoints, [r.empirical for r in reports], [r.predicted for r in reports],
              [r.ratio for r in reports])
    final = reports[-1].ratio
    click.echo("exact-zero" if math.isnan(final) else _fmt(final))


@main.command("equidist")
@form_option
@mod_option
@res_option
@click.option("--limit", type=int, default=None, help="prime bound for samples")
@click.option("--count", "max_count", type=click.IntRange(min=0), default=None,
              help="sample count cap")
@click.option("--w", type=click.IntRange(min=1), default=None,
              help="winding (roots of unity); default by field")
@click.option("--conjugates", is_flag=True,
              help="add the mirror angles 2pi - theta to the --sectors counts (needs --sectors)")
@output_option
@click.option("--stats", "stats_path", type=click.Path(dir_okay=False), default=None,
              help="also write a prefix-statistics sweep CSV")
@click.option("--stats-stride", type=click.IntRange(min=0), default=0,
              help="sweep stride (0 = auto)")
@click.option("--sectors", type=click.IntRange(min=0), default=0,
              help="print counts for this many sectors")
@cache_option
@threads_option
@handle_errors
def cmd_equidist(form, mod, res, limit, max_count, w, conjugates, output,
                 stats_path, stats_stride, sectors, cache):
    """Angle samples and equidistribution statistics for represented primes."""
    cls = _class_from(mod, res)
    if limit is None and cache is None:
        raise click.UsageError("need --limit (or a --cache covering the primes)")
    if conjugates and sectors == 0:
        raise click.UsageError("--conjugates only changes the --sectors counts; give --sectors")
    import numpy as np

    seed = _load_seed(form, cache)
    # without --limit the cache's coverage is the bound
    blocks = forms.row_blocks(seed, seed.limit if limit is None else limit)
    raws, thetas, left = [], [], max_count
    with _write_csv(output, "p,x,y,raw_arg,theta") as write:
        for block in blocks:
            rows, raw, theta = equidist.sample_angles(block, cls, left, w)
            write(rows.p, rows.x, rows.y, raw, theta)
            raws.append(raw)
            thetas.append(theta)
            if left is not None:
                left -= len(rows)
                if left == 0:  # --count reached: the pass ends here
                    break
        if not any(raw.size for raw in raws):
            raise ComputationError("no canonical representations in the requested range")
    raw, theta = np.concatenate(raws), np.concatenate(thetas)

    quarter = math.pi / 4
    ks = equidist.ks_statistic(raw, quarter)
    if stats_path:
        n = raw.size
        stride = stats_stride if stats_stride > 0 else max(1, n // 20)
        grid = list(range(stride, n + 1, stride))
        if not grid or grid[-1] != n:
            grid.append(n)
        stats = equidist.prefix_statistics(raw, grid, quarter)
        with _write_csv(stats_path, "N,ks,weyl_1,weyl_2,weyl_3,weyl_4,weyl_5") as write:
            write(grid, *stats.T)
    if sectors > 0:
        counts = equidist.sector_counts(equidist.mirrored(theta) if conjugates else theta, sectors)
        progress("sector counts: " + " ".join(str(c) for c in counts))
    click.echo(_fmt(ks))


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------


@main.command("repro")
@click.option("--outdir", type=click.Path(file_okay=False), default="repro_out", show_default=True)
@click.option("--figure", type=click.Choice(["all", "1", "2", "3", "4"]), default="all",
              show_default=True)
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="shrink factor for the default desk-scale bounds")
@threads_option
@handle_errors
def cmd_repro(outdir, figure, scale):
    """Regenerate the experiment CSV files behind the four figures."""
    # each figure runs the step of the series, ratio or dfunc command, so its
    # files equal that command's output; each form's series come from one fold
    if not 0 < scale <= 1:
        raise click.UsageError("--scale must be in (0, 1]")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    want = {"1", "2", "3", "4"} if figure == "all" else {figure}
    form11 = QuadraticForm(1, 0, 1)
    n11 = max(int(500_000 * scale), 1000)
    x_max = max(int(1_000_000 * scale), 10_000)
    cc = primes.CongruenceClass
    # fig4 is dfunc over a table of the primes below x_max, and that table
    # seeds the x^2 + y^2 fold, so no prime is enumerated twice
    seed, step = forms.empty_table(form11), None
    if "4" in want:
        seed = forms.ensure_table(form11, x_max - 1)
        step = _dfunc_run(outdir / "fig4_dfunctions.csv", seed, x_max)
    if want & {"1", "3"}:
        s1, s5, s_all = series.fold_series(seed, (cc(1, 8), cc(5, 8), cc.trivial()), n11)
    del seed  # fig2's fold runs without the table

    def bias_pair(fig, s1, s2):
        f1, f2 = (
            _series_step(outdir / f"fig{fig}_class{s.cls.residue}mod{s.cls.modulus}.csv", s)
            for s in (s1, s2)
        )
        count, _ = series.sign_changes(s1, s2)
        progress(
            f"fig{fig}: final F[{s1.cls}]={_fmt_opt(f1)} F[{s2.cls}]={_fmt_opt(f2)}; "
            f"{count} sign changes of the difference"
        )

    if "1" in want:
        bias_pair("1", s1, s5)
    if "2" in want:
        bias_pair("2", *series.fold_series(
            forms.empty_table(QuadraticForm(1, 1, 1)), (cc(1, 12), cc(7, 12)),
            max(int(100_000 * scale), 1000),
        ))
    if "3" in want:
        for ser in (s1, s5):
            final = _ratio_step(outdir / f"fig3_ratio{ser.cls.residue}mod8.csv", ser, s_all)
            progress(f"fig3: final R[{ser.cls}]={_fmt_opt(final)}")
    if step:
        f1, f2 = step.fractions()
        progress(f"fig4: negative fractions D1 {f1.negative:.4f}, D2 {f2.negative:.4f}")
    click.echo(str(outdir))


if __name__ == "__main__":
    main()
