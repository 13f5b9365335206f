"""qfbias: primes represented by binary quadratic forms, their bias series,
counting differences, angle equidistribution statistics, and limit values.

Each layer module is registered lazily: `qfbias.primes` and the others sit in
`sys.modules` from the start and execute, numpy with them, on the first
attribute read. The names below resolve through the same modules on use.
"""

import importlib.util
import os
import sys

# qfbias never calls BLAS; numpy's OpenBLAS would otherwise start one
# busy-waiting worker thread per extra core on import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_EXPORTS = {
    "counting": (
        "BiasFractions", "FieldSplitting", "NormResidueSubgroup", "a_coefficient",
        "d_functions", "density_check", "norm_residue_subgroup", "prime_ideal_count",
    ),
    "equidist": ("ks_statistic", "sector_counts", "weyl_sum"),
    "forms": ("RepTable", "empty_table", "representation_table"),
    "limits": ("beta", "integrate", "limit_ratio_moment", "limit_ratio_poly"),
    "polynomials": (
        "BivariatePolynomial", "PolynomialSyntaxError", "leading_homogeneous_part",
        "parse_polynomial",
    ),
    "primes": ("CongruenceClass", "sieve_range"),
    "qform": ("QuadraticForm",),
    "series": ("BiasSeries", "bias_series", "fold_series", "ratio_series", "sign_changes"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

for _layer in ("arith", "cache", "counting", "csvtext", "equidist", "forms", "limits",
               "polynomials", "primes", "series"):
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_layer] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _layer, _spec


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
