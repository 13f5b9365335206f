"""qfbias: primes represented by binary quadratic forms, their bias series,
counting differences, angle equidistribution statistics, and limit values."""

import os

# qfbias never calls BLAS; numpy's OpenBLAS would otherwise start one
# busy-waiting worker thread per extra core on import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .counting import (
    BiasFractions,
    CountSeries,
    DensityReport,
    FieldSplitting,
    NormResidueSubgroup,
    a_coefficient,
    d_functions,
    density_check,
    negative_bias_fraction,
    norm_residue_subgroup,
    prime_ideal_count,
    splitting_type,
)
from .equidist import (
    ks_statistic,
    sample_angles,
    sector_counts,
    weyl_sum,
)
from .forms import (
    QuadraticForm,
    Representation,
    RepTable,
    brute_force_representations,
    canonical_pairs,
    cornacchia,
    ensure_table,
    representation_table,
    sqrt_mod,
)
from .limits import (
    LimitProblem,
    beta,
    integrand_s,
    integrand_t,
    integrate,
    limit_ratio_moment,
    limit_ratio_poly,
)
from .polynomials import (
    BivariatePolynomial,
    PolynomialSyntaxError,
    leading_homogeneous_part,
    parse_polynomial,
)
from .primes import CongruenceClass, PrimeStream, nth_prime, primes_in_class, sieve_range
from .series import (
    BiasSeries,
    MomentSums,
    bias_series,
    moment_sum,
    poly_sum,
    ratio_series,
    series_limit,
    sign_changes,
)

__version__ = "0.1.0"
