"""Certified bounds on the minimum positive gap between signed sums of
square roots of small integers and the nearest integer.

The library is exact end to end: arbitrary-precision integers and
rationals, outward-rounded dyadic intervals for every real quantity, an
all-integer LLL with block enumeration on top, and lower-bound
certificates whose threshold comparison is an exact rational decision.
"""

from .exactnum import (
    Enclosure,
    PrecisionExhausted,
    RadicalSum,
    abs_at_most,
    certify_sign,
    compare_abs,
    dyadic_decimal,
    enclose_radical_sum,
)
from .squarefree import (
    is_squarefree,
    nth_squarefree,
    prime_count,
    squarefree_decompose,
    squarefree_upto,
)
from .lattice import (
    DependentRowsError,
    GramSchmidtProfile,
    LatticeBasis,
    ShortestVector,
    build_basis,
    determinant,
    enumerate_shortest,
    gram_schmidt,
    scaled_nearest_sqrt,
)
from .reduction import (
    ReducedBasis,
    ReductionError,
    bkz,
    lll,
    reduced_profile,
)
from .bounds import (
    LowerBoundCertificate,
    NoCertificateError,
    QianWangInstance,
    RatioCell,
    Threshold,
    UpperBoundWitness,
    certification_threshold,
    certify_lower_bound,
    find_lower_bound,
    qian_wang_instance,
    ratio_scan,
    root_separation_log10,
    row_witness,
    upper_bound_from_reduction,
)
from .oracle import BruteForceResult, brute_force

__version__ = "0.1.0"
