"""Desk-scale experiments around multiple ergodic averages taken along
integer parts of fractional-power sequences, at integers and at primes.

The package splits into symbolic machinery (``fracpoly``: functions with
real exponents and shift parameters, the degree-lowering induction),
arithmetic support (``primes``: sieve, von Mangoldt weights, tuple
counts, singular series), three concrete systems with closed-form
iteration (``systems``), seminorm estimators (``seminorms``), the
averaging experiments themselves (``averages``), and a command line
front end (``cli``).  Every part is run by the command line; the paper's
checks that only the tests run (tuple bounds, star tuples, the finitary
van der Corput inequality) live with the tests.
"""

from .fracpoly import (
    Family,
    PetError,
    RealExpPoly,
    TypeVector,
    pet_reduce,
    rexp_poly,
)
from .primes import PrimeTable, sieve, singular_series
from .systems import Cyclic, Rotation, Skew, fejer_arc, fourier_e, indicator
from .seminorms import gowers_norm_cyclic, hk_seminorm_estimate
from .averages import (
    IterateSpec,
    Unweighted,
    VonMangoldt,
    DeltaVonMangoldt,
    multi_average,
    recurrence_profile,
    weyl_sum,
)

__version__ = "0.1.0"
