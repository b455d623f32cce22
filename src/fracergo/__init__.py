"""Desk-scale experiments around multiple ergodic averages taken along
integer parts of fractional-power sequences, at integers and at primes.

The package splits into symbolic machinery (``fracpoly``: functions with
real exponents and shift parameters, the degree-lowering induction),
arithmetic support (``primes``: sieve, von Mangoldt weights, tuple
counts, singular series), three concrete systems with closed-form
iteration (``systems``), seminorm estimators (``seminorms``), the
averaging experiments themselves (``averages``), and a command line
front end (``cli``).  Import each name from its submodule; the package
root holds only ``__version__``.  Every part is run by the command line;
the paper's checks that only the tests run (tuple bounds, star tuples,
the finitary van der Corput inequality) live with the tests.
"""

__version__ = "0.1.0"
