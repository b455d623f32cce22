"""End-to-end checks of an installed ``fracergo`` command.

    python tests/installed_checks.py COMMAND...

COMMAND starts the program: a venv's ``fracergo`` console script, or
``python -m fracergo.cli``.  Each subcommand runs at a small size, and its
outputs are checked against what it promises; one run's CPU time is
checked against its wall time.  The script imports only the
standard library, and tests/ is not installed with the package, so a bare
venv with the declared dependencies alone can run it; there the runs fail
if ``src/`` imports from tests/ or from a test dependency.  The first
failed check exits non-zero and is named.
"""

from __future__ import annotations

import cmath
import json
import os
import subprocess
import sys
import tempfile
import time


def _family(*members) -> dict:
    """A family file's JSON, one member per list of (exponent, coefficient)."""
    return {"k": 0, "functions": [{"terms": [
        {"exponent": e, "coeff": [{"c": str(c), "powers": []}]} for e, c in terms]} for terms in members]}


def pell_family() -> dict:
    """b 2^(1/2) - a, about -2e-96, for the first Pell pair a^2 - 2 b^2 = 1
    with b >= 10^95: its floor is -1."""
    a, b = 3, 2
    while b < 10**95:
        a, b = 3 * a + 4 * b, 2 * a + 3 * b
    return _family([("1/2", b), ("0", -a)])


def _check(ok: bool, name: str) -> None:
    if not ok:
        sys.exit(f"installed check failed: {name}")
    print(f"ok: {name}")


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh) if path.endswith(".json") else fh.read()


def check_cpu_within_wall(command: list[str], args: list[str]) -> None:
    """One run's CPU time, from its own rusage, is at most 1.25 wall + 0.05 s.

    The program sets its own OPENBLAS_THREAD_TIMEOUT, so every OPENBLAS_*
    variable is removed from the run's environment.  Without the setting an
    idle OpenBLAS worker spins beside the one Python thread: about 1.6-1.9
    CPU seconds per wall second on 2 cores, against 1.0-1.07 with it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    t0 = time.perf_counter()
    proc = subprocess.Popen([*command, *args], env=env, stdout=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _check(proc.returncode == 0, f"{args[0]} exits 0")
    cpu = ru.ru_utime + ru.ru_stime
    _check(cpu <= 1.25 * wall + 0.05, f"{args[0]} CPU {cpu:.3f} s <= 1.25 x wall {wall:.3f} s + 0.05 s")


def rotation_arcs_args(workdir: str) -> list[str]:
    """A jointavg run whose contraction is a GEMM: two iterates, each with
    a 40-term arc (81 frequencies)."""
    fam, fn = os.path.join(workdir, "pair.json"), os.path.join(workdir, "arcs.json")
    arc = {"kind": "arc", "beta": 0.3, "n_terms": 40}
    for name, data in [(fam, _family([("3/2", 1)], [("1/2", 1)])), (fn, {"functions": [arc, arc]})]:
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return ["jointavg", "--system", "rotation", "--family", fam, "--functions", fn, "--N", "1000,10000",
            "--out", os.path.join(workdir, "arcs")]


def main(command: list[str], workdir: str) -> None:
    def run(*args: str) -> None:
        _check(subprocess.run([*command, *args]).returncode == 0, f"{args[0]} exits 0")

    def path(*parts: str) -> str:
        return os.path.join(workdir, *parts)

    pell, fam, out, cert = path("pell.json"), path("fam.json"), path("six"), path("cert")
    for name, data in [(pell, pell_family()), (fam, _family([("3/2", 1)]))]:
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    # The floor of the Pell value is -1, so the one row is e(-1/3).
    run("equidist", "--family", pell, "--mode", "primes", "--N", "1", "--t", "1/3", "--out", path("pell"))
    n, re_, im = _read(path("pell", "equidist.csv")).split()[1].split(",")
    z = complex(float(re_), float(im))
    _check(n == "1" and abs(z - cmath.exp(-2j * cmath.pi / 3)) <= 1e-12, "Pell floor")

    run("jointavg", "--system", "rotation", "--family", fam, "--mode", "primes", "--N", "100,1000", "--out", out)
    run("recurrence", "--system", "cyclic:5", "--family", fam, "--mode", "primes", "--N", "100,1000", "--out", out)
    run("seminorm", "--system", "skew", "--s", "2,3", "--N", "20,20", "--out", out)
    # The default skew observable e(y) has closed forms: 20^(-1/4) at degree
    # 2 and 1 at degree 3.  Each is a few dozen float operations and sums
    # of 20 terms, about 1e-14 at most; 1e-12 leaves room and still fails
    # on any wrong term.
    rows = [line.split(",") for line in _read(os.path.join(out, "seminorm.csv")).split()[1:]]
    values = {int(s): float(v) for s, v in rows}
    _check(values.keys() == {2, 3} and abs(values[2] - 20 ** -0.25) <= 1e-12 and abs(values[3] - 1.0) <= 1e-12,
           "skew seminorm closed forms")
    # The GEMM's idle OpenBLAS worker sleeps instead of spinning.
    check_cpu_within_wall(command, rotation_arcs_args(workdir))
    run("pet", "--family", fam, "--out", out)
    run("sieve", "--shifts", "0,2", "--N", "100,1000", "--cutoff", "1000", "--cache", path("tuples.bin"), "--out", out)

    # The tuple counts and the singular series read one table, sieved
    # through the cache up to at least the cutoff.
    limit = _read(os.path.join(out, "sieve.json"))["metadata"]["limit"]
    with open(path("tuples.bin"), "rb") as fh:
        cached = int.from_bytes(fh.read(16)[8:], "little")
    _check(limit >= 1000 and cached >= limit, "sieve table against its cache")

    # On Z/m the jointavg certificate is the exact seminorm, also past the
    # torus recursion's degree 3.
    for s in (2, 4):
        run("jointavg", "--system", "cyclic:3", "--family", fam, "--cert-degree", str(s), "--out", cert)
        run("seminorm", "--system", "cyclic:3", "--s", str(s), "--out", cert)
        value = _read(os.path.join(cert, "jointavg.json"))["metadata"]["seminorm_value"]
        (degree, seminorm), = _read(os.path.join(cert, "seminorm.json"))["series"]
        _check(degree == s and abs(value - seminorm) <= 1e-12, f"Z/m certificate against seminorm at degree {s}")

    # cli.main writes every output: each sidecar names its subcommand and
    # repeats its CSV rows.
    for stem in [path("pell", "equidist"), *(os.path.join(out, c) for c in
                                              ("jointavg", "recurrence", "seminorm", "pet", "sieve"))]:
        side = _read(stem + ".json")
        rows = [[json.loads(x) for x in line.split(",")] for line in _read(stem + ".csv").split()[1:]]
        _check(side["subcommand"] == os.path.basename(stem) and side["series"] == rows,
               f"{os.path.basename(stem)} sidecar against its CSV")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        main(sys.argv[1:], tmp)
