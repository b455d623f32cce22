"""The benchmark's workloads: fixed sequences of ``fracergo`` CLI calls.

A workload is built from a seed.  The seed picks *values* only (the
frequencies ``t``, the rotation angle alpha, arc lengths, Fourier
amplitudes, cyclic points and prime-tuple shifts); sizes, exponents,
truncation schedules and the PET family never depend on it, so every
seed does the same amount of work.  ``work_signature`` spells that out
and ``run.py`` compares it with the copy stored in ``references.json``.

Seeds are folded onto ``POOL`` value sets so that reference outputs can
be stored for every value set the benchmark can generate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

POOL = 16

WORKLOADS = ("weyl-primes", "joint-torus", "exact-kernels")

# F2 is the README pair {t^(3/2), t^(3/2) + t^(11/10)}; the PET workload
# adds t^(3/2) + t^(11/10) + t^(6/5), which reduces in 11 steps and peaks
# at 2047 members.
F2 = [{"3/2": "1/1"}, {"3/2": "1/1", "11/10": "1/1"}]
F3 = F2 + [{"3/2": "1/1", "11/10": "1/1", "6/5": "1/1"}]


@dataclass(frozen=True)
class Step:
    """One CLI invocation.  ``argv`` holds the subcommand and its flags;
    ``run.py`` appends ``--out`` (a directory of the step's own)."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int
    values: dict
    files: dict  # input file name -> JSON payload
    warm_caches: dict  # cache file name -> sieve limit warmed during set-up
    fresh_caches: tuple  # cache files removed before every pass
    steps: tuple


def _family_json(members) -> dict:
    return {
        "k": 0,
        "functions": [
            {
                "terms": [
                    {"exponent": e, "coeff": [{"c": c, "powers": []}]}
                    for e, c in sorted(m.items(), key=lambda kv: -Fraction(kv[0]))
                ]
            }
            for m in members
        ],
    }


def _non_dyadic(rng: random.Random) -> str:
    q = rng.choice([3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31])
    a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
    return f"{a}/{q}"


def _alpha(rng: random.Random) -> float:
    # Fractional parts of square roots of non-squares: irrational-looking
    # angles bounded away from 0 and 1.
    while True:
        k = rng.randrange(2, 500)
        a = math.sqrt(k) % 1.0
        if math.isqrt(k) ** 2 != k and 0.05 < a < 0.95:
            return a


def _amplitude(rng: random.Random) -> tuple[float, float]:
    r = rng.uniform(0.5, 1.0)
    th = rng.uniform(0.0, 2.0 * math.pi)
    return r * math.cos(th), r * math.sin(th)


def _admissible_shifts(rng: random.Random) -> list[int]:
    # Four even shifts from 0 to 30 (the largest shift fixes the sieve
    # limit, hence the work) that miss a residue class mod 3; mod 2 they
    # are all even and mod p >= 5 four values cannot cover, so the tuple
    # count and the singular series are both non-trivial.
    while True:
        hs = [0] + sorted(rng.sample(range(2, 30, 2), 2)) + [30]
        if len({h % 3 for h in hs}) < 3:
            return hs


def seed_values(seed: int) -> dict:
    pool = seed % POOL
    rng = random.Random(f"fracergo-perfbench-{pool}")
    return {
        "t": [_non_dyadic(rng), _non_dyadic(rng)],
        "alpha_rotation": _alpha(rng),
        "alpha_skew": _alpha(rng),
        "beta_joint": [round(rng.uniform(0.2, 0.4), 6), round(rng.uniform(0.2, 0.4), 6)],
        "beta_recurrence": round(rng.uniform(0.2, 0.4), 6),
        "beta_seminorm": round(rng.uniform(0.2, 0.4), 6),
        "amp_joint_skew": [_amplitude(rng), _amplitude(rng)],
        "amp_seminorm_skew": _amplitude(rng),
        "cyclic_points": sorted(rng.sample(range(40), 5)),
        "shifts": _admissible_shifts(rng),
    }


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _fourier_e_y(amp) -> dict:
    return {"kind": "fourier", "terms": [{"freq": [0, 1], "re": amp[0], "im": amp[1]}]}


def build(name: str, seed: int, work_dir: str) -> Workload:
    """The workload ``name`` for ``seed``, with every path under ``work_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    # The sieve limit the CLI itself asks for in primes mode, so that a
    # cache warmed at it is read, never re-sieved.
    from fracergo.cli import _nth_prime_bound

    v = seed_values(seed)
    inp = lambda f: os.path.join(work_dir, "inputs", f)  # noqa: E731
    cache = lambda f: os.path.join(work_dir, "cache", f)  # noqa: E731
    files = {"f2.json": _family_json(F2)}
    warm: dict = {}
    fresh: tuple = ()
    if name == "weyl-primes":
        warm = {"primes.bin": _nth_prime_bound(10**6)}
        steps = [
            Step("equidist", (
                "equidist", "--mode", "primes", "--family", inp("f2.json"),
                "--t", _csv(v["t"]), "--N", "10000,100000,1000000", "--cache", cache("primes.bin"),
            )),
        ]
    elif name == "joint-torus":
        warm = {"primes.bin": _nth_prime_bound(10**5)}
        files["arcs.json"] = {
            "functions": [{"kind": "arc", "beta": b, "n_terms": 40} for b in v["beta_joint"]]
        }
        files["skew.json"] = {"functions": [_fourier_e_y(a) for a in v["amp_joint_skew"]]}
        rot = f"rotation:{v['alpha_rotation']!r}"
        steps = [
            Step("jointavg-rotation", (
                "jointavg", "--system", rot, "--mode", "integers", "--family", inp("f2.json"),
                "--functions", inp("arcs.json"), "--N", "1000,10000",
            )),
            Step("jointavg-skew", (
                "jointavg", "--system", f"skew:{v['alpha_skew']!r}", "--mode", "primes",
                "--weight", "lambda", "--family", inp("f2.json"), "--functions", inp("skew.json"),
                "--N", "10000,100000", "--cache", cache("primes.bin"),
            )),
            Step("recurrence-rotation", (
                "recurrence", "--system", rot, "--mode", "primes", "--family", inp("f2.json"),
                "--g", f"arc:{v['beta_recurrence']!r}:40", "--N", "10000,100000",
                "--cache", cache("primes.bin"),
            )),
        ]
    else:
        files["f3.json"] = _family_json(F3)
        files["arc10.json"] = {"functions": [{"kind": "arc", "beta": v["beta_seminorm"], "n_terms": 10}]}
        files["skew1.json"] = {"functions": [_fourier_e_y(v["amp_seminorm_skew"])]}
        files["points.json"] = {"functions": [{"kind": "indicator", "points": v["cyclic_points"]}]}
        fresh = ("tuples.bin",)
        steps = [
            Step("seminorm-rotation", (
                "seminorm", "--system", f"rotation:{v['alpha_rotation']!r}",
                "--functions", inp("arc10.json"), "--s", "2,3", "--N", "40,40",
            )),
            Step("seminorm-skew", (
                "seminorm", "--system", f"skew:{v['alpha_skew']!r}", "--functions", inp("skew1.json"),
                "--s", "2,3", "--N", "200,200",
            )),
            Step("seminorm-cyclic", (
                "seminorm", "--system", "cyclic:40", "--functions", inp("points.json"), "--s", "1,2,3,4",
            )),
            Step("pet", ("pet", "--family", inp("f3.json"))),
            Step("sieve-tuples", (
                "sieve", "--shifts", _csv(v["shifts"]), "--N", "100000,1000000,10000000",
                "--cutoff", "1000000", "--cache", cache("tuples.bin"),
            )),
            Step("sieve-limit", ("sieve", "--limit", "30000000", "--cache", cache("tuples.bin"))),
        ]
    return Workload(name, seed % POOL, v, files, warm, fresh, tuple(steps))


def write_inputs(w: Workload, work_dir: str) -> None:
    for sub in ("inputs", "cache", "out"):
        os.makedirs(os.path.join(work_dir, sub), exist_ok=True)
    for fname, payload in w.files.items():
        with open(os.path.join(work_dir, "inputs", fname), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


def work_signature(w: Workload) -> list:
    """Everything that sets the amount of work, with the seeded values
    left out: per step the subcommand, the size flags, the system kind,
    and the shape of every input file (term counts, point counts, the
    exact family).  Equal signatures mean equal work."""
    sig = []
    for step in w.steps:
        a = step.argv
        entry = {"step": step.name, "cmd": a[0]}
        for flag, val in zip(a[1:], a[2:]):
            if flag in ("--mode", "--weight", "--N", "--s", "--limit", "--cutoff"):
                entry[flag] = val
            elif flag == "--system":
                entry[flag] = val if val.startswith("cyclic") else val.split(":")[0]
            elif flag == "--shifts":
                entry[flag] = len(val.split(","))
            elif flag == "--g":
                entry[flag] = val.split(":")[0] + ":" + val.split(":")[-1]
            elif flag in ("--family", "--functions"):
                entry[flag] = _file_shape(w.files[os.path.basename(val)])
        sig.append(entry)
    sig.append({"warm_caches": w.warm_caches, "fresh_caches": list(w.fresh_caches)})
    return json.loads(json.dumps(sig))


def _file_shape(payload: dict):
    if "k" in payload:  # a family: exponents and coefficients are the work
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    shape = []
    for f in payload["functions"]:
        kind = f.get("kind", "fourier")
        if kind == "arc":
            shape.append(["arc", f["n_terms"]])
        elif kind == "indicator":
            shape.append(["indicator", len(f["points"])])
        else:
            shape.append([kind, [t["freq"] for t in f.get("terms", [])]])
    return shape
