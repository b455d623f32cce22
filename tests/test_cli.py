import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracergo
import installed_checks
from fracergo import averages, fracpoly, primes, systems
from fracergo.cli import _build_function, main
from fracergo.fracpoly import Family, family_from_json, family_to_json, rexp_poly
from fracergo.primes import count_prime_tuples, load_table, sieve


def write_family(path, exponent_maps):
    fam = Family(tuple(rexp_poly(0, m) for m in exponent_maps))
    path.write_text(json.dumps(family_to_json(fam)))
    return str(path)


def write_functions(path, descriptors):
    path.write_text(json.dumps({"functions": descriptors}))
    return str(path)


def read_rows(out_dir, name):
    lines = (out_dir / f"{name}.csv").read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def read_sidecar(out_dir, name):
    return json.loads((out_dir / f"{name}.json").read_text())


def test_importing_the_cli_leaves_mpmath_unloaded(pell_pair):
    # mpmath is a test dependency only: nothing imports it, and exact floors
    # work with it blocked.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracergo.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, fracergo.cli; print(sorted(m for m in sys.modules if m.startswith('mpmath')))"
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
    a, b = pell_pair
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from fractions import Fraction as F\n"
        "from fracergo.averages import IterateSpec, iterate_value\n"
        "from fracergo.fracpoly import rexp_poly\n"
        # 2^(3/2) + 2^(11/10) = 2.828... + 2.143... in two radical groups
        "print(iterate_value(IterateSpec(rexp_poly(0, {F(3, 2): 1, F(11, 10): 1})), 2))\n"
        f"print(iterate_value(IterateSpec(rexp_poly(0, {{F(1, 2): {b}, 0: -{a}}})), 2))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["4", "-1"]


@pytest.mark.parametrize("preset", [None, "28"])
def test_the_cli_sets_the_openblas_timeout_before_numpy_loads(preset):
    # OpenBLAS reads the variable once, when numpy first loads it; a hook
    # records it there.  A value already set wins.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracergo.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    code = (
        "import os, sys\n"
        "seen = []\n"
        "class Hook:\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'numpy':\n"
        "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        "sys.meta_path.insert(0, Hook())\n"
        "import fracergo.cli\n"
        "print(seen, 'numpy' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == f"[{preset or '4'!r}] True"


def test_a_cli_run_keeps_its_cpu_time_near_its_wall_time(tmp_path, monkeypatch):
    # Without the timeout an idle OpenBLAS worker spins on the second core:
    # these runs read 1.6-1.9 CPU seconds per wall second on 2 vCPUs.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracergo.__file__)))
    monkeypatch.setenv("PYTHONPATH", src)
    command = [sys.executable, "-m", "fracergo.cli"]
    installed_checks.check_cpu_within_wall(command, ["sieve", "--limit", "100", "--out", str(tmp_path)])
    installed_checks.check_cpu_within_wall(command, installed_checks.rotation_arcs_args(str(tmp_path)))


def test_installed_checks_pass_through_the_module(tmp_path, monkeypatch):
    # CI runs the same script through a bare venv's console script
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracergo.__file__)))
    monkeypatch.setenv("PYTHONPATH", src)
    installed_checks.main([sys.executable, "-m", "fracergo.cli"], str(tmp_path))


# ---------------------------------------------------------------------------
# pet

def test_pet_trace_outputs(tmp_path, capsys):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main(["pet", "--family", fam, "--out", str(tmp_path)])
    assert rc == 0
    assert "step 1" in capsys.readouterr().out
    header, rows = read_rows(tmp_path, "pet")
    assert header == "N,value"
    assert rows == [["0", "1"], ["1", "1"]]
    side = read_sidecar(tmp_path, "pet")
    assert side["schema_version"] == 2
    assert side["checks"] == [{"name": "type_descent", "passed": True}]
    assert len(side["metadata"]["trace"]["steps"]) == 1


def test_pet_trivial_family(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(1, 2): 1}, {F(1, 10): 1}])
    rc = main(["pet", "--family", fam, "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path, "pet")
    assert rows == [["0", "2"]]


def test_pet_refuses_a_reduction_past_the_family_budget(tmp_path, capsys, monkeypatch):
    # {t^(5/2), t^(3/2)} about doubles its family at every step; a lowered
    # budget stops it at step 8 instead of at 10^4 members
    monkeypatch.setattr(fracpoly, "FAMILY_BUDGET", 100)
    fam = write_family(tmp_path / "fam.json", [{F(5, 2): 1}, {F(3, 2): 1}])
    assert main(["pet", "--family", fam, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: step 8 could build 172 members, past the family budget of 100; "
        "the type reached is (1,5,6)\n"
    )
    assert not (tmp_path / "out" / "pet.json").exists()


def test_an_error_without_text_prints_its_name(tmp_path, capsys, monkeypatch):
    def out_of_memory(fam):
        raise MemoryError()

    monkeypatch.setattr(fracpoly, "pet_reduce", out_of_memory)
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    assert main(["pet", "--family", fam, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


# ---------------------------------------------------------------------------
# equidist

def test_equidist_quadratic_quarter(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{2: 1}])
    rc = main([
        "equidist", "--family", fam, "--t", "1/4",
        "--N", "128,10000", "--out", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_rows(tmp_path, "equidist")
    assert header == "N,value_re,value_im"
    z = complex(float(rows[-1][1]), float(rows[-1][2]))
    assert abs(z) == pytest.approx(2**-0.5, abs=1e-12)
    side = read_sidecar(tmp_path, "equidist")
    assert side["checks"][0] == {"name": "modulus_bound", "passed": True}
    assert side["metadata"]["moduli"][-1] == pytest.approx(2**-0.5, abs=1e-12)


def test_equidist_floored_integer_frequency_is_flat(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main(["equidist", "--family", fam, "--N", "200", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path, "equidist")
    assert rows == [["200", "1.0", "0.0"]]


def test_equidist_floors_the_pell_value_exactly(tmp_path, pell_pair):
    # The first prime is 2, where b t^(1/2) - a is about -2e-96: floor -1,
    # so the one term is e(-1/3).
    a, b = pell_pair
    fam = write_family(tmp_path / "fam.json", [{F(1, 2): b, 0: -a}])
    rc = main([
        "equidist", "--family", fam, "--mode", "primes", "--N", "1", "--t", "1/3",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_rows(tmp_path, "equidist")
    z = complex(float(rows[0][1]), float(rows[0][2]))
    assert rows[0][0] == "1"
    assert z == pytest.approx(systems.e(-1 / 3), abs=1e-12)


def test_equidist_no_floor_decays(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main([
        "equidist", "--family", fam, "--no-floor",
        "--N", "200", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_rows(tmp_path, "equidist")
    z = complex(float(rows[0][1]), float(rows[0][2]))
    assert abs(z) < 0.2


def test_equidist_primes_mode(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(1, 2): 1}])
    rc = main([
        "equidist", "--family", fam, "--mode", "primes", "--t", "0.37",
        "--N", "50,100", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_rows(tmp_path, "equidist")
    assert [r[0] for r in rows] == ["50", "100"]


# ---------------------------------------------------------------------------
# jointavg

def test_jointavg_cyclic_prime_squares(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{2: 1}])
    fn = write_functions(
        tmp_path / "fn.json",
        [{"kind": "cyclic", "values": [[1, 0], [0, 1], [-1, 0], [0, -1]]}],
    )
    rc = main([
        "jointavg", "--system", "cyclic:4", "--family", fam, "--functions", fn,
        "--mode", "primes", "--N", "200,400", "--out", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_rows(tmp_path, "jointavg")
    assert header == "N,value"
    side = read_sidecar(tmp_path, "jointavg")
    assert side["metadata"]["weight"] == "none"
    assert side["metadata"]["benchmark_re"] == pytest.approx(0.0)
    # odd prime squares are 1 mod 4, so the character average locks onto
    # a rotated copy of the function instead of washing out
    assert float(rows[-1][1]) > 0.9


def test_jointavg_delta_weight(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(1, 2): 1}])
    rc = main([
        "jointavg", "--system", "cyclic:3", "--family", fam,
        "--weight", "delta:2", "--N", "100,200", "--out", str(tmp_path),
    ])
    assert rc == 0
    side = read_sidecar(tmp_path, "jointavg")
    assert side["metadata"]["weight"] == "delta:2"
    assert side["metadata"]["benchmark_re"] == 0.0


def test_jointavg_certificate_run(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main([
        "jointavg", "--system", "skew", "--family", fam,
        "--cert-degree", "2", "--N", "100,200", "--out", str(tmp_path),
    ])
    assert rc == 0
    side = read_sidecar(tmp_path, "jointavg")
    assert side["metadata"]["kind"] == "prime_weighted_norms"
    assert side["metadata"]["seminorm_value"] == pytest.approx(0.001**0.25)
    assert side["metadata"]["seminorm_schedule"] == [1000]


def test_jointavg_cyclic_certificate_refuses_degree_3_past_modulus_10_to_the_4(tmp_path, capsys):
    # the exact Z/m certificate takes m^(s-1) <= 10^8
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    cache = tmp_path / "c.bin"
    assert main(["jointavg", "--system", "cyclic:10001", "--family", fam, "--cert-degree", "3",
                 "--N", "10,20", "--cache", str(cache), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: degree 3 on modulus 10001 is out of budget\n"
    assert not (tmp_path / "jointavg.csv").exists()
    assert not cache.exists()


_ONE_MEMBER = [{F(3, 2): 1}]
_FOURIER = {"kind": "fourier", "terms": [{"freq": [0, 1], "re": 1.0}]}
_SHIFTED = {"k": 1, "functions": [{"terms": [{"exponent": "3/2", "coeff": [{"c": "1", "powers": [1]}]}]}]}


def _refusal(case_id, command, flags, message, members=_ONE_MEMBER, functions=None):
    """One refused run: the subcommand, its flags, the family (exponent maps,
    a family file's JSON, or None for sieve) and the --functions descriptors."""
    return pytest.param(command, flags, members, functions, message, id=case_id)


def _certificate(i, system, members, degree, N, functions, message):
    """A refused jointavg --cert-degree run with `functions` copies of one
    observable.  Its id, system-members<i>-degree-N-functions-message, is
    the one pytest derives from these values as plain parameters, so that
    the first six cases keep theirs."""
    flags = ["--system", system, "--cert-degree", degree, "--N", N]
    return _refusal(f"{system}-members{i}-{degree}-{N}-{functions}-{message}", "jointavg", flags, message,
                    members, None if functions is None else [_FOURIER] * functions)


def _bad_field(case_id, system, desc, message):
    if "kind" not in desc:
        desc = {"kind": "fourier", "terms": [desc]}
    return _refusal(case_id, "jointavg", ["--system", system, "--mode", "primes", "--N", "10"], message,
                    functions=[desc])


_DEGREES = "estimates take degrees s = 1..3, got {} (term growth is squared per level)"
_CERT_FLAGS = "--cert-degree runs over the integers with the lambda weight; drop --mode primes and --weight delta:..."
_SKEW_SET = ("recurrence refuses every --g on the skew product: "
             "indicator sets live on Z/m and arc functions live on the rotation")
_PLAIN_SIEVE = "--N and --cutoff need --shifts: a plain sieve only counts the primes up to --limit"
_SIEVE_LIMIT = "--limit is for a plain sieve: with --shifts the table covers max N + max shift and --cutoff"

# Every argument refusal of the subcommands that sieve.  The runs with
# --mode primes (or a Lambda weight) would sieve and cache a table if the
# refusal came after it.
_REFUSALS = [
    _certificate(0, "rotation", [{F(3, 2): 1}], "7", "1000,100000", None, _DEGREES.format(7)),
    _certificate(1, "cyclic:20000", [{F(3, 2): 1}], "3", "1000,100000", None,
                 "degree 3 on modulus 20000 is out of budget"),
    _certificate(2, "cyclic:3", [{F(3, 2): 1}], "0", "10,20", None, "degree must be at least 1"),
    _certificate(3, "skew", [{F(3, 2): 1}, {F(3, 2): 1}], "2", "10,20", None, "the iterate family must be nice"),
    _certificate(4, "skew", [{F(5, 2): 1}, {F(3, 2): 1}, {F(3, 2): 1}], "2", "10,20", None,
                 "family members must be pairwise distinct"),
    _certificate(5, "skew", [{F(5, 2): 1}, {F(3, 2): 1}], "2", "10,20", 3, "need 2 observables, file has 3"),
    _refusal("jointavg-cyclic-degree-3-budget", "jointavg",
             ["--system", "cyclic:10001", "--cert-degree", "3", "--N", "10,20"],
             "degree 3 on modulus 10001 is out of budget"),
    _refusal("jointavg-skew-degree-0", "jointavg", ["--system", "skew", "--cert-degree", "0", "--N", "10"],
             _DEGREES.format(0)),
    _refusal("jointavg-certificate-primes", "jointavg",
             ["--system", "skew", "--cert-degree", "2", "--N", "100", "--mode", "primes"], _CERT_FLAGS),
    _refusal("jointavg-certificate-delta", "jointavg",
             ["--system", "skew", "--cert-degree", "2", "--N", "100", "--weight", "delta:2"], _CERT_FLAGS),
    _refusal("jointavg-unknown-system", "jointavg", ["--system", "galois:7", "--mode", "primes", "--N", "10"],
             "unknown system 'galois:7'"),
    _refusal("jointavg-infinite-angle", "jointavg",
             ["--system", "rotation:inf", "--mode", "primes", "--N", "10"], "rotation angle must be finite, got 'inf'"),
    _refusal("jointavg-weight-bounded", "jointavg", ["--system", "cyclic:3", "--weight", "bounded", "--N", "10"],
             "unknown weight 'bounded'"),
    _refusal("jointavg-weight-empty-delta", "jointavg", ["--system", "cyclic:3", "--weight", "delta:", "--N", "10"],
             "unknown weight 'delta:'"),
    _refusal("jointavg-weight-delta-x", "jointavg", ["--system", "cyclic:3", "--weight", "delta:x", "--N", "10"],
             "invalid literal for int() with base 10: 'x'"),
    _refusal("jointavg-weight-negative-cube", "jointavg",
             ["--system", "cyclic:3", "--weight", "delta:3,-1", "--N", "10"], "cube offsets must be non-negative"),
    _refusal("jointavg-primes-N-0", "jointavg", ["--system", "rotation", "--mode", "primes", "--N", "0"],
             "empty average"),
    _refusal("jointavg-observable-count", "jointavg", ["--system", "rotation", "--mode", "primes", "--N", "10"],
             "need 3 observables, file has 2", [{F(3, 2): 1}, {F(5, 4): 1}, {F(9, 8): 1}], [{"kind": "constant"}] * 2),
    _refusal("jointavg-shift-parameters", "jointavg", ["--system", "rotation", "--mode", "primes", "--N", "10"],
             "iterate functions take no shift parameters", _SHIFTED),
    _bad_field("fourier-string-re", "rotation", {"freq": [1], "re": "a"}, "field 're': expected a number, got 'a'"),
    _bad_field("fourier-missing-re", "rotation", {"freq": [1], "im": 0.5}, "missing field 're'"),
    _bad_field("fourier-null-freq", "skew", {"freq": [0, None], "re": 1.0},
               "field 'freq': 'NoneType' object cannot be interpreted as an integer"),
    _bad_field("arc-string-beta", "rotation", {"kind": "arc", "beta": "0.3"},
               "field 'beta': expected a number, got '0.3'"),
    _bad_field("cyclic-bad-values", "cyclic:2", {"kind": "cyclic", "values": [[1, 0], "x"]},
               "field 'values': not enough values to unpack (expected 2, got 1)"),
    _bad_field("fourier-bool-freq", "skew", {"freq": [True, 0], "re": 1.0}, "field 'freq': expected an integer, got True"),
    _bad_field("arc-bool-order", "rotation", {"kind": "arc", "beta": 0.3, "n_terms": True},
               "field 'n_terms': expected an integer, got True"),
    _bad_field("indicator-bool-points", "cyclic:5", {"kind": "indicator", "points": [True]},
               "field 'points': expected an integer, got True"),
    _refusal("equidist-decreasing-N", "equidist", ["--mode", "primes", "--N", "100,50"],
             "--N must be strictly increasing"),
    _refusal("equidist-frequency-count", "equidist", ["--mode", "primes", "--t", "1/3", "--N", "10"],
             "need one frequency per family member", [{F(3, 2): 1}, {F(5, 4): 1}]),
    _refusal("equidist-shift-parameters", "equidist", ["--mode", "primes", "--N", "10"],
             "iterate functions take no shift parameters", _SHIFTED),
    _refusal("equidist-primes-N-0", "equidist", ["--mode", "primes", "--N", "0"], "empty average"),
    *(_refusal(f"recurrence-{system}-N={lengths}", "recurrence",
               ["--system", system, "--mode", "primes", f"--N={lengths}"], "empty average")
      for system in ["rotation", "cyclic:5"] for lengths in ["0", "0,10", "-3"]),
    _refusal("recurrence-mismatched-set", "recurrence",
             ["--system", "rotation", "--g", "indicator:0", "--mode", "primes", "--N", "100"],
             "function kind 'indicator' does not fit this system"),
    _refusal("recurrence-skew-without-set", "recurrence", ["--system", "skew", "--mode", "primes", "--N", "10"],
             _SKEW_SET),
    *(_refusal(f"recurrence-set-{g}-{system}", "recurrence",
               ["--system", system, "--g", g, "--mode", "primes", "--N", "10"], message)
      for g, system, message in [
          ("arc:abc", "rotation", "could not convert string to float: 'abc'"),
          ("indicator:1,x", "cyclic:5", "not a comma-separated integer list: '1,x'"),
          ("disc:0.3", "rotation", "sets are given as indicator:p1,p2,... or arc:beta[:n_terms]"),
          ("arc:0.3", "cyclic:5", "function kind 'arc' does not fit a cyclic system"),
          ("arc:0.3", "skew", _SKEW_SET),
      ]),
    _refusal("recurrence-infinite-angle", "recurrence", ["--system", "skew:-inf", "--mode", "primes", "--N", "10"],
             "skew angle must be finite, got '-inf'"),
    _refusal("recurrence-negative-arc-order", "recurrence",
             ["--system", "rotation", "--g", "arc:0.3:-5", "--mode", "primes", "--N", "10"],
             "arc order must be non-negative, got -5"),
    _refusal("sieve-plain-N", "sieve", ["--limit", "1000", "--N", "7"], _PLAIN_SIEVE, None),
    _refusal("sieve-plain-cutoff", "sieve", ["--limit", "1000", "--cutoff", "3"], _PLAIN_SIEVE, None),
    _refusal("sieve-negative-N", "sieve", ["--shifts", "0,2", "--N", "-5"], "counting length N must be >= 0, got -5", None),
    _refusal("sieve-decreasing-N", "sieve", ["--shifts", "0,2", "--N", "3,1"], "--N must be strictly increasing", None),
    _refusal("sieve-tuples-limit", "sieve", ["--shifts", "0,2", "--N", "100", "--cutoff", "1000", "--limit", "5000"],
             _SIEVE_LIMIT, None),
    _refusal("sieve-cutoff-below-two", "sieve", ["--shifts", "0", "--N", "1", "--cutoff", "1"],
             "cutoff 1 below the largest pairwise difference 0", None),
    _refusal("sieve-repeated-shift", "sieve", ["--shifts", "0,0", "--N", "10", "--cutoff", "100"],
             "shifts must be distinct", None),
]


@pytest.mark.parametrize("command, flags, members, functions, message", _REFUSALS)
def test_jointavg_certificate_refusals_come_before_any_sieve(
    tmp_path, capsys, monkeypatch, command, flags, members, functions, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("sieved, cached or iterated before the refusal")

    monkeypatch.setattr(primes, "sieve", refuse)
    monkeypatch.setattr(primes, "save_table", refuse)
    monkeypatch.setattr(averages, "iterate_values", refuse)
    cache, out = tmp_path / "c.bin", tmp_path / "out"
    argv = [command, *flags, "--cache", str(cache), "--out", str(out)]
    if isinstance(members, dict):
        (tmp_path / "fam.json").write_text(json.dumps(members))
        argv += ["--family", str(tmp_path / "fam.json")]
    elif members is not None:
        argv += ["--family", write_family(tmp_path / "fam.json", members)]
    if functions is not None:
        argv += ["--functions", write_functions(tmp_path / "fn.json", functions)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not cache.exists()
    assert not out.exists()


def test_jointavg_cyclic_certificate_is_the_seminorm_at_every_degree_in_budget(tmp_path):
    # degree 4 is past the torus recursion's s <= 3, but within m^(s-1) <= 10^8 on Z/3
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    assert main(["jointavg", "--system", "cyclic:3", "--family", fam, "--cert-degree", "4",
                 "--N", "10,20", "--out", str(tmp_path)]) == 0
    assert main(["seminorm", "--system", "cyclic:3", "--s", "4", "--out", str(tmp_path)]) == 0
    meta = read_sidecar(tmp_path, "jointavg")["metadata"]
    (degree, value), = read_sidecar(tmp_path, "seminorm")["series"]
    assert degree == 4
    assert meta["seminorm_value"] == value == pytest.approx(0.7094137599636066, rel=1e-12)
    assert meta["seminorm_schedule"] == [3, 3, 3]


def test_jointavg_certificate_names_the_lambda_weight(tmp_path):
    # the certificate run is lambda-weighted whatever --weight says
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    assert main(["jointavg", "--system", "rotation", "--family", fam, "--cert-degree", "2",
                 "--N", "50,100", "--out", str(tmp_path)]) == 0
    side = read_sidecar(tmp_path, "jointavg")
    assert side["config"]["weight"] == "none"
    assert side["metadata"]["weight"] == "lambda"


def test_jointavg_custom_functions(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    fn = write_functions(
        tmp_path / "fn.json",
        [{"kind": "fourier", "terms": [{"freq": [1], "re": 1.0}]}],
    )
    rc = main([
        "jointavg", "--system", "rotation", "--family", fam,
        "--functions", fn, "--N", "100,200", "--out", str(tmp_path),
    ])
    assert rc == 0


def test_jointavg_refuses_a_skew_average_past_the_row_budget(tmp_path, capsys, monkeypatch):
    # Two terms with k2 != 0 per observable: 4 combinations, a row per n
    # each, so N = 50 needs 200 rows.  A lowered budget stands in for the
    # 64 M rows of 8 terms at N = 10^6, which the kernel's OOM killer ended.
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}, {F(1, 2): 1}])
    two = {"kind": "fourier", "terms": [{"freq": [0, 1], "re": 1.0}, {"freq": [1, 2], "re": 0.5}]}
    fn = write_functions(tmp_path / "fn.json", [two, two])
    argv = ["jointavg", "--system", "skew", "--family", fam, "--functions", fn, "--N", "10,50"]
    monkeypatch.setattr(systems, "ROW_BUDGET", 199)
    assert main([*argv, "--out", str(tmp_path / "refused")]) == 1
    assert capsys.readouterr().err == (
        "error: the average merges 4 term combinations x N = 50: 200 rows, row budget is 199\n"
    )
    assert not (tmp_path / "refused").exists()
    monkeypatch.setattr(systems, "ROW_BUDGET", 200)
    assert main([*argv, "--out", str(tmp_path / "ran")]) == 0


# ---------------------------------------------------------------------------
# recurrence

def test_recurrence_cyclic_profile(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(1, 2): 1}, {F(1, 10): 1}])
    rc = main([
        "recurrence", "--system", "cyclic:5", "--family", fam,
        "--mode", "primes", "--N", "100,200", "--out", str(tmp_path),
    ])
    assert rc == 0
    side = read_sidecar(tmp_path, "recurrence")
    assert side["metadata"]["benchmark"] == pytest.approx((1 / 5) ** 3)
    assert side["checks"] == [{"name": "profile_range", "passed": True}]


def test_recurrence_rotation_arc(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main([
        "recurrence", "--system", "rotation", "--g", "arc:0.3:10",
        "--family", fam, "--N", "100,200", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_rows(tmp_path, "recurrence")
    assert all(float(r[1]) > 0 for r in rows)


@pytest.mark.parametrize("system", ["rotation", "cyclic:5"])
@pytest.mark.parametrize("lengths", ["0,10", "-3"])
def test_recurrence_refuses_lengths_below_one(tmp_path, capsys, system, lengths):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main(["recurrence", "--system", system, "--family", fam,
               f"--N={lengths}", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: empty average")
    assert not (tmp_path / "recurrence.csv").exists()


def test_recurrence_rejects_mismatched_set(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main([
        "recurrence", "--system", "rotation", "--g", "indicator:0",
        "--family", fam, "--N", "100", "--out", str(tmp_path),
    ])
    assert rc == 1


# ---------------------------------------------------------------------------
# seminorm

def test_seminorm_cyclic_degrees(tmp_path):
    fn = write_functions(
        tmp_path / "fn.json",
        [{"kind": "cyclic", "values": [[1, 0], [0.5, 0.2], [-1, 0], [0, 0], [0.3, -0.1], [1, 1]]}],
    )
    rc = main([
        "seminorm", "--system", "cyclic:6", "--functions", fn,
        "--s", "1,2,3", "--out", str(tmp_path), "--N", "1",
    ])
    assert rc == 0
    header, rows = read_rows(tmp_path, "seminorm")
    assert header == "N,value"
    assert [r[0] for r in rows] == ["1", "2", "3"]
    vals = [float(r[1]) for r in rows]
    assert vals[0] <= vals[1] <= vals[2]
    side = read_sidecar(tmp_path, "seminorm")
    assert {"name": "cyclic_monotone", "passed": True} in side["checks"]


def test_seminorm_rotation_oracle(tmp_path):
    fn = write_functions(
        tmp_path / "fn.json",
        [{"kind": "fourier", "terms": [
            {"freq": [1], "re": 0.8, "im": 0.1},
            {"freq": [-3], "re": -0.4},
        ]}],
    )
    rc = main([
        "seminorm", "--system", "rotation", "--functions", fn,
        "--s", "2", "--oracle", "--N", "1000", "--tol", "0.01",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    side = read_sidecar(tmp_path, "seminorm")
    assert {"name": "fourier_oracle_s2", "passed": True} in side["checks"]
    assert "2" in side["metadata"]["oracle"]


def test_seminorm_skew_default_observable(tmp_path):
    rc = main([
        "seminorm", "--system", "skew", "--s", "2",
        "--N", "100", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_rows(tmp_path, "seminorm")
    assert float(rows[0][1]) == pytest.approx(0.01**0.25)


# ---------------------------------------------------------------------------
# sieve

def test_sieve_prime_count(tmp_path):
    rc = main(["sieve", "--limit", "10000", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path, "sieve")
    assert rows == [["10000", "1229"]]
    side = read_sidecar(tmp_path, "sieve")
    assert {"name": "prime_count_lower", "passed": True} in side["checks"]


def test_sieve_tuple_counts(tmp_path):
    rc = main([
        "sieve", "--shifts", "0,2", "--N", "100,1000",
        "--cutoff", "10000", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_rows(tmp_path, "sieve")
    t = sieve(1002)
    assert int(rows[0][1]) == count_prime_tuples(t, 100, (0, 2))
    assert int(rows[1][1]) == count_prime_tuples(t, 1000, (0, 2))
    side = read_sidecar(tmp_path, "sieve")
    assert side["metadata"]["singular_series"]["value"] == pytest.approx(1.3204, abs=1e-3)
    assert {"name": "counts_monotone", "passed": True} in side["checks"]


def test_sieve_cache_file(tmp_path):
    cache = tmp_path / "primes.bin"
    rc = main([
        "sieve", "--limit", "5000", "--cache", str(cache), "--out", str(tmp_path)
    ])
    assert rc == 0
    assert cache.exists()


@pytest.mark.parametrize("flags", [["--N", "7"], ["--cutoff", "3"]])
def test_plain_sieve_refuses_tuple_flags(tmp_path, capsys, flags):
    rc = main(["sieve", "--limit", "1000", *flags, "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --N and --cutoff need --shifts")
    assert not (tmp_path / "sieve.csv").exists()


def test_sieve_tuple_cutoff_defaults_to_a_million(tmp_path):
    assert main(["sieve", "--shifts", "0,2", "--N", "100", "--out", str(tmp_path)]) == 0
    assert read_sidecar(tmp_path, "sieve")["metadata"]["singular_series"]["cutoff"] == 1000000


def test_sieve_tuples_read_one_table_through_the_cache(tmp_path, monkeypatch):
    calls = []

    def traced(limit, cache_path=None):
        calls.append((limit, cache_path))
        return sieve(limit, cache_path)

    monkeypatch.setattr(primes, "sieve", traced)
    cache = str(tmp_path / "c.bin")
    assert main(["sieve", "--shifts", "0,2", "--cache", cache, "--out", str(tmp_path)]) == 0
    # the default cutoff, 10^6, is above the counts' 10002
    assert calls == [(1000000, cache)]
    assert read_sidecar(tmp_path, "sieve")["metadata"]["limit"] == 1000000
    assert load_table(cache).limit == 1000000


def test_sieve_tuples_sieve_to_the_largest_count_or_cutoff(tmp_path):
    argv = ["sieve", "--shifts", "0,2", "--N", "100,1000", "--cutoff", "1000", "--out", str(tmp_path)]
    assert main(argv) == 0
    side = read_sidecar(tmp_path, "sieve")
    assert side["metadata"]["limit"] == 1002
    assert side["config"]["limit"] is None


def test_sieve_tuples_refuse_limit(tmp_path, capsys):
    argv = ["sieve", "--shifts", "0,2", "--N", "100", "--cutoff", "1000", "--limit", "5000"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: --limit is for a plain sieve")
    assert not (tmp_path / "sieve.csv").exists()


def test_plain_sieve_limit_defaults_to_a_million(tmp_path):
    assert main(["sieve", "--out", str(tmp_path)]) == 0
    assert read_rows(tmp_path, "sieve")[1] == [["1000000", "78498"]]
    assert read_sidecar(tmp_path, "sieve")["config"]["limit"] is None


def test_sieve_tuples_name_a_cutoff_below_two(tmp_path, capsys):
    assert main(["sieve", "--shifts", "0", "--N", "1", "--cutoff", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: cutoff 1 below the largest pairwise difference 0\n"


@pytest.mark.parametrize("argv, message", [
    (["seminorm", "--system", "cyclic:5", "--s", "3,2"], "--s must be strictly increasing"),
    (["sieve", "--shifts", "0,2", "--N", "3,1"], "--N must be strictly increasing"),
])
def test_decreasing_lists_name_their_flag(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_skew_recurrence_without_a_set_names_the_refusal(tmp_path, capsys):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    assert main(["recurrence", "--system", "skew", "--family", fam, "--N", "10", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: recurrence refuses every --g on the skew product")
    assert not (tmp_path / "recurrence.csv").exists()


# ---------------------------------------------------------------------------
# cross-cutting behaviour

def test_runs_are_byte_deterministic(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1, F(11, 10): 1}])
    configs = [
        ("equidist", ["equidist", "--family", fam, "--t", "0.3", "--N", "100,400"]),
        ("jointavg", ["jointavg", "--system", "rotation", "--family", fam,
                      "--mode", "primes", "--N", "100,400"]),
        ("sieve", ["sieve", "--limit", "2000"]),
    ]
    for name, argv in configs:
        d1, d2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert main(argv + ["--out", str(d1)]) == 0
        assert main(argv + ["--out", str(d2)]) == 0
        b1 = (d1 / f"{name}.csv").read_bytes()
        b2 = (d2 / f"{name}.csv").read_bytes()
        assert b1 == b2


def test_svg_output(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{2: 1}])
    rc = main([
        "equidist", "--family", fam, "--t", "0.25", "--N", "50,100",
        "--svg", "--out", str(tmp_path),
    ])
    assert rc == 0
    svg = (tmp_path / "equidist.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


@pytest.mark.parametrize("argv", [
    ["pet", "--family", "fam.json", "--N", "5"],
    ["pet", "--family", "fam.json", "--cache", "x.bin"],
    ["seminorm", "--system", "cyclic:5", "--cache", "x.bin"],
])
def test_flags_a_command_does_not_read_are_unknown(tmp_path, capsys, argv):
    # argparse's usage error, exit 2, before any file is read
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--out", str(tmp_path)])
    assert stop.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_error_paths_exit_one(tmp_path, capsys):
    fam = write_family(tmp_path / "fam.json", [{2: 1}])
    assert main(["jointavg", "--system", "galois:7", "--family", fam,
                 "--N", "10", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["pet", "--family", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 1
    assert main(["equidist", "--family", fam, "--N", "100,50",
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("c", [10**19, -(10**19)])
def test_equidist_iterates_beyond_int64_exit_one(tmp_path, capsys, c):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): c}])
    assert main(["equidist", "--family", fam, "--N", "10", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: iterate_values: ") and "at n = 1 is outside the int64 range" in err


@pytest.mark.parametrize("system, freqs", [
    ("rotation", [[2**62], [-(2**62)]]),  # f times conj(f) reaches 2^63
    ("skew", [[0, 2**62]]),  # the shear n k2 passes 2^63 at n = 2
])
def test_seminorm_frequencies_beyond_int64_exit_one(tmp_path, capsys, system, freqs):
    fn = write_functions(tmp_path / "fn.json", [{"kind": "fourier", "terms": [
        {"freq": fq, "re": 0.5} for fq in freqs
    ]}])
    assert main(["seminorm", "--system", system, "--functions", fn,
                 "--s", "2", "--N", "10", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: frequencies must be int64 with |k| < 2^63")


def _null_exponent(tmp_path):
    path = tmp_path / "fam.json"
    data = family_to_json(Family((rexp_poly(0, {F(3, 2): 1}),)))
    data["functions"][0]["terms"][0]["exponent"] = None
    path.write_text(json.dumps(data))
    return ["pet", "--family", str(path)]


def _in_family(field, value):
    def argv(tmp_path):
        path = tmp_path / "fam.json"
        data = family_to_json(Family((rexp_poly(0, {F(11, 10): 1}),)))
        term = data["functions"][0]["terms"][0]
        target = data if field == "k" else term if field == "exponent" else term["coeff"][0]
        target[field] = value
        path.write_text(json.dumps(data))
        return ["pet", "--family", str(path)]
    return argv


def _bad_observable(term_or_function, system="rotation"):
    def argv(tmp_path):
        fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
        desc = term_or_function
        if "kind" not in desc:
            desc = {"kind": "fourier", "terms": [term_or_function]}
        fn = write_functions(tmp_path / "fn.json", [desc])
        return ["jointavg", "--system", system, "--family", fam, "--functions", fn, "--N", "10"]
    return argv


@pytest.mark.parametrize("make_argv, field", [
    (_null_exponent, "exponent"),
    (_bad_observable({"freq": [1], "re": "a"}), "re"),
    (_bad_observable({"freq": [1], "im": 0.5}), "re"),
    (_bad_observable({"freq": [0, None], "re": 1.0}, "skew"), "freq"),
    (_bad_observable({"kind": "arc", "beta": "0.3"}), "beta"),
    (_bad_observable({"kind": "cyclic", "values": [[1, 0], "x"]}, "cyclic:2"), "values"),
    (_in_family("exponent", 1.1), "exponent"),  # not 11/10 but its nearest double
    (_in_family("c", 0.5), "c"),
    # Python counts True as 1, so a JSON boolean is refused by name
    (_in_family("k", False), "k"),
    (_in_family("exponent", True), "exponent"),
    (_in_family("c", True), "c"),
    (_in_family("powers", [True]), "powers"),
    (_bad_observable({"freq": [True, 0], "re": 1.0}, "skew"), "freq"),
    (_bad_observable({"kind": "arc", "beta": 0.3, "n_terms": True}), "n_terms"),
    (_bad_observable({"kind": "indicator", "points": [True]}, "cyclic:5"), "points"),
], ids=["pet-null-exponent", "fourier-string-re", "fourier-missing-re", "fourier-null-freq",
        "arc-string-beta", "cyclic-bad-values", "pet-float-exponent", "pet-float-coefficient",
        "pet-bool-k", "pet-bool-exponent", "pet-bool-coefficient", "pet-bool-powers",
        "fourier-bool-freq", "arc-bool-order", "indicator-bool-points"])
def test_bad_json_fields_exit_one_naming_the_field(tmp_path, capsys, make_argv, field):
    assert main(make_argv(tmp_path) + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert repr(field) in err


@pytest.mark.parametrize("system", ["cyclic:6", "skew"])
def test_seminorm_oracle_off_the_rotation_exits_one(tmp_path, capsys, system):
    rc = main(["seminorm", "--system", system, "--s", "2", "--N", "10", "--oracle",
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --oracle")
    assert not (tmp_path / "seminorm.csv").exists()


@pytest.mark.parametrize("flags", [["--mode", "primes"], ["--weight", "delta:2"]])
def test_jointavg_certificate_refuses_ignored_flags(tmp_path, capsys, flags):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main(["jointavg", "--system", "skew", "--family", fam, "--cert-degree", "2",
               "--N", "100", "--out", str(tmp_path), *flags])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --cert-degree")


@pytest.mark.parametrize("g, system, message", [
    ("arc:abc", "rotation", "could not convert"),
    ("indicator:1,x", "cyclic:5", "not a comma-separated integer list"),
    ("disc:0.3", "rotation", "sets are given as"),
    # the rest come from the builder of --functions descriptors
    ("arc:0.3", "cyclic:5", "does not fit a cyclic system"),
    ("arc:0.3", "skew", "arc functions live on the rotation"),
])
def test_recurrence_set_errors_exit_one(tmp_path, capsys, g, system, message):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main(["recurrence", "--system", system, "--g", g, "--family", fam,
               "--N", "10", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command, system", [
    ("jointavg", "rotation:inf"),
    ("recurrence", "skew:-inf"),
    ("seminorm", "rotation:inf"),
])
def test_non_finite_angle_exits_one(tmp_path, capsys, command, system):
    argv = [command, "--system", system, "--N", "10", "--out", str(tmp_path)]
    if command != "seminorm":
        argv += ["--family", write_family(tmp_path / "fam.json", [{F(3, 2): 1}])]
    assert main(argv) == 1
    name, _, alpha = system.partition(":")
    assert capsys.readouterr().err.startswith(f"error: {name} angle must be finite, got {alpha!r}")


def test_overflowing_frequency_is_a_usage_error(tmp_path, capsys):
    # as --t nan is: argparse's usage error, exit 2
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    with pytest.raises(SystemExit) as stop:
        main(["equidist", "--family", fam, "--N", "10", "--t", "1e400", "--out", str(tmp_path)])
    assert stop.value.code == 2
    assert "argument --t: invalid _float_list value: '1e400'" in capsys.readouterr().err


def test_negative_arc_order_exits_one(tmp_path, capsys):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    rc = main(["recurrence", "--system", "rotation", "--g", "arc:0.3:-5", "--family", fam,
               "--N", "10", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: arc order must be non-negative, got -5")
    assert not (tmp_path / "recurrence.csv").exists()
    # order 0 is the arc's integral, the constant beta
    f = systems.fejer_arc(0.3, 0)
    assert f.freqs.tolist() == [[0]] and f.amps.tolist() == [0.3]


def test_parameterized_family_rejected(tmp_path):
    fam = Family((rexp_poly(1, {F(3, 2): {(1,): 1}}),))
    p = tmp_path / "fam.json"
    p.write_text(json.dumps(family_to_json(fam)))
    rc = main(["equidist", "--family", str(p), "--N", "10", "--out", str(tmp_path)])
    assert rc == 1


def test_family_with_shift_parameters_names_the_rule(tmp_path, capsys):
    p = tmp_path / "fam.json"
    p.write_text(json.dumps({"k": 1, "functions": [
        {"terms": [{"exponent": "3/2", "coeff": [{"c": "1", "powers": [1]}]}]}]}))
    assert main(["jointavg", "--system", "rotation", "--family", str(p), "--N", "10",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: iterate functions take no shift parameters\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)

_GOOD_INPUTS = [
    ("family", ["k"], None),
    ("family", ["functions", 0, "terms", 0, "exponent"], None),
    ("family", ["functions", 0, "terms", 0, "coeff", 0, "c"], None),
    ("family", ["functions", 0, "terms", 0, "coeff", 0, "powers"], None),
    ("function", ["terms", 0, "freq"], "skew"),
    ("function", ["terms", 0, "re"], "skew"),
    ("function", ["terms", 0, "im"], "skew"),
    ("function", ["terms"], "skew"),
    ("arc", ["beta"], "rotation"),
    ("arc", ["n_terms"], "rotation"),
    ("cyclic", ["values"], "cyclic:2"),
    ("cyclic", ["values", 1], "cyclic:2"),
    ("indicator", ["points"], "cyclic:2"),
]


def _good_input(kind):
    return {
        "family": family_to_json(Family((rexp_poly(0, {F(3, 2): 1}),))),
        "function": {"kind": "fourier", "terms": [{"freq": [1, 1], "re": 1.0, "im": 0.5}]},
        "arc": {"kind": "arc", "beta": 0.3, "n_terms": 3},
        "cyclic": {"kind": "cyclic", "values": [[1, 0], [0, 1]]},
        "indicator": {"kind": "indicator", "points": [1]},
    }[kind]


@given(st.sampled_from(_GOOD_INPUTS), _JSON)
@settings(max_examples=300, deadline=None)
def test_malformed_json_raises_value_error_only(where, value):
    # Any value in any field either builds or is a ValueError, the error
    # class the CLI turns into "error: <message>" and exit 1.
    kind, path, system = where
    data = _good_input(kind)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        if kind == "family":
            family_from_json(data)
        else:
            _build_function(data, systems.parse_system(system))
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# weights, observable counts, tolerances, degree ranges, warm caches

def test_jointavg_lambda_weight(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}, {F(5, 4): 1}])
    rc = main([
        "jointavg", "--system", "skew", "--family", fam, "--weight", "lambda",
        "--N", "100,200", "--out", str(tmp_path),
    ])
    assert rc == 0
    side = read_sidecar(tmp_path, "jointavg")
    assert side["metadata"]["weight"] == "lambda"
    assert side["metadata"]["benchmark_re"] == 0.0  # e(y) integrates to 0


def test_jointavg_lambda_weight_at_length_one(tmp_path):
    # Lambda up to n = 1 reads a table below the sieve's least limit, 2
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    for lengths in ["1", "1,2"]:
        assert main(["jointavg", "--system", "cyclic:3", "--family", fam, "--weight", "lambda",
                     "--N", lengths, "--out", str(tmp_path / lengths)]) == 0
    assert read_rows(tmp_path / "1", "jointavg")[1] == read_rows(tmp_path / "1,2", "jointavg")[1][:1]


def test_jointavg_unknown_weight_exits_one(tmp_path, capsys):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    for weight in ["bounded", "delta:", "delta:x"]:
        assert main(["jointavg", "--system", "cyclic:3", "--family", fam, "--weight", weight,
                     "--N", "10", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["error: unknown weight 'bounded'", "error: unknown weight 'delta:'"]
    assert err[2].startswith("error: invalid literal for int()")
    assert not (tmp_path / "jointavg.csv").exists()


def test_constant_observable_spread_over_the_family(tmp_path):
    # one entry in the functions file serves every family member
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}, {F(5, 4): 1}])
    fn = write_functions(tmp_path / "fn.json", [{"kind": "constant", "re": 0.5, "im": 0.5}])
    rc = main([
        "jointavg", "--system", "cyclic:3", "--family", fam, "--functions", fn,
        "--N", "10", "--out", str(tmp_path),
    ])
    assert rc == 0
    _, rows = read_rows(tmp_path, "jointavg")
    side = read_sidecar(tmp_path, "jointavg")
    # the product of two constants c averages to c^2 = 0.5i exactly
    assert (side["metadata"]["benchmark_re"], side["metadata"]["benchmark_im"]) == (0.0, 0.5)
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-15)


def test_functions_file_with_the_wrong_count_exits_one(tmp_path, capsys):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}, {F(5, 4): 1}, {F(9, 8): 1}])
    fn = write_functions(tmp_path / "fn.json", [{"kind": "constant"}] * 2)
    assert main(["jointavg", "--system", "rotation", "--family", fam, "--functions", fn,
                 "--N", "10", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: need 3 observables, file has 2\n"


def test_equidist_frequency_count_must_match_the_family(tmp_path, capsys):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}, {F(5, 4): 1}])
    assert main(["equidist", "--family", fam, "--t", "1/3", "--N", "10", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: need one frequency per family member\n"


def test_seminorm_schedule_shorter_than_the_degree_exits_one(tmp_path, capsys):
    assert main(["seminorm", "--system", "rotation", "--s", "3", "--N", "10",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: degree 3 needs 2 truncation lengths")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_seminorm_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, tol):
    assert main(["seminorm", "--system", "rotation", "--s", "2", "--N", "100", "--oracle",
                 "--tol", tol, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: --tol must be a finite number >= 0")
    assert not (tmp_path / "seminorm.csv").exists()


@pytest.mark.parametrize("command", ["jointavg", "seminorm"])
def test_degree_out_of_range_names_the_range(tmp_path, capsys, command):
    if command == "jointavg":
        fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
        argv = ["jointavg", "--system", "skew", "--family", fam, "--cert-degree", "0", "--N", "10"]
    else:
        argv = ["seminorm", "--system", "skew", "--s", "4"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: estimates take degrees s = 1..3, got ")


def test_sieve_reads_a_cache_at_exactly_its_limit(tmp_path):
    # the warm-cache path of the benchmarks: the cached table is used as is
    cache = tmp_path / "primes.bin"
    assert main(["sieve", "--limit", "5000", "--cache", str(cache), "--out", str(tmp_path)]) == 0
    first = (tmp_path / "sieve.csv").read_text()
    written = cache.stat()
    assert main(["sieve", "--limit", "5000", "--cache", str(cache), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sieve.csv").read_text() == first == "N,value\n5000,669\n"
    assert (cache.stat().st_ino, cache.stat().st_mtime_ns) == (written.st_ino, written.st_mtime_ns)
    assert read_sidecar(tmp_path, "sieve")["metadata"]["limit"] == 5000


# ---------------------------------------------------------------------------
# the runner: every subcommand's outputs are written by main

_SMALL_RUNS = {
    "equidist": ["--family", "{fam}", "--N", "10,100"],
    "jointavg": ["--system", "rotation", "--family", "{fam}", "--N", "10,100"],
    "recurrence": ["--system", "cyclic:5", "--family", "{fam}", "--N", "10,100"],
    "seminorm": ["--system", "skew", "--s", "2,3", "--N", "20,20"],
    "pet": ["--family", "{fam}"],
    "sieve": ["--shifts", "0,2", "--N", "100,1000", "--cutoff", "1000"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_every_subcommand_writes_the_same_sidecar_contract(tmp_path, command):
    fam = write_family(tmp_path / "fam.json", [{F(3, 2): 1}])
    argv = [a.format(fam=fam) for a in _SMALL_RUNS[command]]
    assert main([command, *argv, "--out", str(tmp_path / "out")]) == 0
    _, rows = read_rows(tmp_path / "out", command)
    side = read_sidecar(tmp_path / "out", command)
    assert side["subcommand"] == side["config"]["cmd"] == command
    assert side["series"] == [[json.loads(cell) for cell in row] for row in rows]
    assert side["schema_version"] == 2
    assert all(set(c) == {"name", "passed"} and isinstance(c["passed"], bool) for c in side["checks"])
    assert side["wall_time_s"] >= 0
    assert "func" not in side["config"]
