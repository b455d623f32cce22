import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracergo
from fracergo import systems
from fracergo.cli import _build_function, main
from fracergo.fracpoly import Family, family_from_json, family_to_json, rexp_poly
from fracergo.primes import count_prime_tuples, sieve


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


def test_seed_recorded_in_sidecar(tmp_path):
    fam = write_family(tmp_path / "fam.json", [{2: 1}])
    rc = main([
        "equidist", "--family", fam, "--N", "50",
        "--seed", "7", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert read_sidecar(tmp_path, "equidist")["config"]["seed"] == 7


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


def _float_in_family(field, value):
    def argv(tmp_path):
        path = tmp_path / "fam.json"
        data = family_to_json(Family((rexp_poly(0, {F(11, 10): 1}),)))
        term = data["functions"][0]["terms"][0]
        (term if field == "exponent" else term["coeff"][0])[field] = value
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
    (_float_in_family("exponent", 1.1), "exponent"),  # not 11/10 but its nearest double
    (_float_in_family("c", 0.5), "c"),
], ids=["pet-null-exponent", "fourier-string-re", "fourier-missing-re", "fourier-null-freq",
        "arc-string-beta", "cyclic-bad-values", "pet-float-exponent", "pet-float-coefficient"])
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
