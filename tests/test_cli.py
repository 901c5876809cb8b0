import json
import os
import subprocess
import sys

import pytest

import asymflat
from asymflat import cli
from asymflat.chartchange import InvarianceReport
from asymflat.cli import DEFAULTS, ConfigError, _validate, main, parse_radii
from asymflat.identities import IdentityCheck
from asymflat.invariants import _result
from asymflat.parity import ParityReport


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_radii_dyadic():
    assert parse_radii("10:4") == [10.0, 20.0, 40.0, 80.0]
    assert parse_radii([5.0, 6.0, 7.0]) == [5.0, 6.0, 7.0]


def test_parse_radii_rejects_bad_specs():
    for bad in ("10", "0:5", "10:2", "a:b"):
        with pytest.raises(ConfigError):
            parse_radii(bad)
    for bad in ([3.0, 2.0, 4.0], [-80.0, 20.0, 40.0], [0.0, 1.0, 2.0]):
        with pytest.raises(ConfigError):
            parse_radii(bad)


def test_mass_command_schwarzschild(capsys, tmp_path):
    code, out, err = run(["mass", "--n", "3", "--k", "1", "--m", "1.5",
                          "--radii", "20:4", "--level", "6", "--step", "1",
                          "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "mass m_1" in out
    doc = json.loads((tmp_path / "mass.json").read_text())
    assert abs(doc["results"]["mass"]["limit"] - 1.5) < 1e-4


def test_mass_json_output_is_deterministic(capsys, tmp_path):
    args = ["mass", "--n", "3", "--m", "0.7", "--radii", "20:4",
            "--level", "6", "--step", "1"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(d1)], capsys)[0] == 0
    assert run(args + ["--out", str(d2)], capsys)[0] == 0
    j1 = (d1 / "mass.json").read_bytes()
    j2 = (d2 / "mass.json").read_bytes()
    # the out path is not part of the payload, so the bytes must agree
    doc1 = json.loads(j1)
    doc2 = json.loads(j2)
    doc1["config"]["out"] = doc2["config"]["out"] = None
    assert doc1 == doc2


def test_csv_output(capsys, tmp_path):
    code, *_ = run(["mass", "--n", "3", "--radii", "20:4", "--level", "6",
                    "--step", "1", "--format", "both", "--out", str(tmp_path)],
                   capsys)
    assert code == 0
    lines = (tmp_path / "mass.csv").read_text().splitlines()
    assert lines[0] == "quantity,r,value"
    assert any(row.split(",")[1] == "limit" for row in lines[1:])


@pytest.mark.parametrize("command", ["verify", "invariance", "rtcheck"])
def test_csv_only_on_a_json_only_command_exits_1(capsys, tmp_path, command):
    # refused before any work: no output directory, no file
    out = tmp_path / "out"
    code, _, err = run([command, "--n", "3", "--format", "csv", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: format")
    assert not out.exists()


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "m": 2.0, "radii": "20:4",
                               "level": 6, "step": 1.0}))
    code, out, _ = run(["mass", "--config", str(cfg), "--m", "0.5",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "mass.json").read_text())
    assert abs(doc["results"]["mass"]["limit"] - 0.5) < 1e-4


def test_unknown_config_key_exits_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(["mass", "--config", str(cfg)], capsys)
    assert code == 1
    assert "unknown key" in err


def test_invalid_flag_value_exits_1(capsys):
    code, _, err = run(["mass", "--n", "9"], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command, cfg, key", [
    ("center", {"n": 3, "center": [1.0]}, "center"),
    ("center", {"n": 3, "center": [1.0, 1.0]}, "center"),
    ("invariance", {"n": 3, "translation": [5.0]}, "translation"),
    ("mass", {"n": 3.7, "level": 4.9}, "n"),
    ("mass", {"level": 4.9}, "level"),
    ("mass", {"k": True}, "k"),
    ("mass", {"n": "3"}, "n"),
    ("verify", {"seed": 0.5}, "seed"),
    ("rtcheck", {"ell": 1.5}, "ell"),
    ("invariance", {"rotation_seed": 2.5}, "rotation_seed"),
    ("mass", {"step": 0.0}, "step"),
    ("mass", {"step": -1.0}, "step"),
    ("mass", {"step": "nan"}, "step"),
    ("mass", {"out": 5}, "out"),
    ("mass", {"strict": "no"}, "strict"),
    ("mass", {"m": None}, "m"),
    ("mass", {"m": True}, "m"),
    ("rtcheck", {"metric": "rt", "tau": "nan"}, "tau"),
    ("rtcheck", {"metric": "rt", "amplitude": [0.1]}, "amplitude"),
    ("invariance", {"zeta": "radial", "zeta_c": "abc"}, "zeta_c"),
    ("invariance", {"tau_prime": float("inf")}, "tau_prime"),
])
def test_invalid_config_value_exits_1(capsys, tmp_path, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run([command, "--config", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and key in err


def test_runtime_loads_no_scipy():
    # the CLI, a GBC context, a quadrature rule, a decay lattice and an
    # extrapolation need only numpy and the standard library
    script = "\n".join([
        "import sys",
        "import asymflat.cli",
        "from asymflat.gbc import GBCContext",
        "from asymflat.invariants import decay_exponents, extrapolate, sphere_rule",
        "GBCContext(5, 2)",
        "sphere_rule(5, 20.0, 4)",
        "extrapolate([(10.0 * 2**j, 1.0 + 2.0 / (10.0 * 2**j)) for j in range(6)],",
        "            decay_exponents((1.0,), 4))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = os.path.dirname(os.path.dirname(asymflat.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_integral_floats_and_null_rotation_seed_are_accepted():
    for extra in ({"n": 3.0, "level": 6.0}, {"rotation_seed": None},
                  {"rotation_seed": 2**31 - 1, "seed": 12.0, "ell": 1}):
        _validate({**DEFAULTS, **extra})


def test_center_command(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "m": 1.0, "center": [0.5, 0.0, 0.0],
                               "radii": "20:5", "level": 6, "step": 1.0}))
    code, out, _ = run(["center", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 0
    doc = json.loads((tmp_path / "center.json").read_text())
    assert abs(doc["results"]["center[0]"]["limit"] - 0.5) < 1e-4


def test_verify_command(capsys):
    code, out, _ = run(["verify", "--n", "3"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_rtcheck_command_pass_and_fail(capsys):
    code, out, _ = run(["rtcheck", "--metric", "rt", "--n", "3", "--tau", "1",
                        "--seed", "1", "--radii", "10:5", "--ell", "1"], capsys)
    assert code == 0
    assert "PASS" in out
    # odd perturbation at the full rate violates the parity condition
    code, out, _ = run(["rtcheck", "--metric", "rt", "--n", "3", "--tau", "1",
                        "--seed", "1", "--radii", "10:5", "--ell", "0",
                        "--strict"] + ["--config", "/dev/null"], capsys)
    # /dev/null is not valid JSON: config errors exit 1
    assert code == 1


def test_rtcheck_strict_failure_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "rt", "n": 3, "tau": 1.0, "seed": 1,
                               "parity": "odd", "radii": "10:5", "ell": 0}))
    code, out, _ = run(["rtcheck", "--config", str(cfg), "--strict"], capsys)
    assert code == 2
    assert "FAIL" in out


def _failed(command):
    """A not-converged or failed result of the library call behind `command`."""
    res = _result([(20.0, 1.0), (40.0, -1.0), (80.0, 1.0), (160.0, -1.0)],
                  [1.0, 2.0])
    assert not res.converged
    if command == "mass":
        return res
    if command in ("center", "curvcenter"):
        return [res] * 3
    if command == "verify":
        return [IdentityCheck("bianchi", 3, 2, 2, 1.0, 1e-12)]
    if command == "invariance":
        return [InvarianceReport("mass", [(20.0, 1.0, 1.1, 0.1)], 0.1, 0.0, 1e-3, False)]
    return [ParityReport("e", 0.0, 0.0, 0.0, -1.0, -2.0, [20.0], False)]


@pytest.mark.parametrize("command, call", [
    ("mass", "gbc_mass"), ("center", "gbc_center"),
    ("curvcenter", "curvature_center"), ("verify", "identity_suite"),
    ("invariance", "invariance_report"), ("rtcheck", "rt_check"),
])
def test_a_failed_result_exits_2_under_strict_only(capsys, tmp_path, monkeypatch,
                                                   command, call):
    monkeypatch.setattr(cli, call, lambda *args, **kwargs: _failed(command))
    args = [command, "--n", "3", "--radii", "20:3", "--level", "3", "--step", "1"]
    for strict, expected in ((["--strict"], 2), ([], 0)):
        out = tmp_path / f"out{expected}"
        assert run(args + strict + ["--out", str(out)], capsys)[0] == expected
        doc = json.loads((out / f"{command}.json").read_text())
        assert doc["command"] == command and doc["config"]["strict"] == bool(strict)


def test_invariance_command(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "m": 1.0, "radii": "20:5", "level": 6,
                               "step": 1.0, "zeta": "harmonic", "zeta_c": 0.2,
                               "tau_prime": 1.0}))
    code, out, _ = run(["invariance", "--config", str(cfg)], capsys)
    assert code == 0
    assert "PASS" in out


def test_invariance_negative_control_strict(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "m": 1.0, "radii": "20:5", "level": 6,
                               "step": 1.0, "zeta": "radial", "zeta_c": 0.5,
                               "tau_prime": 0.3}))
    code, out, _ = run(["invariance", "--config", str(cfg), "--strict"], capsys)
    assert code == 2
    assert "DRIFT" in out


def test_cached_parser_parses_like_a_fresh_one(capsys, tmp_path):
    from asymflat.cli import _build_parser

    assert _build_parser() is _build_parser()
    fresh = _build_parser.__wrapped__
    for argv in (["mass", "--n", "5", "--k", "2", "--strict", "--step", "0.5"],
                 ["invariance", "--zeta", "radial", "--zeta-c", "0.2"],
                 ["verify", "--n", "4"], ["mass"]):
        assert vars(_build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
    args = ["mass", "--n", "3", "--radii", "20:3", "--level", "3", "--step", "1"]
    first = run(args + ["--out", str(tmp_path / "a")], capsys)
    # bad arguments in between: argparse exits 2, a bad value exits 1
    for bad in (["mass", "--n", "x"], ["nosuch"], ["verify", "--zeta", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert run(["center", "--level", "1"], capsys)[0] == 1
    assert run(args + ["--out", str(tmp_path / "b")], capsys) == first


def test_invariance_rejects_a_zeta_that_stops_contracting(capsys, tmp_path):
    # zeta = c x r^(1/2): small |d zeta| on the inner shells, above 0.9 on
    # the outer ones, so the chart change is refused before any quadrature
    code, out, err = run(["invariance", "--n", "3", "--zeta", "radial",
                          "--zeta-c", "0.05", "--tau-prime", "-0.5",
                          "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "outermost sampled shell" in err
    assert not (tmp_path / "invariance.json").exists()
