"""Command-line front end: declarative experiment configs in, convergence
tables and JSON reports out.

One flat JSON config file drives every command; CLI flags override config
keys.  All randomness is seeded explicitly and the quadrature and summation
are deterministic, so re-running a command with the same config is
bit-identical in its JSON output.  Exit codes: 0 success, 1 validation
failure, 2 numerical non-convergence when --strict is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from functools import lru_cache

import numpy as np

from .chartchange import (
    invariance_report,
    make_diffeo,
    zeta_harmonic,
    zeta_radial,
)
from .fields import EuclideanMetric, make_rt_perturbation, make_schwarzschild
from .gbc import GBCContext
from .identities import identity_suite
from .invariants import curvature_center, gbc_center, gbc_mass, gbc_mass_center
from .parity import rt_check

__all__ = ["main"]


DEFAULTS = {
    "metric": "schwarzschild",
    "n": 3,
    "k": 1,
    "m": 1.0,
    "center": None,
    "tau": 1.0,
    "seed": 0,
    "parity": "even",
    "amplitude": 0.01,
    "radii": "20:5",
    "level": 8,
    "step": None,
    "zeta": "none",
    "zeta_c": 0.1,
    "tau_prime": 1.0,
    "rotation_seed": None,
    "translation": None,
    "ell": 2,
    "out": None,
    "format": "json",
    "strict": False,
}


class ConfigError(ValueError):
    pass


def load_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be an object")
        for key in loaded:
            if key not in DEFAULTS:
                raise ConfigError(f"config: unknown key {key!r}")
        cfg.update(loaded)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None and val is not False:
            cfg[key] = val
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    for key in ("n", "k", "level", "seed", "ell", "rotation_seed"):
        v = cfg[key]
        if key == "rotation_seed" and v is None:
            continue
        if isinstance(v, bool) or not (isinstance(v, int)
                                       or isinstance(v, float) and v.is_integer()):
            raise ConfigError(f"{key}: must be an integer, got {v!r}")
    if cfg["metric"] not in ("schwarzschild", "flat", "rt"):
        raise ConfigError(f"metric: unknown family {cfg['metric']!r}")
    if not 3 <= int(cfg["n"]) <= 8:
        raise ConfigError(f"n: must be in 3..8, got {cfg['n']}")
    if int(cfg["k"]) < 1:
        raise ConfigError(f"k: must be >= 1, got {cfg['k']}")
    if int(cfg["level"]) < 2:
        raise ConfigError(f"level: must be >= 2, got {cfg['level']}")
    if cfg["format"] not in ("json", "csv", "both"):
        raise ConfigError(f"format: must be json, csv, or both, got {cfg['format']!r}")
    parse_radii(cfg["radii"])
    if cfg["step"] is not None:
        try:
            step = float(cfg["step"])
        except (TypeError, ValueError):
            step = math.nan
        if not (math.isfinite(step) and step > 0):
            raise ConfigError(f"step: must be finite and > 0, got {cfg['step']!r}")
    if cfg["zeta"] not in ("none", "radial", "harmonic"):
        raise ConfigError(f"zeta: unknown family {cfg['zeta']!r}")


def parse_radii(spec) -> list[float]:
    """Parse 'r0:levels' into the dyadic schedule r0 * 2^j, j = 0..levels-1."""
    if isinstance(spec, (list, tuple)):
        radii = [float(r) for r in spec]
    else:
        try:
            r0_s, lv_s = str(spec).split(":")
            r0, levels = float(r0_s), int(lv_s)
        except ValueError:
            raise ConfigError(f"radii: expected 'r0:levels', got {spec!r}")
        if r0 <= 0 or levels < 3:
            raise ConfigError("radii: need r0 > 0 and at least 3 dyadic levels")
        radii = [r0 * 2.0 ** j for j in range(levels)]
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii: need >= 3 strictly increasing values")
    if not all(r > 0 for r in radii):
        raise ConfigError("radii: every radius must be > 0")
    return radii


def build_metric(cfg: dict):
    n, k = int(cfg["n"]), int(cfg["k"])
    if cfg["metric"] == "flat":
        return EuclideanMetric(n)
    if cfg["metric"] == "schwarzschild":
        return make_schwarzschild(n, k, float(cfg["m"]), center=cfg["center"])
    return make_rt_perturbation(n, float(cfg["tau"]), seed=int(cfg["seed"]),
                                parity=cfg["parity"],
                                amplitude=float(cfg["amplitude"]))


def build_diffeo(cfg: dict):
    n = int(cfg["n"])
    Q = None
    if cfg["rotation_seed"] is not None:
        rng = np.random.default_rng(int(cfg["rotation_seed"]))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = None if cfg["translation"] is None else np.asarray(cfg["translation"], float)
    zeta = None
    if cfg["zeta"] == "radial":
        zeta = zeta_radial(n, float(cfg["zeta_c"]), float(cfg["tau_prime"]))
    elif cfg["zeta"] == "harmonic":
        zeta = zeta_harmonic(n, float(cfg["zeta_c"]), float(cfg["tau_prime"]))
    return make_diffeo(Q=Q, w=w, zeta=zeta, tau_prime=float(cfg["tau_prime"]), n=n)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(cfg: dict, command: str, payload: dict, csv_rows: list | None) -> None:
    out = cfg["out"]
    doc = {"command": command, "config": {k: cfg[k] for k in sorted(DEFAULTS)},
           "results": payload}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out is None:
        return
    if cfg["format"] in ("json", "both"):
        _atomic_write(os.path.join(out, f"{command}.json"), text)
    if cfg["format"] in ("csv", "both") and csv_rows:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        _atomic_write(os.path.join(out, f"{command}.csv"), buf.getvalue())


def _result_csv(results: dict) -> list:
    rows = [["quantity", "r", "value"]]
    for name, res in results.items():
        for r, v in res["per_radius"]:
            rows.append([name, repr(float(r)), repr(float(v))])
        rows.append([name, "limit", repr(float(res["limit"]))])
    return rows


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_mass(cfg: dict) -> int:
    g = build_metric(cfg)
    ctx = GBCContext(int(cfg["n"]), int(cfg["k"]))
    radii = parse_radii(cfg["radii"])
    step = None if cfg["step"] is None else float(cfg["step"])
    res = gbc_mass(g, ctx, radii, level=int(cfg["level"]), step=step)
    print(f"mass m_{ctx.k} = {res.limit:.10g} +- {res.residual:.3g}"
          + ("" if res.converged else "  [not converged]"))
    for r, v in res.per_radius:
        print(f"  r = {r:10.1f}   {v:+.10e}")
    results = {"mass": res.to_dict()}
    _emit(cfg, "mass", results, _result_csv(results))
    return 0 if res.converged or not cfg["strict"] else 2


def cmd_center(cfg: dict) -> int:
    g = build_metric(cfg)
    ctx = GBCContext(int(cfg["n"]), int(cfg["k"]))
    radii = parse_radii(cfg["radii"])
    step = None if cfg["step"] is None else float(cfg["step"])
    level = int(cfg["level"])
    results = gbc_center(g, ctx, radii, level=level, step=step)
    vec = [res.limit for res in results]
    print("center C =", "[" + ", ".join(f"{v:+.6g}" for v in vec) + "]")
    payload = {f"center[{i}]": r.to_dict() for i, r in enumerate(results)}
    _emit(cfg, "center", payload, _result_csv(payload))
    ok = all(r.converged for r in results)
    return 0 if ok or not cfg["strict"] else 2


def cmd_curvcenter(cfg: dict) -> int:
    g = build_metric(cfg)
    ctx = GBCContext(int(cfg["n"]), int(cfg["k"]))
    radii = parse_radii(cfg["radii"])
    step = None if cfg["step"] is None else float(cfg["step"])
    level = int(cfg["level"])
    mass, centers = gbc_mass_center(g, ctx, radii, level=level, step=step)
    curv = curvature_center(g, ctx, radii, level=level, step=step)
    payload = {}
    print("axis   curvature-flux limit     ratio to m_k C^a")
    for i, res in enumerate(curv):
        denom = mass.limit * centers[i].limit
        ratio = res.limit / denom if abs(denom) > 1e-12 else float("nan")
        print(f"{i:4d}   {res.limit:+.10e}   {ratio:+.6g}")
        d = res.to_dict()
        d["ratio"] = float(ratio)
        payload[f"curvcenter[{i}]"] = d
    _emit(cfg, "curvcenter", payload, _result_csv(payload))
    ok = all(r.converged for r in curv)
    return 0 if ok or not cfg["strict"] else 2


def cmd_verify(cfg: dict) -> int:
    checks = identity_suite(int(cfg["n"]), seed=int(cfg["seed"]))
    width = max(len(c.name) for c in checks)
    failures = 0
    by_name: dict[str, list] = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    for name, group in by_name.items():
        worst = max(c.error for c in group)
        ok = all(c.passed for c in group)
        failures += 0 if ok else 1
        sigs = " ".join(f"({c.p},{c.q})" for c in group if not c.passed)
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  worst {worst:.2e}"
              + (f"  at {sigs}" if sigs else ""))
    payload = {"checks": [c.to_dict() for c in checks]}
    _emit(cfg, "verify", payload, None)
    if failures:
        print(f"{failures} identity group(s) failed")
        return 2 if cfg["strict"] else 0
    return 0


def cmd_invariance(cfg: dict) -> int:
    g = build_metric(cfg)
    ctx = GBCContext(int(cfg["n"]), int(cfg["k"]))
    radii = parse_radii(cfg["radii"])
    phi = build_diffeo(cfg)
    step = None if cfg["step"] is None else float(cfg["step"])
    reports = invariance_report(g, phi, ctx, radii, level=int(cfg["level"]),
                                include_center=False, step=step)
    payload = {}
    for rep in reports:
        flag = "PASS" if rep.passed else "DRIFT"
        print(f"{flag}  {rep.quantity}: delta = {rep.delta_limit:+.3e}, "
              f"drift slope = {rep.drift_slope:+.3f}")
        payload[rep.quantity] = rep.to_dict()
    _emit(cfg, "invariance", payload, None)
    ok = all(rep.passed for rep in reports)
    return 0 if ok or not cfg["strict"] else 2


def cmd_rtcheck(cfg: dict) -> int:
    g = build_metric(cfg)
    radii = parse_radii(cfg["radii"])
    reports = rt_check(g, float(cfg["tau"]), int(cfg["ell"]), radii)
    payload = {}
    for rep in reports:
        flag = "PASS" if rep.passed else "FAIL"
        print(f"{flag}  {rep.component}: slope {rep.slope:+.3f} "
              f"(need <= {rep.required + 0.1:+.3f}), odd slope {rep.odd_slope:+.3f} "
              f"(need <= {rep.required_odd + 0.1:+.3f})")
        payload[rep.component] = rep.to_dict()
    _emit(cfg, "rtcheck", payload, None)
    ok = all(rep.passed for rep in reports)
    return 0 if ok or not cfg["strict"] else 2


COMMANDS = {
    "mass": cmd_mass,
    "center": cmd_center,
    "curvcenter": cmd_curvcenter,
    "verify": cmd_verify,
    "invariance": cmd_invariance,
    "rtcheck": cmd_rtcheck,
}

# the commands with a per-radius table; the others write JSON only
CSV_COMMANDS = ("mass", "center", "curvcenter")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, so every `main` call parses as a fresh parser would."""
    parser = argparse.ArgumentParser(
        prog="asymflat",
        description="Asymptotic invariants of asymptotically flat metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--m", type=float, default=None)
        p.add_argument("--metric", default=None,
                       choices=["schwarzschild", "flat", "rt"])
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--radii", default=None, help="'r0:levels' dyadic schedule")
        p.add_argument("--level", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--step", type=float, default=None,
                       help="known extrapolation ladder spacing")
        p.add_argument("--zeta", default=None, choices=["none", "radial", "harmonic"])
        p.add_argument("--zeta-c", dest="zeta_c", type=float, default=None)
        p.add_argument("--tau-prime", dest="tau_prime", type=float, default=None)
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default=None, choices=["json", "csv", "both"])
        p.add_argument("--strict", action="store_true", default=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if cfg["format"] == "csv" and args.command not in CSV_COMMANDS:
            raise ConfigError(f"format: {args.command} writes no CSV table; "
                              f"use json or both")
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
