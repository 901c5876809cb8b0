"""Seeded workload inputs and their closed-form output checks.

Every workload is a list of asymflat CLI commands, each driven by one
generated config file.  The inputs come from the seed alone and stay inside
the ranges where the generalized Schwarzschild family has closed forms:
mass m^k, center equal to the translation, and curvature-center ratio
b_{n,k}.  The checker turns each command's results JSON into operations,
one per invariant or identity check, and marks each one correct or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# acceptance-gate tolerances (tests/test_acceptance.py)
MASS_TOL = 1e-3
CENTER_TOL = 5e-3
RATIO_RTOL = 1e-2

# Quadrature sizes are scaled so that one pass of a workload takes a few
# seconds and a run can take the median of several passes.  Every radius
# still refines once (level L to L + max(2, L // 2)), so the share of nodes
# spent on the confirmation pass matches the default level 8.
MASS_LEVEL = 4
CENTER_LEVEL = 5
INVARIANCE_LEVEL = 6


@dataclass(frozen=True)
class Command:
    """One CLI call: the subcommand, its config file contents, and the
    closed-form parameters its results are checked against."""

    command: str
    config: dict
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    contexts: tuple  # (n, k) pairs a CLI user builds a GBCContext for


@dataclass(frozen=True)
class Op:
    """One checked invariant or identity.  `err` is the error against a
    closed form, or None where there is none (identity checks, failures)."""

    name: str
    ok: bool
    err: float | None = None


def _translation(rng, n: int, max_norm: float) -> list:
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    return (direction * rng.uniform(0.0, max_norm)).tolist()


def _mass_highdim(rng) -> list:
    m = float(rng.uniform(0.5, 2.0))
    cfg = {"metric": "schwarzschild", "n": 5, "k": 2, "m": m,
           "center": _translation(rng, 5, 1.0), "radii": "20:9", "step": 0.5,
           "level": MASS_LEVEL}
    return [Command("mass", cfg, {"n": 5, "k": 2, "m": m})]


def _center_lowdim(rng) -> list:
    out = []
    for n in (4, 4, 3, 3, 3, 3):
        m = float(rng.uniform(0.5, 2.0))
        # every component away from zero: the ratio is 0/0 on an axis
        # where the center vanishes
        t = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
        cfg = {"metric": "schwarzschild", "n": n, "k": 1, "m": m,
               "center": t.tolist(), "radii": "20:5", "step": 1.0,
               "level": CENTER_LEVEL}
        out.append(Command("curvcenter", cfg,
                           {"n": n, "k": 1, "m": m, "center": t.tolist()}))
    return out


def _invariance_pullback(rng) -> list:
    out = []
    for _ in range(4):
        m = float(rng.uniform(0.5, 2.0))
        cfg = {"metric": "schwarzschild", "n": 4, "k": 1, "m": m,
               "center": _translation(rng, 4, 1.0), "radii": "20:5",
               "level": INVARIANCE_LEVEL, "zeta": "harmonic",
               "zeta_c": float(rng.uniform(0.1, 0.3)),
               # tau' = 1.0 sits on the (4,1) mass threshold and drifts
               "tau_prime": 1.6,
               "rotation_seed": int(rng.integers(0, 2**31)),
               "translation": rng.uniform(-1.0, 1.0, 4).tolist()}
        out.append(Command("invariance", cfg, {"n": 4, "k": 1, "m": m}))
    return out


def _verify_algebra(rng) -> list:
    return [Command("verify", {"n": n, "seed": int(rng.integers(0, 2**31))}, {})
            for n in (5, 6)]


GENERATORS = {
    "mass_highdim": _mass_highdim,
    "center_lowdim": _center_lowdim,
    "invariance_pullback": _invariance_pullback,
    "verify_algebra": _verify_algebra,
}


def build(name: str, seed: int) -> Workload:
    """The workload `name` with inputs drawn from `seed`."""
    commands = tuple(GENERATORS[name](np.random.default_rng(seed)))
    contexts = tuple(sorted({(c.config["n"], c.config["k"])
                             for c in commands if "k" in c.config}))
    return Workload(name, commands, contexts)


# ---------------------------------------------------------------------------
# closed forms and the checker
# ---------------------------------------------------------------------------

def curvcenter_ratio(n: int, k: int) -> float:
    """b_{n,k} = -2^(k+1) (n-1)! omega_{n-1} / (n-2k-1)!."""
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return (-(2.0 ** (k + 1)) * math.factorial(n - 1) * omega
            / math.factorial(n - 2 * k - 1))


def _finite_err(value: float) -> float:
    return value if math.isfinite(value) else math.inf


def check_results(cmd: Command, doc: dict) -> list[Op]:
    """Check one results document against the command's closed forms."""
    if doc.get("command") != cmd.command:
        raise ValueError(f"results are for {doc.get('command')!r}, "
                         f"expected {cmd.command!r}")
    res = doc["results"]
    e = cmd.expect
    if cmd.command == "mass":
        err = _finite_err(abs(res["mass"]["limit"] - e["m"] ** e["k"]))
        return [Op("mass", err <= MASS_TOL, err)]
    if cmd.command == "curvcenter":
        n, k = e["n"], e["k"]
        b = curvcenter_ratio(n, k)
        ops = []
        for i in range(n):
            r = res[f"curvcenter[{i}]"]
            ratio_err = _finite_err(abs(r["ratio"] / b - 1.0))
            # limit = b m^k C^i, so this is the center the flux implies
            center_err = _finite_err(abs(r["limit"] / (b * e["m"] ** k)
                                         - e["center"][i]))
            ok = ratio_err <= RATIO_RTOL and center_err <= CENTER_TOL
            ops.append(Op(f"curvcenter[{i}]", ok, max(ratio_err, center_err)))
        return ops
    if cmd.command == "invariance":
        r = res["mass"]
        mass_err = _finite_err(abs(r["mass_g"] - e["m"] ** e["k"]))
        err = max(_finite_err(abs(r["delta_limit"])), mass_err)
        return [Op("invariance", bool(r["passed"]) and mass_err <= MASS_TOL, err)]
    if cmd.command == "verify":
        return [Op(f"{c['name']}({c['p']},{c['q']})", bool(c["passed"]))
                for c in res["checks"]]
    raise ValueError(f"no checker for command {cmd.command!r}")


def failed_ops(cmd: Command, reason: str) -> list[Op]:
    """A command without usable output fails once per invariant it should
    have reported (once for `verify`)."""
    count = cmd.config["n"] if cmd.command == "curvcenter" else 1
    return [Op(f"{cmd.command}: {reason}", False)] * count


def max_err(ops: list[Op]) -> float:
    """Largest finite closed-form error of the operations (0 if none)."""
    return max((op.err for op in ops if op.err is not None and math.isfinite(op.err)),
               default=0.0)
