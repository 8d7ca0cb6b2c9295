"""Configuration-driven experiment runner.

Parses an INI-style config, dispatches geometry / kernel / solver /
inequality / covering experiments, and writes deterministic reports:

* ``report.json``   -- config echo, package version, and one record per
  inequality instance (full VerificationReport schema);
* ``summary.csv``   -- one row per instance with the fixed column order
  ``id,seed,lhs,rhs,fitted_c,pass`` (byte-identical across reruns of the
  same config and seed);
* a log line per instance carrying the inequality's anchor string.

Exit codes: 0 all gated checks pass, 1 some check failed (reports are
still written), 2 config error (also a config that cannot run, such as
weak-poincare or kernel-check at d >= 2) or a report ``--replay`` cannot
use, 3 hypothesis failure (any ``report.HypothesisError``, named in the
log), 4 numerical abort (non-finite values or a CFL violation), 5 any
other error (a one-line reason is logged, the traceback at DEBUG level).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import logging
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .fields import BoxCylinder, Grid, NegSobolevInput, ScalarField, VectorField
from .fpsolver import CFLError, NumericalAbort
from .geometry import (
    Cylinder,
    PhasePoint,
    check_stacking,
    cylinder_in_box,
    group_product,
    origin,
    q_bar,
    q_minus,
    q_one,
    q_pos,
    radius_power,
    stack_cylinders,
    uniform_from,
)
from .harness import (
    N_LOCAL,
    estimate_holder,
    local_norms,
    make_kernel_mixture,
    normalize_by_infimum,
    verify_expansion_of_positivity,
    verify_harnack,
    verify_minima_measure,
    verify_pop_large_times,
    verify_weak_harnack,
    verify_weak_poincare,
)
from .inkspots import generate_hypothesis_pair, verify_inkspots
from .kolmogorov import kernel_eval
from .report import HypothesisError, VerificationReport

logger = logging.getLogger("kinfp")

class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    out: str = "out"
    d: int = 1
    n_t: int = 16
    n_x: int = 24
    n_v: int = 24
    coeff_kind: str = "constant"
    lam: float = 1.0
    lambda_max: float = 1.0
    cell_size: float = 0.25
    params: dict = field(default_factory=dict)

    @property
    def grid_n(self):
        return (self.n_t, self.n_x, self.n_v)


_PARAM_DEFAULTS = {
    "theta": 0.5,
    "eta": 0.5,
    "omega": 1e-2,
    "m": 3,
    "p": 1.0,
    "eps": 1e-2,
    "mu": 0.3,
    "r0": 0.3,
    "c": 0.05,
    "big_c": 1.0,
    "count": 5,
    "levels": 5,
    "tolerance": 1e-10,
    "source_sup": 0.0,
}

#: The config keys outside [params]: (section, key) -> ExperimentConfig
#: field.  A key read from the file takes the type of the field's default.
_CONFIG_FIELDS = {
    ("experiment", "kind"): "kind",
    ("experiment", "seed"): "seed",
    ("experiment", "out"): "out",
    ("grid", "d"): "d",
    ("grid", "n_t"): "n_t",
    ("grid", "n_x"): "n_x",
    ("grid", "n_v"): "n_v",
    ("coefficients", "kind"): "coeff_kind",
    ("coefficients", "lam"): "lam",
    ("coefficients", "lambda_max"): "lambda_max",
    ("coefficients", "cell_size"): "cell_size",
}

_ALLOWED_KEYS = {
    section: {k for s, k in _CONFIG_FIELDS if s == section}
    for section, _ in _CONFIG_FIELDS
} | {"params": set(_PARAM_DEFAULTS)}

_PARAM_RANGES = {
    "theta": (0.0, 1.0),
    "eta": (0.0, 1.0),
    "omega": (0.0, 1e-2),
    "p": (0.0, math.inf),
    "eps": (0.0, 0.25),
    "mu": (0.0, 1.0),
    "r0": (0.0, 1.0),
    "c": (0.0, 1.0),
}


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    if "experiment" not in parser or "kind" not in parser["experiment"]:
        raise ConfigError("missing [experiment] kind")
    kind = parser["experiment"]["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind '{kind}'")
    defaults = {f.name: f.default for f in fields(ExperimentConfig)
                if f.default is not MISSING}
    try:
        values = {name: type(defaults[name])(parser[section][key])
                  for (section, key), name in _CONFIG_FIELDS.items()
                  if name in defaults and parser.has_option(section, key)}
        params = dict(_PARAM_DEFAULTS)
        if "params" in parser:
            for key in parser["params"]:
                params[key] = type(_PARAM_DEFAULTS[key])(parser["params"][key])
        cfg = ExperimentConfig(kind=kind, params=params, **values)
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    _check_config(cfg)
    return cfg


def _check_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError unless the config can be run: a known kind,
    parameters in range, a grid of at least 2 nodes per axis, and no
    weak-poincare fixture or kernel-check sampling grid at d >= 2 (either
    grid would not fit in memory)."""
    if cfg.kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind '{cfg.kind}'")
    for key, (lo, hi) in _PARAM_RANGES.items():
        val = cfg.params[key]
        if not lo < val <= hi:
            raise ConfigError(
                f"parameter {key} = {val} outside its range ({lo}, {hi}]"
            )
    if cfg.d < 1 or min(cfg.grid_n) < 2:
        raise ConfigError("grid spec must have d >= 1 and resolutions >= 2")
    if cfg.d >= 2 and cfg.kind in ("weak-poincare", "all", "kernel-check"):
        if cfg.kind == "kernel-check":
            name, what = "kernel-check", "sampling"
            n_t, n_x, n_v = 2, _KERNEL_NODES, _KERNEL_NODES
        else:
            name, what = "weak-poincare", "fixture"
            n_t, n_x, n_v = _ramp_grid_n(cfg)
        cells = n_t * (n_x * n_v) ** cfg.d
        raise ConfigError(
            f"kind {cfg.kind} at d = {cfg.d} needs the {name} {what} "
            f"grid of {n_t} x {n_x}^{cfg.d} x {n_v}^{cfg.d} = {cells} cells "
            f"({cells * 8 / 2**30:.1f} GiB per float64 array); {name} "
            "runs at d = 1 only"
        )


# ---------------------------------------------------------------------------
# experiment implementations: each returns a list of row dicts
# ---------------------------------------------------------------------------


def _row(exp: str, index: int, seed: int, report: VerificationReport) -> dict:
    return dict(report.to_dict(), id=f"{exp}/{report.inequality}/{index}",
                seed=seed)


def _run_geometry_check(cfg: ExperimentConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d
    n = 20000
    # n points per factor, each drawn as (t, x, v)
    z1, z2, z3 = (PhasePoint(w[:, 0], w[:, 1:1 + d], w[:, 1 + d:])
                  for w in rng.uniform(-5, 5, size=(3, n, 1 + 2 * d)))
    a = group_product(group_product(z1, z2), z3)
    b = group_product(z1, group_product(z2, z3))
    scale = (1.0 + np.abs(a.t) + np.max(np.abs(a.x), axis=-1)
             + np.max(np.abs(a.v), axis=-1))
    gap = (np.abs(a.t - b.t) + np.max(np.abs(a.x - b.x), axis=-1)
           + np.max(np.abs(a.v - b.v), axis=-1))
    err = float(np.max(gap / scale))
    rows = [_row("geometry-check", 0, cfg.seed, VerificationReport(
        "group-associativity", err, 1e-12, params={"samples": n},
        passed=err <= 1e-12))]
    count = int(cfg.params["count"]) * 40
    omega = 1e-2
    # base i is drawn as rng.uniform calls for r, t0, x0 (d), v0 (d)
    u = rng.random((count, 2 + 2 * d))
    r = uniform_from(u[:, 0], 1e-4, 9e-3)
    t0 = uniform_from(u[:, 1], -1.0 + radius_power(r, 2), -1.0 + omega**2)
    x0 = uniform_from(u[:, 2:2 + d], -omega**3 / 2, omega**3 / 2)
    v_max = (omega - r)[:, None]
    v0 = uniform_from(u[:, 2 + d:], -v_max, v_max)
    bases = Cylinder(PhasePoint(t0, x0, v0), r)
    inside = cylinder_in_box(bases, q_minus(omega, d))
    checks = check_stacking(stack_cylinders(bases.center[inside], r[inside],
                                            omega))
    fails = int(np.count_nonzero(~np.all(list(checks.values()), axis=0)))
    rows.append(_row("geometry-check", 1, cfg.seed, VerificationReport(
        "stacking-closed-form", float(fails), 0.0, params={"bases": count},
        passed=fails == 0)))
    return rows


#: x and v nodes per axis of each kernel-check sampling grid
_KERNEL_NODES = 160


def _run_kernel_check(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    d = cfg.d
    for i, s in enumerate((0.1, 0.5, 1.0)):
        rad = 10.0 * math.sqrt(2 * s)
        radx = 10.0 * math.sqrt(2 * s**3 / 3)
        box = BoxCylinder(s - 1e-9, s, np.zeros(d), radx, np.zeros(d), rad)
        grid = Grid(box, 2, _KERNEL_NODES, _KERNEL_NODES)
        pole = origin(d)
        fld = grid.sample(lambda T, X, V: kernel_eval(T, X, V, pole))
        # time-slice quadrature at the top node t = s; the sums below run in
        # the memory order of Grid.coords, which fixes their last bits
        T, X, V = grid.coords
        w = np.zeros_like(fld.values)
        w[-1] = fld.values[-1] * (grid.dx * grid.dv) ** d
        mass = float(np.sum(w))
        var_v = float(np.sum(w * V[..., 0] ** 2) / mass)
        cov_xv = float(np.sum(w * X[..., 0] * V[..., 0]) / mass)
        var_x = float(np.sum(w * X[..., 0] ** 2) / mass)
        err = max(abs(mass - 1.0), abs(var_v - 2 * s), abs(cov_xv - s**2),
                  abs(var_x - 2 * s**3 / 3))
        rows.append(_row("kernel-check", i, cfg.seed, VerificationReport(
            "kernel-moments", err, 1e-6,
            params={"s": s, "mass": mass, "var_v": var_v, "cov_xv": cov_xv,
                    "var_x": var_x},
            passed=err <= 1e-6)))
    return rows


def _run_solve(cfg: ExperimentConfig) -> list[dict]:
    from .fields import make_coefficients
    from .fpsolver import SolverConfig, solve, weak_residual, default_test_set

    d = cfg.d
    box = BoxCylinder(0.5, 1.0, np.zeros(d), 6.0, np.zeros(d), 5.0)
    grid = Grid(box, cfg.n_t, cfg.n_x, cfg.n_v)
    coeffs = make_coefficients(grid, cfg.coeff_kind, cfg.lam, cfg.lambda_max,
                               cell_size=cfg.cell_size, seed=cfg.seed)
    pole = origin(d)
    # the kernel at the opening time, on the first slice of the open
    # coordinates
    _, X, V = grid.open_coords
    init = kernel_eval(box.t_min, X[0], V[0], pole)
    f = solve(SolverConfig(coeffs, init))
    rows = []
    if cfg.coeff_kind == "constant" and cfg.lam == cfg.lambda_max == 1.0:
        exact = grid.sample(lambda T, X, V: kernel_eval(T, X, V, pole)).values
        l1 = float(np.sum(np.abs(f.values - exact)) * grid.cell_volume)
        rows.append(_row("solve", 0, cfg.seed, VerificationReport(
            "kernel-tracking-l1", l1, 1.0, params={"n": list(cfg.grid_n)},
            passed=l1 < 1.0)))
    res = weak_residual(f, coeffs, "solution", default_test_set(grid, 3,
                                                                cfg.seed))
    rows.append(_row("solve", 1, cfg.seed, VerificationReport(
        "weak-residual-solution", res["max"], res["tol"],
        params={"mode": "solution"}, passed=res["passed"])))
    neg = float(np.min(f.values))
    rows.append(_row("solve", 2, cfg.seed, VerificationReport(
        "positivity-preservation", -neg, 1e-12, passed=neg >= -1e-12)))
    return rows


def _ramp_grid_n(cfg: ExperimentConfig) -> tuple[int, int, int]:
    """(n_t, n_x, n_v) of the weak-poincare fixture grid: the x-resolution
    must place cell centers inside the vanishing-set box of x-radius
    eta^3."""
    return max(cfg.n_t, 64), max(cfg.n_x, 128), max(cfg.n_v, 24)


def _ramp_fixture(cfg: ExperimentConfig, eta: float):
    d = cfg.d
    box = BoxCylinder(-1.0 - eta**2, 0.0, np.zeros(d), 8.0, np.zeros(d), 2.0)
    grid = Grid(box, *_ramp_grid_n(cfg))
    f = grid.sample(lambda T, X, V: np.clip(V[..., 0] - 0.25, 0.0, None))
    H = NegSobolevInput(
        ScalarField(grid, np.zeros(grid.shape)),
        VectorField(grid, np.zeros(grid.shape + (d,))),
    )
    return f, H


def _run_weak_poincare(cfg: ExperimentConfig) -> list[dict]:
    eta = cfg.params["eta"]
    f, H = _ramp_fixture(cfg, eta)
    return [_row("weak-poincare", 0, cfg.seed,
                 verify_weak_poincare(f, H, eta))]


def _run_pop(cfg: ExperimentConfig) -> list[dict]:
    theta = cfg.params["theta"]
    rows = []
    for i in range(int(cfg.params["count"])):
        seed = cfg.seed * 1009 + i
        f0, _ = make_kernel_mixture(seed, d=cfg.d)
        f = normalize_by_infimum(f0, q_pos(theta, cfg.d))
        rows.append(_row("pop", i, seed, verify_expansion_of_positivity(
            f, theta, eps=cfg.params["eps"],
            source_sup=cfg.params["source_sup"], d=cfg.d)))
    return rows


def _run_minima_measure(cfg: ExperimentConfig) -> list[dict]:
    m = int(cfg.params["m"])
    rows = []
    for i in range(int(cfg.params["count"])):
        seed = cfg.seed * 1013 + i
        f0, _ = make_kernel_mixture(seed, d=cfg.d, pole_time=(-8.0, -4.0))
        f = normalize_by_infimum(f0, q_bar(m, cfg.d))
        vals = local_norms(f, q_one(cfg.d), N_LOCAL).values
        M = float(np.quantile(vals, 0.45))
        rows.append(_row("minima-measure", i, seed,
                         verify_minima_measure(f, m, M, d=cfg.d)))
    return rows


def _run_pop_large_times(cfg: ExperimentConfig) -> list[dict]:
    omega = cfg.params["omega"]
    rows = []
    for i in range(int(cfg.params["count"])):
        seed = cfg.seed * 1019 + i
        rng = np.random.default_rng(seed)
        r = float(rng.uniform(0.002, 0.005))
        z0 = PhasePoint(-1.0 + r**2 + float(rng.uniform(0, omega**2 - r**2)),
                        np.zeros(cfg.d), np.zeros(cfg.d))
        f0, _ = make_kernel_mixture(seed, d=cfg.d)
        f = normalize_by_infimum(f0, Cylinder(z0, r))
        rows.append(_row("pop-large-times", i, seed, verify_pop_large_times(
            f, z0, r, omega=omega)))
    return rows


def _run_weak_harnack(cfg: ExperimentConfig) -> list[dict]:
    p = cfg.params["p"]
    omega = cfg.params["omega"]
    tol = cfg.params["tolerance"]
    const = lambda T, X, V: np.full(np.asarray(T, dtype=float).shape, 1.0)
    rep = verify_weak_harnack(const, p=p, omega=omega, d=cfg.d)
    exact = q_minus(omega, cfg.d).volume() ** (1.0 / p)
    rep = replace(
        rep, params={**rep.params, "expected_c": exact},
        passed=rep.passed and abs(rep.fitted_c - exact) <= tol * exact)
    rows = [_row("weak-harnack", 0, cfg.seed, rep)]
    # one refinement doubles every axis: 32x the 5.3M cells of a d = 2
    # local grid, so d = 2 rows report the base grid only
    refine = 1 if cfg.d == 1 else 0
    for i in range(int(cfg.params["count"])):
        seed = cfg.seed * 1021 + i
        f, _ = make_kernel_mixture(seed, d=cfg.d)
        rows.append(_row("weak-harnack", i + 1, seed, verify_weak_harnack(
            f, p=p, omega=omega, source_sup=cfg.params["source_sup"],
            d=cfg.d, refine=refine)))
    return rows


def _run_harnack(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for i in range(int(cfg.params["count"])):
        seed = cfg.seed * 1031 + i
        f, _ = make_kernel_mixture(seed, d=cfg.d)
        rows.append(_row("harnack", i, seed, verify_harnack(
            f, omega=cfg.params["omega"],
            source_sup=cfg.params["source_sup"], d=cfg.d)))
    return rows


def _run_holder(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for i in range(int(cfg.params["count"])):
        seed = cfg.seed * 1033 + i
        # poles before the sampled window (-2, 0], where the kernel is defined
        f, _ = make_kernel_mixture(seed, d=cfg.d, n_terms=2,
                                   pole_time=(-8.0, -4.0))
        rows.append(_row("holder", i, seed, estimate_holder(
            f, levels=int(cfg.params["levels"]), d=cfg.d)))
    return rows


def _run_inkspots(cfg: ExperimentConfig) -> list[dict]:
    p = cfg.params
    rows = []
    for i in range(int(p["count"])):
        seed = cfg.seed * 1039 + i
        E, F = generate_hypothesis_pair(seed, k=4, m=int(p["m"]), r0=p["r0"],
                                        n=cfg.grid_n, d=cfg.d)
        rows.append(_row("inkspots", i, seed, verify_inkspots(
            E, F, mu=p["mu"], m=int(p["m"]), r0=p["r0"], c=p["c"],
            C=p["big_c"])))
    return rows


_RUNNERS = {
    "geometry-check": _run_geometry_check,
    "kernel-check": _run_kernel_check,
    "solve": _run_solve,
    "weak-poincare": _run_weak_poincare,
    "pop": _run_pop,
    "minima-measure": _run_minima_measure,
    "pop-large-times": _run_pop_large_times,
    "weak-harnack": _run_weak_harnack,
    "harnack": _run_harnack,
    "holder": _run_holder,
    "inkspots": _run_inkspots,
}

# the runners in dispatch order, then "all", which runs each of them
EXPERIMENT_KINDS = [*_RUNNERS, "all"]


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _csv_bytes(rows: list[dict]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "seed", "lhs", "rhs", "fitted_c", "pass"])
    for r in rows:
        fitted = r["fitted_c"]
        writer.writerow([
            r["id"], r["seed"], repr(float(r["lhs"])), repr(float(r["rhs"])),
            "" if fitted is None else repr(float(fitted)),
            "pass" if r["passed"] else "fail",
        ])
    return buf.getvalue().encode()


def _run_kinds(cfg: ExperimentConfig) -> list[dict]:
    """The rows of every configured kind, in dispatch order, each kind's
    rows sorted by (id, seed)."""
    kinds = list(_RUNNERS) if cfg.kind == "all" else [cfg.kind]
    rows: list[dict] = []
    for k in kinds:
        rows.extend(sorted(_RUNNERS[k](cfg),
                           key=lambda r: (r["id"], r["seed"])))
    return rows


def run(config_path: str, seed: int | None = None,
        out: str | None = None) -> int:
    """Execute the configured experiments; returns the process exit code."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    if seed is not None:
        cfg.seed = seed
    if out is not None:
        cfg.out = out
    try:
        rows = _run_kinds(cfg)
    except HypothesisError as exc:
        logger.error("hypothesis failure: %s", exc)
        return 3
    except (NumericalAbort, CFLError) as exc:
        logger.error("numerical abort: %s", exc)
        return 4
    except Exception as exc:
        logger.error("error: %s: %s", type(exc).__name__, exc)
        logger.debug("traceback", exc_info=True)
        return 5
    for r in rows:
        logger.info("check %s [%s]: lhs=%.6e rhs=%.6e %s", r["id"],
                    r["inequality"], r["lhs"], r["rhs"],
                    "pass" if r["passed"] else "fail")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": __version__,
        "config": {
            "kind": cfg.kind, "seed": cfg.seed, "d": cfg.d,
            "grid": list(cfg.grid_n),
            "coefficients": {"kind": cfg.coeff_kind, "lam": cfg.lam,
                             "lambda_max": cfg.lambda_max,
                             "cell_size": cfg.cell_size},
            "params": cfg.params,
        },
        "reports": rows,
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (out_dir / "summary.csv").write_bytes(_csv_bytes(rows))
    return 0 if all(r["passed"] for r in rows) else 1


def replay(report_path: str) -> bool:
    """Re-derive every recorded constant from the stored config and seed.

    Returns True iff the rerun reproduces id, lhs, rhs, fitted_c and
    passed of every record bit-identically; otherwise logs one ERROR line
    naming where the runs first diverge.  Raises RuntimeError with a
    one-line reason when the report cannot be read, is not JSON, lacks its
    config or reports, was written by another package version, or holds a
    config that ``load_config`` would refuse (``_check_config``).
    """
    try:
        payload = json.loads(Path(report_path).read_text())
    except OSError as exc:
        raise RuntimeError(f"cannot read report: {exc}") from None
    except ValueError as exc:
        raise RuntimeError(f"report is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise RuntimeError("report is not a JSON object")
    if payload.get("version") != __version__:
        raise RuntimeError(
            f"version mismatch: report {payload.get('version')}, "
            f"package {__version__}"
        )
    try:
        c = payload["config"]
        old = payload["reports"]
        cfg = ExperimentConfig(
            kind=c["kind"], seed=c["seed"], d=c["d"],
            n_t=c["grid"][0], n_x=c["grid"][1], n_v=c["grid"][2],
            coeff_kind=c["coefficients"]["kind"],
            lam=c["coefficients"]["lam"],
            lambda_max=c["coefficients"]["lambda_max"],
            cell_size=c["coefficients"]["cell_size"],
            params=dict(c["params"]),
        )
        _check_config(cfg)
    except (KeyError, IndexError, TypeError) as exc:
        raise RuntimeError(
            f"report lacks a valid config or reports: {exc!r}") from None
    except ConfigError as exc:
        raise RuntimeError(f"report config is invalid: {exc}") from None
    rows = _run_kinds(cfg)
    for a, b in zip(old, rows):
        for key in ("id", "lhs", "rhs", "fitted_c", "passed"):
            if a.get(key) != b.get(key):
                logger.error("replay diverges at %s, key %s: report %r, "
                             "rerun %r", a.get("id"), key, a.get(key),
                             b.get(key))
                return False
    if len(old) != len(rows):
        logger.error("replay diverges: report has %d records, rerun %d",
                     len(old), len(rows))
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kinfp",
        description="run kinetic Fokker-Planck inequality experiments",
    )
    parser.add_argument("--config", help="path to the experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--list-experiments", action="store_true",
                        help="print known experiment kinds and exit")
    parser.add_argument("--replay", metavar="REPORT",
                        help="re-derive constants from a report.json")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=os.environ.get("KH_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.list_experiments:
        print("\n".join(EXPERIMENT_KINDS))
        return 0
    if args.replay:
        try:
            ok = replay(args.replay)
        except RuntimeError as exc:
            logger.error("%s", exc)
            return 2
        print("replay ok" if ok else "replay mismatch")
        return 0 if ok else 1
    if not args.config:
        parser.error("--config is required (or use --list-experiments)")
    return run(args.config, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
