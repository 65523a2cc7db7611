"""Command-line front end.

Commands
--------
run
    Evolve a model over one or more horizons and write one report row per
    horizon.
epsilon-sweep
    Threshold-crossing times of the trace distance to the stationary
    state, with the arithmetic resolution floor reported as a footer.
divergence-scan
    Reports over an ascending horizon list at fixed grid spacing
    (``--steps`` counts steps per unit time here).
verify
    Run the invariant suite; exit 0 iff every group passes.
models
    Describe the built-in model catalog.

Output is deterministic RFC-4180-style CSV with ``.`` decimals, floats at
17 significant digits (lossless round-trip), and ``#``-prefixed footer
comments.  Exit codes: 0 success, 1 verify failure, 2 configuration
error (nothing is written to ``--out``; this includes a ``--steps`` whose
trajectory would exceed ``dynamics.MAX_TRAJECTORY_BYTES``), 3 numerical
failure.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .bounds import (
    DEFAULT_ATOL,
    _horizon_steps,
    build_report,
    divergence_scan,
    stopping_time_curve,
)
from .dynamics import (
    CATALOG_BUILDERS,
    MIN_STEPS,
    _require_storage,
    evolve,
    load_model,
    matrix_from_wire,
    model_by_name,
    stationary_state,
    EXCITED_STATE,
    PLUS_STATE,
)
from .errors import ModelError, QslError, StateError, StationaryStateError
from .states import bloch_to_state, require_density_matrix

__all__ = ["main", "build_parser"]

REPORT_HEADER = (
    "model,gamma,omega,tau,steps,bures_angle,path_length,ratio,"
    "tau_min,tau_av,tau_op,tau_hs,tau_tr,gap,verdict,tolerance"
)
SWEEP_HEADER = "epsilon,T,saturated"

DEFAULT_EPS_LIST = [10.0 ** (-k) for k in range(1, 21)]


class ConfigError(Exception):
    """Invalid command-line or config-file input (exit code 2)."""


def _fmt(x):
    return "%.17g" % float(x)


def _parse_float_list(text, flag):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag}: empty list")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{flag}: expected finite numbers, got {text!r}")
    return values


def _require_horizons(taus, flag):
    if not all(math.isfinite(t) and t > 0 for t in taus):
        raise ConfigError(f"{flag}: horizons must be positive and finite")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qslpath",
        description="Speed-limit estimates along open-quantum-system trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p, steps_help):
        p.add_argument("--model", help="catalog model name or path to a model JSON file")
        p.add_argument("--gamma", type=float, default=None, help="jump rate (default 1.0)")
        p.add_argument("--omega", type=float, default=None, help="drive frequency (default 1.0)")
        p.add_argument("--tau", type=float, default=None, help="evolution horizon")
        p.add_argument("--tau-list", default=None, help="comma-separated horizons a,b,c")
        p.add_argument("--steps", type=int, default=None, help=steps_help)
        p.add_argument(
            "--init",
            default=None,
            help="initial state: 'excited', 'plus', a Bloch triple x,y,z, or a "
            "state JSON file path (default: the model's canonical state)",
        )
        p.add_argument("--eps-list", default=None, help="descending thresholds e1,e2,...")
        p.add_argument(
            "--atol-attainable",
            type=float,
            default=None,
            help="attainability tolerance in Bures radians (default 1e-3)",
        )
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--config", default=None, help="JSON file carrying the same fields")

    add_shared(sub.add_parser("run", help="bound report per horizon"),
               "integration steps per horizon (default 4000)")
    add_shared(sub.add_parser("epsilon-sweep", help="stopping-time curve"),
               "integration steps (default 20000)")
    add_shared(sub.add_parser("divergence-scan", help="reports over a horizon sweep"),
               "integration steps per unit time (default 500)")
    sub.add_parser("verify", help="run the invariant suite")
    sub.add_parser("models", help="describe the built-in models")
    return parser


CONFIG_KEYS = {
    "model": str,
    "gamma": (int, float),
    "omega": (int, float),
    "tau": (int, float),
    "tau_list": list,
    "steps": int,
    "init": str,
    "eps_list": list,
    "atol_attainable": (int, float),
    "out": str,
}


def _merge_config(args):
    """Fill unset flags from a JSON config; explicit flags win."""
    if getattr(args, "config", None) is None:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("--config: expected a JSON object")
    for key, value in doc.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"--config: unknown field {key!r}")
        if not isinstance(value, CONFIG_KEYS[key]) or isinstance(value, bool):
            raise ConfigError(f"--config: field {key!r} has wrong type")
        attr = key
        if getattr(args, attr, None) is None:
            if key in ("tau_list", "eps_list"):
                value = ",".join(str(v) for v in value)
            setattr(args, attr, value)


def _resolve_model(args):
    if args.model is None:
        raise ConfigError("--model is required")
    gamma = 1.0 if args.gamma is None else args.gamma
    omega = 1.0 if args.omega is None else args.omega
    for flag, value in (("--gamma", gamma), ("--omega", omega)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{flag}: must be finite and nonnegative, got {value}")
    if args.model in CATALOG_BUILDERS:
        return model_by_name(args.model, gamma=gamma, omega=omega)
    if args.model.endswith(".json") or os.path.exists(args.model):
        try:
            return load_model(args.model)
        except OSError as exc:
            raise ConfigError(f"--model: {exc}") from None
        except ModelError as exc:
            raise ConfigError(f"--model: {exc}") from None
    known = ", ".join(sorted(CATALOG_BUILDERS))
    raise ConfigError(f"unknown model {args.model!r}; known models: {known}")


def _resolve_init(args, model):
    spec = args.init
    if spec is None:
        if model.rho0 is None:
            raise ConfigError(f"model {model.name!r} has no canonical initial state; pass --init")
        return model.rho0
    try:
        if spec == "excited":
            rho0 = EXCITED_STATE.copy()
        elif spec == "plus":
            rho0 = PLUS_STATE.copy()
        elif "," in spec:
            parts = _parse_float_list(spec, "--init")
            if len(parts) != 3:
                raise ConfigError(f"--init: Bloch triple needs 3 components, got {len(parts)}")
            rho0 = bloch_to_state(np.array(parts))
        else:
            with open(spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or "dim" not in doc or "matrix" not in doc:
                raise ConfigError(f"--init: {spec}: expected {{\"dim\": n, \"matrix\": [...]}}")
            rho0 = matrix_from_wire(doc["matrix"], int(doc["dim"]), "matrix")
        return require_density_matrix(rho0, name="--init state")
    except (StateError, ModelError) as exc:
        raise ConfigError(f"--init: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"--init: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--init: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def _common_numbers(args):
    steps_default = {"run": 4000, "epsilon-sweep": 20000, "divergence-scan": 500}
    steps = args.steps if args.steps is not None else steps_default[args.command]
    if steps < MIN_STEPS:
        raise ConfigError(f"--steps: must be at least {MIN_STEPS}, got {steps}")
    atol = DEFAULT_ATOL if args.atol_attainable is None else args.atol_attainable
    if not (math.isfinite(atol) and atol > 0):
        raise ConfigError("--atol-attainable: must be positive and finite")
    return steps, atol


def _require_trajectory_fits(model, steps):
    try:
        _require_storage(model.dim, steps)
    except ModelError as exc:
        raise ConfigError(f"--steps: {exc}") from None


def _report_row(model, report):
    verdict = report.verdict
    return ",".join(
        [
            model.name,
            _fmt(model.gamma),
            _fmt(model.omega),
            _fmt(report.tau),
            str(report.steps),
            _fmt(report.bures),
            _fmt(report.length),
            _fmt(report.ratio),
            _fmt(report.tau_min),
            _fmt(report.tau_av),
            _fmt(report.tau_op),
            _fmt(report.tau_hs),
            _fmt(report.tau_tr),
            _fmt(verdict.gap),
            verdict.kind,
            _fmt(verdict.tolerance),
        ]
    )


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_run(args):
    model = _resolve_model(args)
    rho0 = _resolve_init(args, model)
    steps, atol = _common_numbers(args)
    if args.tau is not None:
        taus = [args.tau]
        _require_horizons(taus, "--tau")
    elif args.tau_list is not None:
        taus = _parse_float_list(args.tau_list, "--tau-list")
        _require_horizons(taus, "--tau-list")
    else:
        raise ConfigError("run: pass --tau or --tau-list")
    _require_trajectory_fits(model, steps)
    lines = [REPORT_HEADER]
    for tau in taus:
        report = build_report(evolve(model, rho0, tau, steps), atol=atol)
        lines.append(_report_row(model, report))
    _emit(lines, args.out)
    return 0


def cmd_epsilon_sweep(args):
    model = _resolve_model(args)
    rho0 = _resolve_init(args, model)
    steps, _ = _common_numbers(args)
    if args.tau is None:
        raise ConfigError("epsilon-sweep: pass --tau (the horizon)")
    _require_horizons([args.tau], "--tau")
    _require_trajectory_fits(model, steps)
    if args.eps_list is not None:
        eps = _parse_float_list(args.eps_list, "--eps-list")
    else:
        eps = list(DEFAULT_EPS_LIST)
    if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("--eps-list: thresholds must be positive and strictly descending")
    try:
        rho_f, _ = stationary_state(model)
    except StationaryStateError as exc:
        raise ConfigError(f"epsilon-sweep: {exc}") from None
    traj = evolve(model, rho0, args.tau, steps)
    curve = stopping_time_curve(traj, rho_f, eps)
    lines = [SWEEP_HEADER]
    for e, t, sat in zip(curve.epsilons, curve.times, curve.saturated):
        lines.append(f"{_fmt(e)},{_fmt(t)},{'true' if sat else 'false'}")
    lines.append(f"# floor_epsilon={_fmt(curve.floor_epsilon)}")
    _emit(lines, args.out)
    return 0


def cmd_divergence_scan(args):
    model = _resolve_model(args)
    rho0 = _resolve_init(args, model)
    steps, atol = _common_numbers(args)
    if args.tau_list is None:
        raise ConfigError("divergence-scan: pass --tau-list")
    taus = _parse_float_list(args.tau_list, "--tau-list")
    _require_horizons(taus, "--tau-list")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError("--tau-list: horizons must be strictly ascending")
    try:
        _require_storage(model.dim, _horizon_steps(taus[-1], steps))
    except ModelError as exc:
        raise ConfigError(f"--steps: {exc}") from None
    reports = divergence_scan(model, rho0, taus, steps, atol=atol)
    lines = [REPORT_HEADER]
    for report in reports:
        lines.append(_report_row(model, report))
    _emit(lines, args.out)
    return 0


def cmd_verify(_args):
    results = verify_mod.run_all()
    ok_all = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        ok_all = ok_all and ok
    return 0 if ok_all else 1


MODEL_DOCS = """\
amplitude-damping   decay |1> -> |0> at rate --gamma; starts at |1><1|.
                    Bures-geodesic path; every estimate is attainable.
pure-dephasing      coherence decay under sigma_z at rate --gamma; starts
                    at |+><+|.  Also a geodesic path.
precession          unitary rotation, H = (omega/2) sigma_z with --omega;
                    starts at |+><+|.  Constant speed omega/2; no
                    stationary state.
spiral              precession plus dephasing (--gamma and --omega); starts
                    at |+><+|.  Non-geodesic for omega > 0: estimates are
                    finite but unattainable, norm-speed bounds diverge with
                    the horizon, and the stationary state I/2 is approached
                    only asymptotically.

A path to a JSON file may be given instead of a name:
  {"dim": n, "hamiltonian": [[re, im], ...],
   "jumps": [{"matrix": [[re, im], ...], "rate": g}, ...]}
with matrices as row-major lists of [re, im] pairs.  Custom models need an
explicit --init."""


def cmd_models(_args):
    print(MODEL_DOCS)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "epsilon-sweep": cmd_epsilon_sweep,
        "divergence-scan": cmd_divergence_scan,
        "verify": cmd_verify,
        "models": cmd_models,
    }
    try:
        if args.command in ("run", "epsilon-sweep", "divergence-scan"):
            _merge_config(args)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QslError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
