"""Seeded request streams, the calls each request makes, the probes that
split multi-layer calls by module, and the checks on each request's output.

Every request mirrors one CLI command and makes the same library calls
that command makes:

* ``divergence-scan``: model constructor, then ``divergence_scan``;
* ``epsilon-sweep``: model constructor, ``stationary_state``, ``evolve``,
  ``stopping_time_curve``;
* ``run``: ``model_from_dict`` on wire-format JSON text, ``evolve``,
  ``build_report`` (dense-report), or the ``LindbladModel`` constructor and
  ``report_for_model`` (short-batch).

Requests come in rounds.  A round is the smallest list that covers a
workload's mix once (both request types, or every dimension), and the
benchmark measures whole rounds, so the mix of a run does not depend on how
many requests fit into it.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from qslpath import (
    LindbladModel,
    bures_angle,
    build_report,
    classify_attainability,
    cli,
    deffner_lutz,
    divergence_scan,
    evolve,
    model_by_name,
    model_from_dict,
    path_length,
    report_for_model,
    speed_profile,
    stationary_state,
    stopping_time_curve,
    tau_av,
    tau_min,
)
from qslpath.bounds import DEFAULT_ATOL, PURITY_TOL

WORKLOADS = ("qubit-horizon", "dense-report", "short-batch")
# The warm-up request and the stored fingerprints use this seed whatever
# seed the run was given, so set-up time and fingerprints compare across runs.
REFERENCE_SEED = 0

SCAN_MODELS = ("amplitude-damping", "pure-dephasing", "precession", "spiral")
SWEEP_MODELS = ("amplitude-damping", "pure-dephasing", "spiral")
SCAN_TAUS = (2.0, 4.0, 8.0)
SCAN_STEPS_PER_UNIT = 500
SWEEP_STEPS = 20000
SWEEP_HORIZON_RATE_TIMES = 20.0
EPS_LADDER = tuple(cli.DEFAULT_EPS_LIST)
DENSE_DIMS = (6, 7, 8)
DENSE_STEPS = 400
SHORT_DIMS = (2, 3, 4)
SHORT_STEPS = 64

QUADRATURE_BUDGET = 1e-4
IDENTITY_RTOL = 1e-12

REPORT_COLUMNS = (
    "model,gamma,omega,tau,steps,bures_angle,path_length,ratio,"
    "tau_min,tau_av,tau_op,tau_hs,tau_tr,gap,verdict,tolerance"
)
SWEEP_COLUMNS = "epsilon,T,saturated"


@dataclass(frozen=True)
class Request:
    """One request.  ``steps`` counts steps per unit time for
    ``divergence-scan`` and total steps otherwise, as the CLI does.
    Catalog requests start from the model's canonical state (``rho0`` is
    None); custom models arrive as wire JSON text (``wire``) or as arrays
    (``hamiltonian`` and ``jumps``)."""

    command: str
    model: str
    dim: int
    steps: int
    tau: float = math.nan
    taus: tuple = ()
    gamma: float = math.nan
    omega: float = math.nan
    wire: str = None
    hamiltonian: np.ndarray = None
    jumps: tuple = ()
    rho0: np.ndarray = None


@dataclass
class Result:
    model: LindbladModel
    reports: list = None
    curve: object = None
    traj: object = None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_hermitian(rng, dim):
    g = _complex_normal(rng, (dim, dim))
    return 0.5 * (g + g.conj().T)


def _random_jumps(rng, dim):
    return tuple(
        (_complex_normal(rng, (dim, dim)) / np.sqrt(dim), float(rng.uniform(0.1, 1.0)))
        for _ in range(int(rng.integers(1, 3)))
    )


def _random_mixed(rng, dim):
    g = _complex_normal(rng, (dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _random_pure(rng, dim):
    psi = _complex_normal(rng, dim)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _wire_matrix(a):
    return [[float(z.real), float(z.imag)] for z in np.asarray(a).ravel()]


def _wire_model(name, hamiltonian, jumps):
    return {
        "name": name,
        "dim": int(hamiltonian.shape[0]),
        "hamiltonian": _wire_matrix(hamiltonian),
        "jumps": [{"matrix": _wire_matrix(op), "rate": rate} for op, rate in jumps],
    }


def _qubit_round(rng, r):
    # Two scans around one sweep: sweeps take longer than scans, and with
    # equal counts the median would sit in the gap between the two groups,
    # set by one request of each.
    def scan(k):
        gamma, omega = float(rng.uniform(0.2, 2.0)), float(rng.uniform(1.0, 8.0))
        return Request(
            "divergence-scan", SCAN_MODELS[k % len(SCAN_MODELS)], 2, SCAN_STEPS_PER_UNIT,
            taus=SCAN_TAUS, gamma=gamma, omega=omega,
        )

    first = scan(2 * r)
    gamma, omega = float(rng.uniform(0.2, 2.0)), float(rng.uniform(1.0, 8.0))
    sweep = Request(
        "epsilon-sweep", SWEEP_MODELS[r % len(SWEEP_MODELS)], 2, SWEEP_STEPS,
        tau=SWEEP_HORIZON_RATE_TIMES / gamma, gamma=gamma, omega=omega,
    )
    return [first, sweep, scan(2 * r + 1)]


def _dense_round(rng, r):
    out = []
    for k, dim in enumerate(DENSE_DIMS):
        doc = _wire_model("dense", _random_hermitian(rng, dim), _random_jumps(rng, dim))
        pure = (r * len(DENSE_DIMS) + k) % 2 == 0
        rho0 = _random_pure(rng, dim) if pure else _random_mixed(rng, dim)
        out.append(Request(
            "run", "dense", dim, DENSE_STEPS, tau=float(rng.uniform(0.5, 2.0)),
            wire=json.dumps(doc), rho0=rho0,
        ))
    return out


def _short_round(rng, r):
    out = []
    for dim in SHORT_DIMS:
        out.append(Request(
            "run", "random", dim, SHORT_STEPS,
            hamiltonian=_random_hermitian(rng, dim), jumps=_random_jumps(rng, dim),
            rho0=_random_mixed(rng, dim), tau=float(rng.uniform(0.5, 2.0)),
        ))
    return out


_ROUNDS = {
    "qubit-horizon": _qubit_round,
    "dense-report": _dense_round,
    "short-batch": _short_round,
}


def rounds(workload, seed):
    """Endless stream of request rounds, determined by ``workload`` and ``seed``."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    r = 0
    while True:
        yield _ROUNDS[workload](rng, r)
        r += 1


def reference_request(workload):
    return next(rounds(workload, REFERENCE_SEED))[0]


def grid_points(req):
    """States on the trajectories a request integrates."""
    if req.command == "divergence-scan":
        return sum(max(16, int(round(req.steps * tau))) + 1 for tau in req.taus)
    return req.steps + 1


# ---------------------------------------------------------------------------
# Requests and probes
# ---------------------------------------------------------------------------


def _build_model(req, tr):
    with tr.span("dynamics", "model_build"):
        if req.wire is not None:
            return model_from_dict(json.loads(req.wire))
        if req.hamiltonian is not None:
            return LindbladModel(
                name=req.model, dim=req.dim, hamiltonian=req.hamiltonian, jumps=list(req.jumps)
            )
        return model_by_name(req.model, gamma=req.gamma, omega=req.omega)


def _evolve(model, rho0, tau, steps, tr):
    with tr.span("dynamics", "evolve") as sp:
        traj = evolve(model, rho0, tau, steps)
        sp.add("rk4_steps", traj.steps)
        sp.add("traj_bytes", traj.states.nbytes + traj.derivatives.nbytes)
    return traj


def run_request(req, tr):
    """Make the library calls of the CLI command ``req`` mirrors."""
    model = _build_model(req, tr)
    rho0 = model.rho0 if req.rho0 is None else req.rho0
    if req.command == "divergence-scan":
        with tr.span("bounds", "divergence_scan"):
            reports = divergence_scan(model, rho0, req.taus, req.steps)
        return Result(model, reports=reports)
    if req.command == "epsilon-sweep":
        with tr.span("dynamics", "stationary_state"):
            rho_f, _ = stationary_state(model)
        traj = _evolve(model, rho0, req.tau, req.steps, tr)
        with tr.span("bounds", "stopping_time_curve") as sp:
            curve = stopping_time_curve(traj, rho_f, EPS_LADDER)
            sp.add("stopping_points", len(traj.times))
        return Result(model, curve=curve)
    if req.wire is not None:
        traj = _evolve(model, rho0, req.tau, req.steps, tr)
        with tr.span("bounds", "build_report"):
            report = build_report(traj)
        return Result(model, reports=[report], traj=traj)
    with tr.span("bounds", "report_for_model"):
        report = report_for_model(model, rho0, req.tau, req.steps)
    return Result(model, reports=[report])


def has_probe(req):
    return req.command != "epsilon-sweep"


def _decompose_report(traj, tr):
    """``build_report`` as its README decomposition, one span per module."""
    with tr.span("geometry", "speed_profile") as sp:
        profile = speed_profile(traj)
        origin = 0 if profile.origin_times is None else len(profile.origin_times)
        sp.add("samples", len(profile.times) + origin)
        sp.add("origin_samples", origin)
    with tr.span("geometry", "path_length"):
        pl = path_length(profile)
    with tr.span("states", "bures_angle"):
        bures = bures_angle(traj.states[0], traj.states[-1])
    with tr.span("bounds", "estimates"):
        total = float(pl.length[-1])
        tau = float(traj.times[-1])
        classify_attainability(bures, total, tol=DEFAULT_ATOL)
        tau_min(pl, bures, tol=DEFAULT_ATOL)
        tau_av(pl, bures, tau, tol=DEFAULT_ATOL)
        if pl.initial_purity > 1.0 - PURITY_TOL and pl.norm_integral("op")[-1] > 0.0:
            for which in ("op", "hs", "tr"):
                deffner_lutz(pl, bures, tau, which)


def probe(req, result, tr):
    """Repeat the work of the request's multi-layer call on the same
    inputs, split into one span per module."""
    model = result.model
    rho0 = model.rho0 if req.rho0 is None else req.rho0
    if req.command == "divergence-scan":
        for tau in req.taus:
            steps = max(16, int(round(req.steps * tau)))
            _decompose_report(_evolve(model, rho0, tau, steps, tr), tr)
    elif req.wire is not None:
        _decompose_report(result.traj, tr)
    else:
        _decompose_report(_evolve(model, rho0, req.tau, req.steps, tr), tr)


# ---------------------------------------------------------------------------
# Output checks, oracles and fingerprints
# ---------------------------------------------------------------------------


def has_oracle(req):
    """Catalog models from their canonical start have closed forms."""
    return req.command == "divergence-scan" and req.rho0 is None


def oracle_check(model, reports):
    """Problems with the reports against the catalog closed forms, and the
    largest deviation of ``length`` or ``B`` from them.  The closed-form
    spiral length integrates on a 200001-point grid, so this runs after the
    run's peak RSS has been read."""
    problems, worst = [], 0.0
    for rep in reports:
        err = max(
            abs(rep.length - model.oracles.path_length(rep.tau)),
            abs(rep.bures - model.oracles.bures_from_start(rep.tau)),
        )
        worst = max(worst, err)
        if not err <= QUADRATURE_BUDGET:
            problems.append(f"oracle error {err:.3e} at tau {rep.tau!r} exceeds {QUADRATURE_BUDGET}")
    return problems, worst


def _report_problems(rep):
    problems = []
    if not rep.bures <= rep.length + QUADRATURE_BUDGET:
        problems.append(f"B {rep.bures!r} exceeds length {rep.length!r} + {QUADRATURE_BUDGET}")
    if not (rep.tau_min <= rep.tau and rep.tau_av <= rep.tau):
        problems.append(f"tau_min {rep.tau_min!r} or tau_av {rep.tau_av!r} exceeds tau {rep.tau!r}")
    if not abs(rep.tau_av - rep.ratio * rep.tau) <= IDENTITY_RTOL * rep.tau:
        problems.append(f"tau_av {rep.tau_av!r} != ratio*tau {rep.ratio * rep.tau!r}")
    norms = (rep.tau_op, rep.tau_hs, rep.tau_tr)
    if all(math.isfinite(x) for x in norms) and not norms[0] >= norms[1] >= norms[2]:
        problems.append(f"norm bounds out of order {norms!r}")
    verdict = rep.verdict
    if verdict.attainable != (verdict.gap <= verdict.tolerance):
        problems.append(f"verdict {verdict.kind} disagrees with gap {verdict.gap!r}")
    return problems


def _curve_problems(curve):
    problems = []
    if len(curve.times) != len(EPS_LADDER):
        problems.append(f"{len(curve.times)} crossing times for {len(EPS_LADDER)} thresholds")
    reached = ~np.isnan(curve.times)
    k = int(reached.sum())
    if not reached[:k].all():
        problems.append("a threshold is reached after a larger one was not")
    elif np.any(np.diff(curve.times[:k]) < 0.0):
        problems.append("crossing times decrease down the ladder")
    if not np.array_equal(curve.saturated, curve.epsilons < curve.floor_epsilon):
        problems.append("saturated flags disagree with floor_epsilon")
    return problems


def check(req, result):
    """Problems found in a request's outputs, apart from the oracle check;
    empty when every check passes."""
    if req.command == "epsilon-sweep":
        return _curve_problems(result.curve)
    taus = req.taus if req.command == "divergence-scan" else (req.tau,)
    problems = []
    if len(result.reports) != len(taus):
        problems.append(f"{len(result.reports)} reports for {len(taus)} horizons")
    for tau, rep in zip(taus, result.reports):
        if abs(rep.tau - tau) > IDENTITY_RTOL * tau:
            problems.append(f"report horizon {rep.tau!r} for requested {tau!r}")
        problems.extend(_report_problems(rep))
    return problems


def fingerprint(result):
    """``B``, ``length``, ``tau_min``, ``tau_op`` per report; ``floor_epsilon`` per sweep."""
    if result.curve is not None:
        return [float(result.curve.floor_epsilon)]
    return [
        float(x)
        for rep in result.reports
        for x in (rep.bures, rep.length, rep.tau_min, rep.tau_op)
    ]


def drift(values, stored):
    """Largest relative difference between two fingerprints (NaN matches NaN)."""
    if len(values) != len(stored):
        return math.inf
    worst = 0.0
    for a, b in zip(values, stored):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return math.inf
            continue
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    return worst


# ---------------------------------------------------------------------------
# CLI cross-check
# ---------------------------------------------------------------------------


def _fmt(x):
    return "%.17g" % float(x)


def _expected_csv(req, result):
    if req.command == "epsilon-sweep":
        c = result.curve
        lines = [SWEEP_COLUMNS]
        for e, t, sat in zip(c.epsilons, c.times, c.saturated):
            lines.append(f"{_fmt(e)},{_fmt(t)},{'true' if sat else 'false'}")
        lines.append(f"# floor_epsilon={_fmt(c.floor_epsilon)}")
        return lines
    m = result.model
    lines = [REPORT_COLUMNS]
    for rep in result.reports:
        v = rep.verdict
        lines.append(",".join([
            m.name, _fmt(m.gamma), _fmt(m.omega), _fmt(rep.tau), str(rep.steps),
            _fmt(rep.bures), _fmt(rep.length), _fmt(rep.ratio), _fmt(rep.tau_min),
            _fmt(rep.tau_av), _fmt(rep.tau_op), _fmt(rep.tau_hs), _fmt(rep.tau_tr),
            _fmt(v.gap), v.kind, _fmt(v.tolerance),
        ]))
    return lines


def cli_argv(req, workdir):
    """CLI arguments that ask for the same answer as ``req``; custom models
    and their start states are written to JSON files in ``workdir``."""
    argv = [req.command, "--steps", str(req.steps), "--out", os.path.join(workdir, "out.csv")]
    if req.wire is None and req.hamiltonian is None:
        argv += ["--model", req.model, "--gamma", repr(req.gamma), "--omega", repr(req.omega)]
    else:
        model_path = os.path.join(workdir, "model.json")
        state_path = os.path.join(workdir, "state.json")
        with open(model_path, "w", encoding="utf-8") as fh:
            if req.wire is not None:
                fh.write(req.wire)
            else:
                json.dump(_wire_model(req.model, req.hamiltonian, req.jumps), fh)
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump({"dim": req.dim, "matrix": _wire_matrix(req.rho0)}, fh)
        argv += ["--model", model_path, "--init", state_path]
    if req.command == "divergence-scan":
        argv += ["--tau-list", ",".join(repr(t) for t in req.taus)]
    else:
        argv += ["--tau", repr(req.tau)]
    return argv


def cli_mismatches(req, result, workdir):
    """Run the CLI in process and compare every CSV field with the library
    result; returns a list of mismatches."""
    argv = cli_argv(req, workdir)
    code = cli.main(argv)
    if code != 0:
        return [f"qslpath {' '.join(argv)} exited {code}"]
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        got = fh.read().splitlines()
    want = _expected_csv(req, result)
    if len(got) != len(want):
        return [f"{req.command}: CLI wrote {len(got)} lines, expected {len(want)}"]
    out = []
    for i, (g, w) in enumerate(zip(got, want)):
        for j, (gf, wf) in enumerate(zip(g.split(","), w.split(","))):
            if gf != wf:
                out.append(f"{req.command} line {i} field {j}: CLI {gf!r} != library {wf!r}")
        if g.count(",") != w.count(","):
            out.append(f"{req.command} line {i}: field counts differ")
    return out
