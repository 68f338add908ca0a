#!/usr/bin/env python3
"""contourdyn benchmark: wall time per ETD step on fixed solver workloads.

    python3 perfbench/run.py --workload readme-etd2 --seed 0 --seconds 35 --trace 0

Runs the solver in-process through its public API, as ``contourdyn simulate``
does: ``cli.load_config``, then ``evolution.run(config, on_state=...)`` with
every recorded state written to ``trajectory.jsonl`` and ``diagnostics.csv``.
One run makes three identical simulations of a fixed number of steps, sized
from ``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` one simulation runs untraced and two traced, and it
reports per-layer spans and counts plus the tracing overhead.

Every simulation is checked: it must finish, every recorded state's
density residual must be at or below ``tolerance.density`` and its pressure
residual at or below the bound the pressure solve accepts (see
``pressure_bound``), all simulations of the run must write byte-identical
trajectories, and for the default seed the state after ``REF_STEPS`` steps
must match ``reference.json``.  A failed check counts as a failed operation.

The output is a metric table, an environment record, and as the last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The load is closed: one process, one simulation at a time, one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference.json")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# environment variables the program reads that change what is measured
HIDDEN_KNOBS = ("CONTOUR_THREADS", "CONTOUR_VALIDATE_TOL_SCALE")

SIMS = 3  # simulations per run: median of three set-ups; determinism check
DEFAULT_SEED = 0
REF_STEPS = 4  # the reference state is the one after this many steps
TAIL_BEYOND = 10  # step_s.tail has at least this many steps above it


class SetupError(RuntimeError):
    """The benchmark cannot measure here; nothing is reported."""


@dataclasses.dataclass
class SimResult:
    """Timings and check outcomes of one simulation."""

    setup_s: float
    run_s: float
    step_s: list
    status: str
    message: str
    states: int  # recorded states
    bad_states: int  # recorded states whose residuals exceed their bounds
    ref_state: dict | None  # state after REF_STEPS steps
    digest: str  # sha256 of trajectory.jsonl
    trajectory_bytes: int


def state_summary(state):
    """The quantities the reference check compares."""
    return {
        "r": float(state.pair.r),
        "R": float(state.pair.R),
        "h": [float(v) for v in state.pair.h.samples],
        "H": [float(v) for v in state.pair.H.samples],
        "annulus_area": float(state.diagnostics.annulus_area),
    }


def pressure_bound(config):
    """The largest pressure residual the pressure solve accepts as converged.

    ``pressure.solve_reference`` aims at ``0.1 * tol * max(1, G0)`` and, when
    Richardson stagnates, accepts up to ``tol * max(1, G0)`` times its
    rounding floor ``max(1, (N_rho / 64)**2)`` (the radial grid has ``N_rho``
    cells).  Every solve ends on that rule; at ``N_rho = 128`` the residual
    stagnates between about 2e-11 and 1.15e-10, so ``tolerance.pressure``
    alone would flag rounding noise.
    """
    scale = max(1.0, config.law.G0)
    floor = max(1.0, (config.N_rho / 64.0) ** 2)
    return config.pressure_tol * scale * floor


def simulate(cli, evolution, cfg_path):
    """One simulation as ``contourdyn simulate`` runs it, timed per recorded state."""
    marks = []
    t0 = time.perf_counter()
    config = cli.load_config(cfg_path)
    os.makedirs(config.output_dir, exist_ok=True)
    traj_path = os.path.join(config.output_dir, "trajectory.jsonl")
    diag_path = os.path.join(config.output_dir, "diagnostics.csv")
    with open(traj_path, "w", encoding="utf-8") as traj, open(
        diag_path, "w", encoding="utf-8"
    ) as diag:
        diag.write(cli.DIAG_HEADER + "\n")

        def emit(state):
            marks.append(time.perf_counter())
            traj.write(cli._json_value(cli.state_record(state)) + "\n")
            diag.write(cli.diag_row(state) + "\n")

        result = evolution.run(config, on_state=emit)
    t1 = time.perf_counter()

    p_bound = pressure_bound(config)
    bad = sum(
        1
        for s in result.states
        if not (
            s.diagnostics.pressure_residual <= p_bound
            and s.diagnostics.density_residual <= config.density_tol
        )
    )
    ref_state = None
    if len(result.states) > REF_STEPS:
        ref_state = state_summary(result.states[REF_STEPS])
    with open(traj_path, "rb") as fh:
        data = fh.read()
    return SimResult(
        setup_s=marks[0] - t0,
        run_s=t1 - t0,
        step_s=[b - a for a, b in zip(marks, marks[1:])],
        status=result.status,
        message=result.message,
        states=len(result.states),
        bad_states=bad,
        ref_state=ref_state,
        digest=hashlib.sha256(data).hexdigest(),
        trajectory_bytes=len(data),
    )


def reference_mismatches(state, ref, tol):
    """Names of the quantities where ``state`` and ``ref`` differ by more than ``tol``."""
    bad = []
    for key in ("r", "R", "annulus_area"):
        if not abs(state[key] - ref[key]) <= tol:
            bad.append(key)
    for key in ("h", "H"):
        if len(state[key]) != len(ref[key]) or not all(
            abs(a - b) <= tol for a, b in zip(state[key], ref[key])
        ):
            bad.append(key)
    return bad


def tail(values):
    """The highest order statistic with at least ``TAIL_BEYOND`` values above it.

    A run makes at least ``SIMS * REF_STEPS`` steps, more than that; only a
    run whose simulations raised has fewer, and then this is the minimum.
    """
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]


def check_runs(sims, seed, workload, steps, reference, log):
    """``(attempted, failed)`` operations over the simulations of one run.

    An operation is one recorded state.  A simulation that raised fails all
    of its states; one that ended early fails the states it did not record;
    a state over the residual bounds fails.  A trajectory that differs
    from the run's first, or a reference mismatch, fails one more operation.
    """
    per_sim = steps + 1
    attempted = per_sim * len(sims)
    failed = 0
    first = next((s for s in sims if s is not None), None)
    for i, sim in enumerate(sims):
        if sim is None:
            failed += per_sim
            continue
        if sim.status != "finished":
            log(f"simulation {i}: {sim.status}: {sim.message}")
        failed += per_sim - sim.states + sim.bad_states
        if sim.bad_states:
            log(f"simulation {i}: {sim.bad_states} states over the residual bounds")
        if sim.digest != first.digest:
            log(f"simulation {i}: trajectory.jsonl differs from simulation 0")
            failed += 1
    if seed == DEFAULT_SEED and first is not None:
        ref = reference["workloads"].get(workload)
        if ref is None or ref["steps"] != REF_STEPS or first.ref_state is None:
            log("no reference state to compare against")
            failed += 1
        else:
            bad = reference_mismatches(first.ref_state, ref, reference["tolerance"])
            if bad:
                log(f"reference mismatch in {', '.join(bad)}")
                failed += 1
    return attempted, min(failed, attempted)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "contourdyn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, steps):
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sims": SIMS,
        "steps": steps,
    }


def prepare_process():
    """Refuse hidden knobs, pin BLAS threads, import the package from ``src``."""
    knobs = [k for k in HIDDEN_KNOBS if k in os.environ]
    if knobs:
        raise SetupError(f"unset {', '.join(knobs)}: they change the program measured")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(SRC, "contourdyn")):
        raise SetupError(f"no package sources under {SRC}")
    sys.path.insert(0, SRC)
    try:
        import contourdyn
        from contourdyn import cli, evolution
    except ImportError as exc:
        raise SetupError(f"cannot import contourdyn: {exc}") from exc
    where = os.path.dirname(os.path.abspath(contourdyn.__file__))
    if where != os.path.join(SRC, "contourdyn"):
        raise SetupError(f"contourdyn imported from {where}, not from {SRC}")
    return cli, evolution


def load_reference():
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {REFERENCE}: {exc}") from exc


def run_sims(cli, evolution, cfg_path, traced, log):
    """Run one simulation per entry of ``traced``; ``None`` marks one that raised.

    Returns ``(sims, tracers)``; ``tracers`` holds the traced ones' tracers.
    """
    import layers
    from spans import Tracer

    sims, tracers = [], []
    for with_trace in traced:
        tracer = Tracer() if with_trace else None
        try:
            if tracer is not None:
                layers.install(tracer)
            try:
                sims.append(simulate(cli, evolution, cfg_path))
            finally:
                if tracer is not None:
                    tracer.restore()
        except Exception:  # a program failure is a result, not a crash
            log("simulation raised:\n" + traceback.format_exc())
            sims.append(None)
        if tracer is not None:
            tracers.append(tracer)
    return sims, tracers


def end_to_end(sims):
    """``{metric: (value, unit, samples)}`` over the completed simulations."""
    done = [s for s in sims if s is not None]
    steps = [t for s in done for t in s.step_s]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(s.setup_s for s in done), "s", len(done)),
        "step_s.p50": (statistics.median(steps), "s", len(steps)),
        "step_s.tail": (tail(steps), "s", len(steps)),
        "run_s": (statistics.median(s.run_s for s in done), "s", len(done)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }


def per_layer(sims, tracers, steps, log):
    """Mean per-layer metrics over the traced simulations, and the overhead."""
    import layers

    untraced, traced = sims[0], sims[1:]
    per_sim = [
        layers.layer_metrics(t.spans, t.counts, steps)
        for t, s in zip(tracers, traced)
        if s is not None
    ]
    units = layers.metric_units()
    counts = [{k: v for k, v in m.items() if units[k] == "count"} for m in per_sim]
    repeat_ok = all(c == counts[0] for c in counts)
    if not repeat_ok:
        log("layer counts differ between traced simulations of one seed")
    out = {}
    for key, unit in units.items():
        if unit == "count":  # identical in every traced simulation
            value = counts[0][key]
        else:
            value = statistics.fmean(m[key] for m in per_sim)
        out[key] = (value, unit, len(per_sim))
    done = [s for s in traced if s is not None]
    out["cli.trajectory_bytes"] = (done[0].trajectory_bytes, "B", 1)
    overhead = statistics.fmean(s.run_s for s in done) - untraced.run_s
    out["trace.overhead_s"] = (overhead, "s", len(done))
    return out, repeat_ok


def measure(args, log):
    cli, evolution = prepare_process()
    reference = load_reference()
    workload = WORKLOADS[args.workload]
    steps = workload.steps_for(args.seconds, SIMS, REF_STEPS)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        cfg_path = os.path.join(work, "run.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(args.seed, steps, os.path.join(work, "out")))
        traced = [False] * SIMS if not args.trace else [False] + [True] * (SIMS - 1)
        sims, tracers = run_sims(cli, evolution, cfg_path, traced, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = check_runs(sims, args.seed, args.workload, steps, reference, log)
    if args.trace:
        missing = sims[0] is None or all(s is None for s in sims[1:])
    else:
        missing = all(s is None for s in sims)
    if missing:
        raise SetupError("too few simulations completed to report metrics")
    if args.trace:
        metrics, repeat_ok = per_layer(sims, tracers, steps, log)
        if not repeat_ok:
            failed = min(attempted, failed + 1)
    else:
        metrics = end_to_end(sims)
    return environment(args, steps), metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(message):
        print(f"[{args.workload}] {message}", file=sys.stderr)

    try:
        env, metrics, attempted, failed = measure(args, log)
    except SetupError as exc:
        log(str(exc))
        return 2
    for name, (value, unit, n) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit:6s} n={n}")
    print(f"{'fail_frac':45s} {failed / attempted:14.6g} {'1':6s} n={attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
