"""Tests of the benchmark's own machinery: tracing, workloads, checks, names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import types

import pytest

from contourdyn import (
    cli,
    densities,
    evolution,
    geometry,
    growth_potential,
    pressure,
)

import layers
import run
import spans
from workloads import WORKLOADS, Workload

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

# Coarse enough that a traced two-step ETD2 simulation takes about a second.
TINY = Workload(
    "tiny",
    "test configuration",
    (0.0, 0.0),
    {
        "integrator.order": "2",
        "resolution.N_rho": "64",
        "resolution.N_w": "64",
        "resolution.N_xi": "64",
    },
    [(2, 1e-3)],
    [(3, 1e-3)],
)
TINY_STEPS = 2

OWNERS = (
    cli,
    densities,
    evolution,
    geometry,
    growth_potential,
    pressure,
    geometry.ReferenceMap,
    growth_potential.SourceField,
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One untraced and two traced simulations of the tiny configuration."""
    work = tmp_path_factory.mktemp("tiny")
    cfg_path = work / "run.cfg"
    cfg_path.write_text(TINY.config_text(7, TINY_STEPS, str(work / "out")))
    messages = []
    sims, tracers = run.run_sims(
        cli, evolution, str(cfg_path), [False, True, True], messages.append
    )
    return sims, tracers, messages


def test_wrappers_restore_originals():
    before = {id(o): dict(vars(o)) for o in OWNERS}
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        assert evolution.solve_reference is not before[id(evolution)]["solve_reference"]
        assert "eval_map" in vars(geometry.ReferenceMap)
    finally:
        tracer.restore()
    for owner in OWNERS:
        after = vars(owner)
        assert set(after) == set(before[id(owner)])
        for key, value in before[id(owner)].items():
            assert after[key] is value, (owner, key)


def test_self_times_nonnegative_and_sum_to_root(tiny_run):
    _sims, tracers, _messages = tiny_run
    for tracer in tracers:
        roots = [s for s in tracer.spans if s.parent is None]
        assert [s.name for s in roots] == ["evolution.run"]
        own = spans.self_times(tracer.spans)
        assert min(own) >= 0
        assert sum(own) == roots[0].end - roots[0].start


def test_traced_runs_repeat_counts_and_bytes(tiny_run):
    sims, tracers, messages = tiny_run
    attempted, failed = run.check_runs(
        sims, 7, "tiny", TINY_STEPS, {"workloads": {}}, messages.append
    )
    assert (attempted, failed) == (3 * (TINY_STEPS + 1), 0), messages
    metrics, repeat_ok = run.per_layer(sims, tracers, TINY_STEPS, messages.append)
    assert repeat_ok, messages
    assert metrics["evolution.build_state.calls_per_step"][0] == 2
    assert metrics["pressure.solve_reference.sweeps"][0] > 0
    first, second = (
        layers.layer_metrics(t.spans, t.counts, TINY_STEPS) for t in tracers
    )
    units = layers.metric_units()
    for key, unit in units.items():
        if unit == "count":
            assert first[key] == second[key], key


def test_seed_changes_only_mode_phases():
    for workload in WORKLOADS.values():
        assert workload.config_text(3, 5, "out") == workload.config_text(3, 5, "out")
        one = cli.parse_config_text(workload.config_text(1, 5, "out"))
        two = cli.parse_config_text(workload.config_text(2, 5, "out"))
        assert set(one) == set(two)
        for key in one:
            if key not in ("modes.h", "modes.H"):
                assert one[key] == two[key], key
                continue
            modes_one = cli._parse_modes(one[key])
            modes_two = cli._parse_modes(two[key])
            assert [m[:2] for m in modes_one] == [m[:2] for m in modes_two]
            for _k, _amp, phase in modes_one + modes_two:
                assert 0.0 <= phase < 2.0 * math.pi
            assert [m[2] for m in modes_one] != [m[2] for m in modes_two]


def test_reference_mismatch_names_the_quantity():
    state = {"r": 1.0, "R": 1.5, "annulus_area": 3.9, "h": [0.0, 1e-3], "H": [2e-3]}
    assert run.reference_mismatches(state, state, 1e-9) == []
    moved = dict(state, h=[0.0, 1e-3 + 2e-9])
    assert run.reference_mismatches(moved, state, 1e-9) == ["h"]


def test_pressure_bound_is_the_solvers_stagnation_limit():
    def config(N_rho, G0):
        law = types.SimpleNamespace(G0=G0)
        return types.SimpleNamespace(pressure_tol=1e-10, law=law, N_rho=N_rho)

    assert run.pressure_bound(config(128, 1.0)) == pytest.approx(4e-10)
    assert run.pressure_bound(config(64, 2.0)) == pytest.approx(2e-10)
    assert run.pressure_bound(config(32, 0.5)) == pytest.approx(1e-10)


def test_hidden_knobs_are_refused(monkeypatch):
    monkeypatch.setenv("CONTOUR_THREADS", "2")
    with pytest.raises(run.SetupError):
        run.prepare_process()


def test_benchmark_json_lists_the_reported_metrics(tiny_run):
    sims, tracers, messages = tiny_run
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    e2e = run.end_to_end(sims)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_v, unit, _n) in e2e.items()
    }
    per_layer, _ok = run.per_layer(sims, tracers, TINY_STEPS, messages.append)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_v, unit, _n) in per_layer.items()
    }
