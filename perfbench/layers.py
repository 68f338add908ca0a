"""The solver layers the traced run measures, and where each one is wrapped.

Every function is wrapped at the attribute its caller looks it up through:
``evolution`` imports ``solve_reference`` by name, so the pressure solve is
wrapped as ``evolution.solve_reference``, and so on.  Span names are the
functions' home modules, so ``pressure.solve_radial`` covers both callers.
"""

from __future__ import annotations

import numpy as np

from spans import layer_totals

# Span names in pipeline order; each gives a ``.calls`` and a ``.self_s`` metric.
SPAN_NAMES = (
    "evolution.run",
    "evolution.step_etd",
    "evolution.build_state",
    "evolution.assemble_rhs",
    "geometry.rereference",
    "pressure.solve_reference",
    "pressure.solve_radial",
    "geometry.ReferenceMap.eval_map",
    "spectral.evaluate_at",
    "growth_potential.grad_inner",
    "growth_potential.grad_outer",
    "growth_potential.SourceField.sample",
    "kernels.eval_kj",
    "densities.solve_densities",
    "layer_ops",
    "cli.state_record",
)

# Counts recorded from arguments or results, besides the call counts.
COUNT_NAMES = (
    "pressure.solve_reference.sweeps",
    "densities.solve_densities.sweeps",
    "kernels.eval_kj.points",
)

_LAYER_OPS = (
    "singular_normal",
    "singular_tangent",
    "interaction_inner_from_outer",
    "interaction_outer_from_inner",
)


def _sweeps(key):
    def count(args, kwargs, result):
        return ((key, len(result.residual_history)),)

    return count


def _points(args, kwargs, result):
    return (("kernels.eval_kj.points", np.broadcast(*args, *kwargs.values()).size),)


def install(tracer):
    """Wrap every traced layer of the imported ``contourdyn`` package."""
    from contourdyn import (
        cli,
        densities,
        evolution,
        geometry,
        growth_potential,
        pressure,
    )

    wrap = tracer.wrap
    wrap(evolution, "run", "evolution.run")
    wrap(evolution, "step_etd", "evolution.step_etd")
    wrap(evolution, "build_state", "evolution.build_state")
    wrap(evolution, "assemble_rhs", "evolution.assemble_rhs")
    wrap(evolution, "rereference", "geometry.rereference")
    wrap(evolution, "solve_reference", "pressure.solve_reference",
         _sweeps("pressure.solve_reference.sweeps"))
    wrap(evolution, "solve_radial", "pressure.solve_radial")
    wrap(pressure, "solve_radial", "pressure.solve_radial")
    wrap(geometry.ReferenceMap, "eval_map", "geometry.ReferenceMap.eval_map")
    wrap(geometry, "evaluate_at", "spectral.evaluate_at")
    wrap(evolution, "grad_inner", "growth_potential.grad_inner")
    wrap(evolution, "grad_outer", "growth_potential.grad_outer")
    wrap(growth_potential.SourceField, "sample",
         "growth_potential.SourceField.sample")
    wrap(growth_potential, "eval_kj", "kernels.eval_kj", _points)
    wrap(evolution, "solve_densities", "densities.solve_densities",
         _sweeps("densities.solve_densities.sweeps"))
    for module in (evolution, densities):
        for attr in _LAYER_OPS:
            if hasattr(module, attr):
                wrap(module, attr, "layer_ops")
    wrap(cli, "state_record", "cli.state_record")


def metric_units():
    """``{metric: unit}`` for every metric :func:`layer_metrics` returns."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNT_NAMES:
        units[name] = "count"
    units["evolution.build_state.calls_per_step"] = "count"
    return units


def layer_metrics(spans, counts, steps):
    """Per-layer calls, self seconds and counts of one traced simulation."""
    totals = layer_totals(spans)
    out = {}
    for name in SPAN_NAMES:
        calls, self_ns = totals.get(name, (0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns / 1e9
    for name in COUNT_NAMES:
        out[name] = counts[name]
    # the first build_state is the set-up; each step adds one (ETD1) or two
    out["evolution.build_state.calls_per_step"] = (
        out["evolution.build_state.calls"] - 1
    ) / steps
    return out
