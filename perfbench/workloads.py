"""The benchmark's workloads: fixed solver configurations, seeded mode phases.

Each workload is one configuration of the ``contourdyn simulate`` file
format.  The seed draws every listed mode's phase uniformly from
``[0, 2 pi)``; nothing else depends on it.  The program only ever sees the
generated configuration text.
"""

from __future__ import annotations

import math
import random

# README configuration (see the package README), ETD1.
_README = {
    "model.mu": "1.0",
    "model.nu": "2.0",
    "growth.kind": "linear",
    "growth.G0": "1.0",
    "growth.pM": "1.0",
    "geometry.r0": "1.0",
    "geometry.R0": "1.5",
    "resolution.N": "64",
    "resolution.N_rho": "128",
    "resolution.N_omega": "64",
    "resolution.N_w": "128",
    "resolution.N_xi": "512",
    "time.dt": "1e-3",
    "integrator.order": "1",
    "output.every": "1",
}


class Workload:
    """A named configuration: settings, mode amplitudes and the reason for it."""

    def __init__(self, name, why, cost, settings, modes_h, modes_H):
        self.name = name
        self.why = why
        # nominal (set-up s, s per step) on a 2-core x86 machine; only used to
        # size a run's step count, which is then fixed for every commit
        self.cost = cost
        self.settings = dict(_README, **settings)
        self.modes_h = tuple(modes_h)  # ((k, amplitude), ...)
        self.modes_H = tuple(modes_H)

    @property
    def dt(self):
        return float(self.settings["time.dt"])

    def steps_for(self, seconds, sims, min_steps):
        """Steps per simulation so that ``sims`` simulations take ``seconds``."""
        setup_s, step_s = self.cost
        return max(min_steps, int((seconds / sims - setup_s) / step_s))

    def phases(self, seed):
        """``(phases_h, phases_H)``: one phase in ``[0, 2 pi)`` per listed mode."""
        rng = random.Random(seed)
        ph = tuple(2.0 * math.pi * rng.random() for _ in self.modes_h)
        pH = tuple(2.0 * math.pi * rng.random() for _ in self.modes_H)
        return ph, pH

    def config_text(self, seed, steps, out_dir):
        """Configuration file text for ``steps`` time steps, writing to ``out_dir``."""
        if steps < 2:
            raise ValueError("a run needs at least two steps (dt < T_end)")
        ph, pH = self.phases(seed)
        values = dict(self.settings)
        values["modes.h"] = _modes(self.modes_h, ph)
        values["modes.H"] = _modes(self.modes_H, pH)
        values["time.T_end"] = repr(steps * self.dt)
        values["output.dir"] = out_dir
        return "".join(f"{key} = {val}\n" for key, val in sorted(values.items()))


def _modes(modes, phases):
    return ",".join(f"{k}:{amp!r}:{ph!r}" for (k, amp), ph in zip(modes, phases))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme-etd2",
            "README configuration with ETD2: two build_state calls per step; "
            "the pressure solve dominates",
            (0.35, 1.05),
            {"integrator.order": "2"},
            [(2, 1e-3)],
            [(3, 1e-3)],
        ),
        Workload(
            "fine-contour",
            "N=256, N_xi=1024: the per-target quadrature loop in "
            "growth_potential dominates, pressure second",
            (1.2, 1.25),
            {
                "resolution.N": "256",
                "resolution.N_xi": "1024",
                "resolution.N_rho": "64",
                "resolution.N_omega": "64",
            },
            [(2, 1e-3), (5, 5e-4)],
            [(3, 1e-3)],
        ),
        Workload(
            "fingering-tabulated",
            "mu=2, nu=1 (unstable, dt guard active) with a tabulated growth "
            "law: the pressure layer under a nonlinear source, ETD1",
            (0.4, 0.45),
            {
                "model.mu": "2.0",
                "model.nu": "1.0",
                "growth.kind": "tabulated",
                "growth.table": "0:1.0, 0.3:0.8, 0.6:0.45, 1.0:0",
            },
            [(3, 1e-3), (5, 5e-4)],
            [(2, 5e-4)],
        ),
    )
}
