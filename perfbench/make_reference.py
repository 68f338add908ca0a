#!/usr/bin/env python3
"""Write ``reference.json``: each workload's state after ``REF_STEPS`` steps.

    python3 perfbench/make_reference.py

The benchmark compares the default seed's state against this file.  Write
it again only when a change is meant to alter the solver's results.

The tolerance is absolute and the same for ``r``, ``R``, ``h``, ``H`` and the
annulus area.  Loosening both solver tolerances from 1e-10 to 1e-9 moves
these by at most 6e-13 on every workload; the smallest change over the four
steps (``h`` on ``fingering-tabulated``, after re-referencing) is 1.5e-6.
1e-9 lies between the two: another solver converged to the same
``tolerance.pressure`` and ``tolerance.density`` passes, a wrong step fails.
"""

from __future__ import annotations

import json
import os
import shutil

import run
from workloads import WORKLOADS

TOLERANCE = 1e-9


def main():
    cli, evolution = run.prepare_process()
    work = os.path.join(run.WORK, f"reference-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    states = {}
    try:
        cfg_path = os.path.join(work, "run.cfg")
        for name, workload in WORKLOADS.items():
            text = workload.config_text(
                run.DEFAULT_SEED, run.REF_STEPS, os.path.join(work, "out")
            )
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            sim = run.simulate(cli, evolution, cfg_path)
            if sim.status != "finished" or sim.bad_states:
                raise SystemExit(f"{name}: reference simulation failed")
            states[name] = dict(steps=run.REF_STEPS, **sim.ref_state)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {
        "seed": run.DEFAULT_SEED,
        "tolerance": TOLERANCE,
        "workloads": states,
    }
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
