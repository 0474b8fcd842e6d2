"""The benchmark's workloads: preset sweeps, reordered by a seed.

Every workload is a closed loop with one client: its sweeps run one after
another through `szilard.sweeps.run_sweep`, each waiting for the previous one
to finish.  The seed permutes the order of each list's values and the order
of the sweeps inside a workload; seed 0 keeps preset order.  The program
receives only the resulting `SweepSpec` objects.  README.md says why each
workload exists.
"""

import random
from dataclasses import replace

from szilard.sweeps import preset

# name -> (preset targets, worker threads)
WORKLOADS = {
    "bose_roots": (("fig8",), 1),
    "bose_pool": (("fig8",), 2),
    "morse_ladders": (("fig10",), 1),
    # fig7 and fig11 repeat the grids of bose_roots and morse_ladders.
    "preset_mix": (("fig2", "fig3", "fig4", "fig5", "fig6", "fig9",
                    "fig9-inset"), 1),
}


def targets():
    """Every preset target some workload runs, each once."""
    return tuple(dict.fromkeys(t for ts, _ in WORKLOADS.values() for t in ts))


def workload_specs(name, seed):
    """The workload's sweeps, in run order, permuted by `seed`."""
    names, workers = WORKLOADS[name]
    rng = random.Random(seed)
    order = list(names)
    if seed:
        rng.shuffle(order)
    specs = []
    for target in order:
        spec = preset(target)
        lists = {}
        for key, values in spec.lists.items():
            values = list(values)
            if seed:
                rng.shuffle(values)
            lists[key] = tuple(values)
        specs.append(replace(spec, lists=lists, workers=workers))
    return specs
