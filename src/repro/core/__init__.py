"""The paper's primary contribution: the coupled MD-KMC pipeline.

MD simulates cascade-collision damage over ~50 ps and hands the vacancy
inventory to AKMC, which evolves clustering over a days-scale *real* time
horizon computed by the paper's timescale formula.

Every public name resolves on first access (PEP 562), so
``from repro.core.clusters import ...`` does not execute the coupled
pipeline and its MD, KMC and runtime imports.
"""

from importlib import import_module

#: Public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    "CoupledConfig": "repro.core.coupling",
    "CoupledResult": "repro.core.coupling",
    "CoupledSimulation": "repro.core.coupling",
    "cluster_sizes": "repro.core.clusters",
    "clustering_report": "repro.core.clusters",
    "kmc_real_time": "repro.core.timescale",
    "mean_nn_distance": "repro.core.clusters",
    "paper_timescale_days": "repro.core.timescale",
    "real_vacancy_concentration": "repro.core.timescale",
    "vacancy_clusters": "repro.core.clusters",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_EXPORTS[name]), name)
    return value
