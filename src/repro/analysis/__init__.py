"""Post-processing: defect identification and damage statistics."""

from repro.analysis.vacancies import (
    frenkel_pairs,
    vacancy_concentration,
)
from repro.analysis.stats import (
    cluster_size_distribution,
    radial_distribution,
    displacement_histogram,
)
from repro.analysis.diffusion import (
    track_single_vacancy,
    arrhenius_fit,
    DiffusionResult,
)
from repro.analysis.energies import (
    vacancy_formation_energy,
    divacancy_binding_energy,
    cluster_binding_per_vacancy,
)

__all__ = [
    "DiffusionResult",
    "arrhenius_fit",
    "cluster_binding_per_vacancy",
    "cluster_size_distribution",
    "displacement_histogram",
    "divacancy_binding_energy",
    "frenkel_pairs",
    "radial_distribution",
    "track_single_vacancy",
    "vacancy_concentration",
    "vacancy_formation_energy",
]
