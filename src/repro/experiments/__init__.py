"""Experiment regeneration: one module per figure of the paper's §3.

Every module exposes ``run(...)`` returning a dict with ``rows`` (the
figure's data series) and ``summary`` (the headline comparisons), plus a
``main()`` that prints the table — so each figure can be regenerated with
``python -m repro.experiments.fig12_kmc_comm_volume``.

``tests/test_experiments.py`` calls these same functions and asserts the
shape criteria of DESIGN.md §4.
"""

from repro.experiments import (
    fig09_md_optimizations,
    fig10_md_strong_scaling,
    fig11_md_weak_scaling,
    fig12_kmc_comm_volume,
    fig13_kmc_comm_time,
    fig14_kmc_strong_scaling,
    fig15_kmc_weak_scaling,
    fig16_coupled_weak_scaling,
    fig17_vacancy_clustering,
    memory_table,
)

__all__ = [
    "fig09_md_optimizations",
    "fig10_md_strong_scaling",
    "fig11_md_weak_scaling",
    "fig12_kmc_comm_volume",
    "fig13_kmc_comm_time",
    "fig14_kmc_strong_scaling",
    "fig15_kmc_weak_scaling",
    "fig16_coupled_weak_scaling",
    "fig17_vacancy_clustering",
    "memory_table",
]
