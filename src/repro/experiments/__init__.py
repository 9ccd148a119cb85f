"""One module per paper table/figure (see DESIGN.md experiment index).

Every module exposes ``run(...)`` (or ``run_*`` variants) returning a
result object with a printable ``table``; ``python -m
repro.experiments.<module>`` prints a reduced-size version.

Submodules are imported lazily (``from repro.experiments import fig8...``
or direct module imports) to keep ``python -m`` invocations clean.
"""

from .common import ExperimentTable, cdf_points, format_si, median

EXPERIMENT_MODULES = (
    "fig7_energy_table",
    "fig8_throughput_range",
    "fig9_repb_vs_throughput",
    "fig10_repb_vs_range",
    "fig11_microbench",
    "fig12_network",
    "fig13_client_impact",
    "comparison",
    "ablations",
    "microstudies",
    "alt_excitation",
    "mobility",
    "robustness_sweep",
)

__all__ = [
    "EXPERIMENT_MODULES",
    "ExperimentTable",
    "cdf_points",
    "format_si",
    "median",
]
