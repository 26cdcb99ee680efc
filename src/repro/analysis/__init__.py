"""Result analysis: box-whisker stats, time series, reports, comparisons."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.compare import relative_saving
    from repro.analysis.fairness import jain_index
    from repro.analysis.report import format_table
    from repro.analysis.stats import BoxStats, box_stats
    from repro.analysis.timeseries import bin_series

# Resolved on first access (PEP 562): ``repro fetch`` prints its table
# through ``report`` (stdlib) without loading the numpy reductions beside it.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.compare": ("relative_saving",),
    "repro.analysis.fairness": ("jain_index",),
    "repro.analysis.report": ("format_table",),
    "repro.analysis.stats": ("BoxStats", "box_stats"),
    "repro.analysis.timeseries": ("bin_series",),
})

__all__ = [
    "BoxStats",
    "bin_series",
    "box_stats",
    "jain_index",
    "format_table",
    "relative_saving",
]
