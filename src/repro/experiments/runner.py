"""Replication and aggregation.

The paper averages its linear-topology results over twenty independent
runs (and its random-topology results over ten) and reports 95%
confidence intervals.  :meth:`ParallelRunner.replicate
<repro.experiments.parallel.ParallelRunner.replicate>` runs a scenario
builder over a list of seeds, and :func:`summarize` /
:func:`confidence_interval` aggregate the resulting metric values.  The
aggregation helpers accept both live
:class:`~repro.experiments.scenarios.ScenarioResult` objects and the
picklable :class:`~repro.experiments.parallel.ScenarioRecord` summaries
that parallel workers return; anything with a ``.metrics`` attribute
works.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.experiments.scenarios import ScenarioResult

#: Two-sided 95% critical values of Student's t distribution, indexed by
#: degrees of freedom (df = n - 1).  The table is dense over df 1-30 —
#: the range every paper figure lands in (20 linear / 10 random
#: replications) — plus the standard 40/60/120 anchors.  Degrees of
#: freedom between or beyond table entries round *down* to the nearest
#: smaller entry: t decreases with df, so a smaller-df critical value is
#: always >= the true one and the reported interval errs on the wide
#: (conservative) side, never the narrow side.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95% t critical value for ``df`` degrees of freedom.

    Exact for every df in :data:`_T_95` (all of 1-30, then 40/60/120);
    other df round down to the nearest smaller table entry, which
    over-covers rather than under-covers.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    critical = _T_95.get(df)
    if critical is None:
        critical = _T_95[max(k for k in _T_95 if k <= df)]
    return critical


def metric_values(results: Iterable[ScenarioResult], attribute: str) -> List[float]:
    """Extract one metric attribute from each result."""
    values = []
    for result in results:
        value = getattr(result.metrics, attribute)
        values.append(float(value))
    return values


def confidence_interval(values: Sequence[float], confidence: float = 0.95) -> float:
    """Half-width of the two-sided confidence interval around the mean.

    Only the 95% level is supported (the level the paper plots); a
    single sample has no spread and returns 0.
    """
    if abs(confidence - 0.95) > 1e-9:
        raise ValueError("only 95% confidence intervals are supported")
    n = len(values)
    if n < 2:
        return 0.0
    stdev = statistics.stdev(values)
    return t_critical_95(n - 1) * stdev / math.sqrt(n)


def mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and 95% CI half-width of one cell's replicated values."""
    return statistics.fmean(values), confidence_interval(list(values))


def summarize(results: Sequence[ScenarioResult], attribute: str) -> Dict[str, float]:
    """Mean and 95% CI half-width of one metric across replications."""
    values = metric_values(results, attribute)
    return {
        "mean": statistics.fmean(values),
        "ci95": confidence_interval(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }
