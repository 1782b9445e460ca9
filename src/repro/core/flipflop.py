"""Flip-flop filtering with statistical control limits (Section 5.1).

The destination monitors path metrics (minimum available rate, per
packet energy used) with an EWMA pair borrowed from statistical quality
control:

    ``x̄ ← (1 - α) x̄ + α x_i``                                  (Eq. 7)
    ``R̄ ← (1 - β) R̄ + β |x_i - x_{i-1}|``

and declares a sample an **outlier** when it falls outside

    ``UCL/LCL = x̄ ± 3 R̄ / 1.128``                               (Eq. 8)

Under normal operation the *stable* filter (small α) smooths away noise
and feedback stays at its low regular rate.  A run of consecutive
outliers signals a persistent change: the monitor switches to the
*agile* filter (large α) so the average catches up quickly, and an
immediate feedback message is triggered.  Once samples fall back inside
the control limits the stable filter takes over again — the "flip-flop"
of the name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.validation import require_in_range, require_positive


@dataclass(frozen=True)
class FilterReading:
    """Result of folding one sample into the flip-flop filter."""

    sample: float
    mean: float
    deviation: float
    upper_control_limit: float
    lower_control_limit: float
    is_outlier: bool
    triggered: bool
    agile: bool


class FlipFlopFilter:
    """One flip-flop-filtered path metric."""

    def __init__(
        self,
        alpha_stable: float = 0.1,
        alpha_agile: float = 0.6,
        beta: float = 0.1,
        sigma: float = 3.0,
        d2: float = 1.128,
        outlier_trigger_count: int = 3,
    ):
        self.alpha_stable = require_in_range(alpha_stable, 0.0, 1.0, "alpha_stable")
        self.alpha_agile = require_in_range(alpha_agile, 0.0, 1.0, "alpha_agile")
        if self.alpha_agile < self.alpha_stable:
            raise ValueError("alpha_agile must be >= alpha_stable")
        self.beta = require_in_range(beta, 0.0, 1.0, "beta")
        self.sigma = require_positive(sigma, "sigma")
        self.d2 = require_positive(d2, "d2")
        self.outlier_trigger_count = int(require_positive(outlier_trigger_count, "outlier_trigger_count"))

        self._mean: Optional[float] = None
        self._range: Optional[float] = None
        self._previous: Optional[float] = None
        self._consecutive_outliers = 0
        self._agile = False
        self.samples = 0
        self.triggers = 0

    # -- read-only state ---------------------------------------------------------------

    @property
    def mean(self) -> Optional[float]:
        """Current filtered average x̄ (None before the first sample)."""
        return self._mean

    @property
    def upper_control_limit(self) -> Optional[float]:
        if self._mean is None or self._range is None:
            return None
        return self._mean + self.sigma * self._range / self.d2

    @property
    def lower_control_limit(self) -> Optional[float]:
        if self._mean is None or self._range is None:
            return None
        return self._mean - self.sigma * self._range / self.d2

    # -- updates ------------------------------------------------------------------------

    def update(self, sample: float) -> FilterReading:
        """Fold ``sample`` in, returning the full reading (Eqs. 7-8 plus flip-flop state)."""
        sample = float(sample)
        self.samples += 1

        if self._mean is None:
            # Initialisation per the paper: x̄ = x0, R̄ = x0 / 2.
            self._mean = sample
            self._range = abs(sample) / 2.0
            self._previous = sample
            return FilterReading(
                sample=sample,
                mean=self._mean,
                deviation=self._range,
                upper_control_limit=self.upper_control_limit or sample,
                lower_control_limit=self.lower_control_limit or sample,
                is_outlier=False,
                triggered=False,
                agile=False,
            )

        ucl = self.upper_control_limit
        lcl = self.lower_control_limit
        assert ucl is not None and lcl is not None and self._range is not None and self._previous is not None
        is_outlier = sample > ucl or sample < lcl

        triggered = False
        if is_outlier:
            self._consecutive_outliers += 1
            if self._consecutive_outliers >= self.outlier_trigger_count and not self._agile:
                self._agile = True
                self.triggers += 1
                triggered = True
        else:
            self._consecutive_outliers = 0

        # Standard control-chart practice: isolated out-of-control points
        # do not update the chart statistics (otherwise one spike drags
        # the mean off-centre and the *next* normal sample looks like an
        # outlier too).  Once a run of outliers has flipped us to the
        # agile filter, samples are folded in with the large alpha so the
        # average catches up with the new regime quickly.
        if self._agile:
            self._mean = (1.0 - self.alpha_agile) * self._mean + self.alpha_agile * sample
        elif not is_outlier:
            self._mean = (1.0 - self.alpha_stable) * self._mean + self.alpha_stable * sample

        # R̄ is computed only from in-control samples so one wild value
        # does not blow the limits open and mask a real change.
        if not is_outlier:
            self._range = (1.0 - self.beta) * self._range + self.beta * abs(sample - self._previous)
            if self._agile:
                self._agile = False
        self._previous = sample

        return FilterReading(
            sample=sample,
            mean=self._mean,
            deviation=self._range,
            upper_control_limit=self.upper_control_limit or self._mean,
            lower_control_limit=self.lower_control_limit or self._mean,
            is_outlier=is_outlier,
            triggered=triggered,
            agile=self._agile,
        )
