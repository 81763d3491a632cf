"""Efficiency metrics for comparing estimators.

Relative error is per-run (shrinks with sample count); the squared
coefficient of variation var(single-sample estimator) / p^2 is sample-size
free and answers "which estimator needs fewer samples"; work-normalized
relative variance folds cost back in, either as measured wall time or as a
machine-independent work-unit count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .model import EstimateResult


@dataclass(frozen=True)
class EfficiencyReport:
    re: float
    scv: float
    wnrv: float
    wnrv_work: float


def relative_error(result: EstimateResult) -> float:
    """sqrt(var_hat / samples) / p_hat, the estimated relative error."""
    if result.p_hat <= 0.0:
        raise ValueError("degenerate estimate, RE undefined")
    if result.var_hat == 0.0:
        return 0.0
    return math.sqrt(result.var_hat / result.samples) / result.p_hat


def scv(result: EstimateResult) -> float:
    """Squared coefficient of variation var_hat / p_hat^2 (sample-size free)."""
    if result.p_hat <= 0.0:
        raise ValueError("degenerate estimate, SCV undefined")
    # p_hat * p_hat underflows to 0 below p_hat ~ 1.5e-154
    return result.var_hat / result.p_hat / result.p_hat


def wnrv(result: EstimateResult) -> float:
    """Work-normalized relative variance, squared RE times wall seconds."""
    if result.wall_time_s == 0.0:
        warnings.warn("wall time is zero; WNRV degenerates to 0", stacklevel=2)
        return 0.0
    re = relative_error(result)
    return re * re * result.wall_time_s


def wnrv_work(result: EstimateResult) -> float:
    """Machine-independent WNRV surrogate: scv * work_units / samples."""
    return scv(result) * result.work_units / result.samples


def efficiency_report(result: EstimateResult) -> EfficiencyReport:
    return EfficiencyReport(
        re=relative_error(result),
        scv=scv(result),
        wnrv=wnrv(result) if result.wall_time_s > 0.0 else 0.0,
        wnrv_work=wnrv_work(result),
    )
