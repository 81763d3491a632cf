"""Rare-event Monte Carlo toolkit for GSC/MRC outage probability under Rician fading."""

from .estimators import (
    CeAdaptationError,
    MlsSchedule,
    estimate_ce,
    estimate_et,
    estimate_mls,
    estimate_nmc,
    estimate_pis,
    estimate_uis,
    mls_pilot_levels,
)
from .metrics import (
    EfficiencyReport,
    efficiency_report,
    relative_error,
    scv,
    wnrv,
    wnrv_work,
)
from .model import ChannelConfig, EstimateResult, closed_form_outage
from .samplers import (
    MellBound,
    RejectionStalledError,
    RngStream,
    TruncationUnderflowError,
    compute_m_ell,
)
from .specfun import Ncx2Params, log_bessel_i0, ncx2_cdf, ncx2_logcdf, ncx2_quantile

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig", "EstimateResult", "closed_form_outage",
    "Ncx2Params", "log_bessel_i0", "ncx2_cdf", "ncx2_logcdf", "ncx2_quantile",
    "RngStream", "MellBound", "compute_m_ell", "RejectionStalledError",
    "TruncationUnderflowError",
    "MlsSchedule", "CeAdaptationError", "estimate_nmc", "estimate_uis",
    "estimate_pis", "estimate_et", "estimate_ce", "estimate_mls",
    "mls_pilot_levels", "EfficiencyReport", "relative_error", "scv", "wnrv",
    "wnrv_work", "efficiency_report",
]
