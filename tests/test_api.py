"""The public API, pinned: adding or removing a public name is a reviewed diff."""

import outagemc

PUBLIC = [
    "CEParams", "CeAdaptationError", "ChannelConfig", "EfficiencyReport",
    "EstimateResult", "MellBound", "MlsSchedule", "Ncx2Params",
    "PartitionPlan", "RejectionStalledError", "RngStream",
    "TruncationUnderflowError", "build_partition_plan", "ce_update",
    "closed_form_outage", "compute_m_ell", "confidence_interval",
    "efficiency_report", "estimate_ce", "estimate_et", "estimate_mls",
    "estimate_nmc", "estimate_pis", "estimate_uis", "gsc_statistic",
    "log_bessel_i0", "m_ell_asymptotic", "marcum_q", "mls_pilot_levels",
    "ncx2_cdf", "ncx2_logcdf", "ncx2_pdf", "ncx2_quantile",
    "regularized_lower_gamma", "relative_error", "scv", "wnrv", "wnrv_work",
]


def test_every_public_name_resolves():
    for name in outagemc.__all__:
        assert getattr(outagemc, name) is not None, name


def test_public_names_pinned():
    assert sorted(outagemc.__all__) == PUBLIC
    assert len(set(outagemc.__all__)) == len(outagemc.__all__)
