"""The source paper's numbers, each stated once with its role and tolerance.

An ``input`` is part of the experimental operating point; an ``anchor`` is
a number the model is calibrated to or back-solved from, so that the model
reproduces it by construction; an ``output`` is a result the paper reports
and the model computes.  Inputs and anchors are named by the scenario config
key they are the default of, where there is one; quoted results by
``<scenario>.<summary key>``, the summary value they are compared with.
"""
from __future__ import annotations

from typing import NamedTuple, Optional


class Quoted(NamedTuple):
    value: float
    role: str                    # "input", "anchor" or "output"
    tol: Optional[float] = None  # None: reported beside the model's value, not checked
    absolute: bool = False       # tol in the value's unit, not relative to the value

    def deviation(self, x: float) -> float:
        return x - self.value if self.absolute else (x - self.value) / self.value

    def holds(self, x: float) -> bool:
        return abs(self.deviation(x)) <= self.tol


PAPER = {
    "lambda0_m": Quoted(1550e-9, "input"),
    "rho_rad": Quoted(0.002, "input"),
    "gamma_pi_units": Quoted(1.9, "input"),  # gamma = units * pi / p0
    "spectrometer_resolution_m": Quoted(0.04e-12, "input"),
    "noise_floor_V": Quoted(0.5e-3, "input"),
    "delta_i_coherent_V": Quoted(0.045e-3, "input"),  # intensity uncertainty per source
    "delta_i_05_V": Quoted(0.072e-3, "input"),
    "delta_i_1_V": Quoted(0.11e-3, "input"),
    "delta_i_3_V": Quoted(0.21e-3, "input"),
    "lgi_rho_rad": Quoted(0.0124, "input"),  # the angle of the Leggett-Garg spot values
    # fig5's coherent three-pass precision, s4's anomalous weak value 3 cot(rho*), s3's operating SNR
    "target_delta_k_n3_fm": Quoted(148.8, "anchor", 1e-9, absolute=True),
    "anomalous_target": Quoted(1478.0, "anchor", 1e-3),
    "s3_intensity.coherent.quoted_op_snr_db": Quoted(17.5, "anchor"),
    "fig3a.w0.5nm.fitted_rate_nm_per_as": Quoted(0.27, "output", 0.15),
    "fig3a.w1nm.fitted_rate_nm_per_as": Quoted(0.31, "output", 0.15),
    "fig3a.w3nm.fitted_rate_nm_per_as": Quoted(0.41, "output", 0.15),
    "fig3a.w6nm.fitted_rate_nm_per_as": Quoted(0.43, "output", 0.15),
    "fig3a.w0.5nm.delta_tau_as": Quoted(1.45e-4, "output", 0.15),
    "fig3a.w1nm.delta_tau_as": Quoted(1.30e-4, "output", 0.15),
    "fig3a.w3nm.delta_tau_as": Quoted(9.62e-5, "output", 0.15),
    "fig3a.w6nm.delta_tau_as": Quoted(9.30e-5, "output", 0.15),
    "fig3b.max_rate_nm_per_as": Quoted(0.61, "output", 0.20),
    "fig3b.band_lo_sigma_lambda_nm": Quoted(12.0, "output"),  # the computed band must overlap the quoted one
    "fig3b.band_hi_sigma_lambda_nm": Quoted(135.0, "output"),
    "fig4.n3.delta_tau_as": Quoted(3.34e-5, "output", 0.15),  # the P-pointer headline
    "fig5.coherent.n1.delta_k_fm": Quoted(497.8, "output", 0.12),
    "fig5.w0.5nm.delta_k_fm": Quoted(782.7, "output"),
    "fig5.w1nm.delta_k_fm": Quoted(1190.6, "output"),
    "fig5.w3nm.delta_k_fm": Quoted(2312.2, "output"),
    "fig6.k31_n3_rho0.0124": Quoted(-0.0741, "output", 1e-4, absolute=True),
    "fig6.im_weak_value_n3_rho0.0124": Quoted(238.0, "output", 0.02),
}
