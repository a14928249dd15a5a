"""Fog-limited FSO link modelling and SNR prediction toolkit."""

from .atmosphere import (
    AttenuationModel,
    OpticalPath,
    attenuation_db_per_km,
    extinction_coefficient,
    particle_size_exponent,
    path_attenuation_db,
    transmittance,
)
from .link_budget import (
    OokScheme,
    ReceiverNoiseConfig,
    RfBudgetInputs,
    TransceiverConfig,
    achievable_data_rate,
    ber,
    channel_capacity,
    electrical_snr_linear,
    photon_energy,
    power_penalty_db,
    received_power_aperture,
    received_power_geometric,
    snr_budget_db,
)
from .metrics import MetricReport, compute_metrics
from .tables import LabeledTable

__all__ = [
    "AttenuationModel",
    "OpticalPath",
    "attenuation_db_per_km",
    "extinction_coefficient",
    "particle_size_exponent",
    "path_attenuation_db",
    "transmittance",
    "OokScheme",
    "ReceiverNoiseConfig",
    "RfBudgetInputs",
    "TransceiverConfig",
    "achievable_data_rate",
    "ber",
    "channel_capacity",
    "electrical_snr_linear",
    "photon_energy",
    "power_penalty_db",
    "received_power_aperture",
    "received_power_geometric",
    "snr_budget_db",
    "MetricReport",
    "compute_metrics",
    "LabeledTable",
]

__version__ = "0.1.0"
