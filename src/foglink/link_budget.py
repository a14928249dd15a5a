"""Link-budget arithmetic for a fog-limited free-space optical hop.

Covers received optical power (two beam-geometry variants), achievable data
rate from photon energy, an RF-style SNR budget in dB, the electrical SNR of
a PIN receiver (shot + thermal noise), Shannon capacity, OOK bit-error rates
and the transmit-power penalty that fog costs over clear air.

Conventions: optical powers in watts, apertures in metres, divergence in
mrad, ranges in km (mrad * km = m, so beam footprints come out in metres),
specific attenuation in dB/km unless a ``beta`` name marks km^-1.

Every function takes scalars or numpy arrays that broadcast against each
other (the config dataclasses may hold arrays too); a scalar in gives a
float out.  Both go through the same numpy ufuncs, so a scalar call equals
the matching element of an array call bit for bit.  ``ber`` applies
``math.erfc``, which has no numpy counterpart, element by element.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .atmosphere import _reject, path_attenuation_db

SPEED_OF_LIGHT_M_PER_S = 2.998e8
BOLTZMANN_J_PER_K = 1.380649e-23
PLANCK_JS = 6.626e-34
ELECTRON_CHARGE_C = 1.602e-19


class OokScheme(enum.IntEnum):
    """On-off keying pulse format; the integer value doubles as the
    numeric modulation feature in learner tables."""

    NRZ = 0
    RZ = 1


@dataclass(frozen=True)
class TransceiverConfig:
    """Optical head parameters: power, beam geometry, efficiencies."""

    tx_power_w: float = 0.1
    divergence_mrad: float = 3.0
    tx_efficiency: float = 0.8
    rx_efficiency: float = 0.8
    tx_aperture_m: float = 0.1
    rx_aperture_m: float = 0.1
    photons_per_bit: float = 100.0

    def __post_init__(self) -> None:
        for name in ("tx_power_w", "divergence_mrad", "tx_aperture_m",
                     "rx_aperture_m", "photons_per_bit"):
            val = getattr(self, name)
            _reject(val <= 0, name + " must be positive, got {}", val)
        for name in ("tx_efficiency", "rx_efficiency"):
            val = getattr(self, name)
            _reject(np.logical_not((0.0 < val) & (val <= 1.0)),
                    name + " must lie in (0, 1], got {}", val)


@dataclass(frozen=True)
class ReceiverNoiseConfig:
    """PIN photoreceiver noise parameters."""

    responsivity_a_per_w: float = 0.7
    load_resistance_ohm: float = 1000.0
    dark_current_a: float = 10e-9
    temperature_k: float = 298.0
    electrical_bandwidth_hz: float = 1.0e9

    def __post_init__(self) -> None:
        for name in ("responsivity_a_per_w", "load_resistance_ohm", "temperature_k",
                     "electrical_bandwidth_hz"):
            val = getattr(self, name)
            _reject(val <= 0, name + " must be positive, got {}", val)
        _reject(self.dark_current_a < 0, "dark_current_a must be nonnegative, got {}",
                self.dark_current_a)


@dataclass(frozen=True)
class RfBudgetInputs:
    """Terms of the dB-domain SNR budget, as they appear in the budget sum."""

    tx_power_dbm: float
    tx_gain_linear: float = 1.0
    rx_gain_linear: float = 1.0
    wavelength_m: float = 1550e-9
    noise_bandwidth_hz: float = 1e6
    ambient_temp_k: float = 298.0
    total_attenuation_db: float = 0.0
    noise_figure_db: float = 0.0
    fade_margin_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tx_gain_linear", "rx_gain_linear", "wavelength_m",
                     "noise_bandwidth_hz", "ambient_temp_k"):
            val = getattr(self, name)
            _reject(val <= 0, name + " must be positive, got {}", val)
        for name in ("total_attenuation_db", "noise_figure_db", "fade_margin_db"):
            val = getattr(self, name)
            _reject(val < 0, name + " must be nonnegative, got {}", val)


def db_to_linear(db: float) -> float:
    return np.power(10.0, db / 10.0)


def watts_to_dbm(p_w: float) -> float:
    _reject(p_w <= 0, "cannot take dBm of nonpositive power {}", p_w)
    return 10.0 * np.log10(p_w * 1e3)


def photon_energy(wavelength_nm: float) -> float:
    """Photon energy h*c/lambda in joules, with h = ``PLANCK_JS``."""
    _reject(wavelength_nm <= 0, "wavelength_nm must be positive, got {}", wavelength_nm)
    return PLANCK_JS * SPEED_OF_LIGHT_M_PER_S / (wavelength_nm * 1e-9)


def received_power_geometric(cfg: TransceiverConfig, atten_db_per_km: float,
                             range_km: float) -> float:
    """Received power with the beam footprint grown from the transmit aperture.

    P_rx = P_tx * d_r^2 / (d_t + theta*L)^2 * 10^(-gamma*L/10).  At L = 0 the
    footprint is the transmit aperture itself.
    """
    _reject(atten_db_per_km < 0,
            "atten_db_per_km must be nonnegative, got {}", atten_db_per_km)
    _reject(range_km < 0, "range_km must be nonnegative, got {}", range_km)
    footprint_m = cfg.tx_aperture_m + cfg.divergence_mrad * range_km
    geometric = np.square(cfg.rx_aperture_m / footprint_m)
    return cfg.tx_power_w * geometric * db_to_linear(-atten_db_per_km * range_km)


def received_power_aperture(cfg: TransceiverConfig, atten_db_per_km: float,
                            range_km: float) -> float:
    """Received power in the far-field aperture form, with optics efficiencies.

    P_rx = P_tx * D_r^2 / (theta*L)^2 * 10^(-gamma*L/10) * eff_t * eff_r,
    capped at P_tx * eff_t * eff_r since the geometric factor exceeds one
    inside the near field.  Singular at L = 0.
    """
    _reject(range_km <= 0,
            "range_km must be positive (formula singular at 0), got {}", range_km)
    _reject(atten_db_per_km < 0,
            "atten_db_per_km must be nonnegative, got {}", atten_db_per_km)
    geometric = np.square(cfg.rx_aperture_m / (cfg.divergence_mrad * range_km))
    ceiling = cfg.tx_power_w * cfg.tx_efficiency * cfg.rx_efficiency
    uncapped = ceiling * geometric * db_to_linear(-atten_db_per_km * range_km)
    return np.minimum(uncapped, ceiling)


def achievable_data_rate(p_received_w: float, wavelength_nm: float,
                         photons_per_bit: float, noise: ReceiverNoiseConfig) -> float:
    """Data rate 4*P_rx / (pi * E_photon * N_bits) in bits per second;
    ``noise`` is not read."""
    _reject(p_received_w < 0, "p_received_w must be nonnegative, got {}", p_received_w)
    _reject(photons_per_bit <= 0, "photons_per_bit must be positive, got {}", photons_per_bit)
    e_photon = photon_energy(wavelength_nm)
    return 4.0 * p_received_w / (np.pi * e_photon * photons_per_bit)


def snr_budget_db(inputs: RfBudgetInputs) -> float:
    """dB-domain SNR budget evaluated term by term.

    SNR = P_tx(dBm) - 30 - 10log(G_tx) + 10log(G_rx) - 20log(4*pi/lambda)
          - 10log(B*T*k) - attenuation - noise figure - fade margin.

    The transmit-gain term is subtracted in this budget's sign convention,
    although a gain would conventionally add.
    """
    return (
        inputs.tx_power_dbm
        - 30.0
        - 10.0 * np.log10(inputs.tx_gain_linear)
        + 10.0 * np.log10(inputs.rx_gain_linear)
        - 20.0 * np.log10(4.0 * np.pi / inputs.wavelength_m)
        - 10.0 * np.log10(inputs.noise_bandwidth_hz * inputs.ambient_temp_k
                          * BOLTZMANN_J_PER_K)
        - inputs.total_attenuation_db
        - inputs.noise_figure_db
        - inputs.fade_margin_db
    )


def electrical_snr_linear(p_received_w: float, noise: ReceiverNoiseConfig) -> float:
    """Electrical SNR of a PIN receiver: (R*P)^2 over shot + thermal noise."""
    _reject(p_received_w < 0, "p_received_w must be nonnegative, got {}", p_received_w)
    photocurrent = noise.responsivity_a_per_w * p_received_w
    bw = noise.electrical_bandwidth_hz
    shot = 2.0 * ELECTRON_CHARGE_C * (photocurrent + noise.dark_current_a) * bw
    thermal = 4.0 * BOLTZMANN_J_PER_K * noise.temperature_k * bw / noise.load_resistance_ohm
    return np.square(photocurrent) / (shot + thermal)


def channel_capacity(bandwidth_hz: float, snr_linear: float) -> float:
    """Shannon capacity B * log2(1 + SNR) in bits per second."""
    _reject(bandwidth_hz <= 0, "bandwidth_hz must be positive, got {}", bandwidth_hz)
    _reject(snr_linear < 0, "snr_linear must be nonnegative, got {}", snr_linear)
    return bandwidth_hz * np.log2(1.0 + snr_linear)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def ber(scheme: OokScheme, snr_linear: float) -> float:
    """OOK bit-error probability as a function of linear SNR.

    NRZ: erfc(sqrt(SNR)/(2*sqrt(2)))/2.  RZ: erfc(sqrt(SNR)/2)/2, i.e. RZ
    needs half the SNR of NRZ for the same error rate.
    """
    _reject(snr_linear < 0, "snr_linear must be nonnegative, got {}", snr_linear)
    scale = 2.0 * math.sqrt(2.0) if scheme is OokScheme.NRZ else 2.0
    return 0.5 * np.asarray(_erfc(np.sqrt(snr_linear) / scale), dtype=float)


def power_penalty_db(cfg: TransceiverConfig, noise: ReceiverNoiseConfig,
                     clear_beta_per_km: float, fog_beta_per_km: float,
                     range_km: float, target_ber: float = 1e-9) -> float:
    """Extra transmit power (dB) that fog costs over clear air at a range.

    Through the geometric received-power channel, the transmit power that
    holds any BER is the required received power over the channel gain.
    That required power and the geometric factor cancel in the fog/clear
    ratio, so the penalty is exactly the extra path loss
    (alpha_fog - alpha_clear) * L dB; ``cfg``, ``noise`` and ``target_ber``
    are not read.
    """
    _reject(clear_beta_per_km < 0,
            "clear_beta_per_km must be nonnegative, got {}", clear_beta_per_km)
    _reject(fog_beta_per_km < clear_beta_per_km,
            "fog_beta_per_km must be at least clear_beta_per_km")
    _reject(range_km <= 0, "range_km must be positive, got {}", range_km)
    return (path_attenuation_db(fog_beta_per_km, range_km)
            - path_attenuation_db(clear_beta_per_km, range_km))
