"""Link-budget arithmetic for a fog-limited free-space optical hop.

Covers received optical power (two beam-geometry variants), achievable data
rate from photon energy, an RF-style SNR budget in dB, the electrical SNR of
a PIN receiver (shot + thermal noise), Shannon capacity, OOK bit-error rates
and the transmit-power penalty needed to hold a target BER under fog.

Conventions: optical powers in watts, apertures in metres, divergence in
mrad, ranges in km (mrad * km = m, so beam footprints come out in metres),
specific attenuation in dB/km unless a ``beta`` name marks km^-1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .atmosphere import DB_PER_NEPER

SPEED_OF_LIGHT_M_PER_S = 2.998e8
BOLTZMANN_J_PER_K = 1.380649e-23
PLANCK_JS = 6.626e-34
ELECTRON_CHARGE_C = 1.602e-19


class OokScheme(enum.IntEnum):
    """On-off keying pulse format; the integer value doubles as the
    numeric modulation feature in learner tables."""

    NRZ = 0
    RZ = 1


class UnattainableBerError(RuntimeError):
    """Raised when no finite transmit power reaches the requested BER."""


@dataclass(frozen=True)
class TransceiverConfig:
    """Optical head parameters: power, beam geometry, efficiencies."""

    tx_power_w: float = 0.1
    divergence_mrad: float = 3.0
    tx_efficiency: float = 0.8
    rx_efficiency: float = 0.8
    tx_aperture_m: float = 0.1
    rx_aperture_m: float = 0.1
    wavelength_nm: float = 1550.0
    rx_sensitivity_dbm: float = -40.0
    photons_per_bit: float = 100.0

    def __post_init__(self) -> None:
        for name in ("tx_power_w", "divergence_mrad", "tx_aperture_m",
                     "rx_aperture_m", "wavelength_nm", "photons_per_bit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("tx_efficiency", "rx_efficiency"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {val}")


@dataclass(frozen=True)
class ReceiverNoiseConfig:
    """PIN photoreceiver noise parameters."""

    responsivity_a_per_w: float = 0.7
    load_resistance_ohm: float = 1000.0
    dark_current_a: float = 10e-9
    temperature_k: float = 298.0
    electrical_bandwidth_hz: float = 1.0e9
    boltzmann_j_per_k: float = BOLTZMANN_J_PER_K
    planck_js: float = PLANCK_JS

    def __post_init__(self) -> None:
        for name in ("responsivity_a_per_w", "load_resistance_ohm", "temperature_k",
                     "electrical_bandwidth_hz", "boltzmann_j_per_k", "planck_js"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.dark_current_a < 0:
            raise ValueError(f"dark_current_a must be nonnegative, got {self.dark_current_a}")


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("total_attenuation_db", "noise_figure_db", "fade_margin_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise ValueError(f"cannot take dB of nonpositive value {x}")
    return 10.0 * math.log10(x)


def watts_to_dbm(p_w: float) -> float:
    if p_w <= 0:
        raise ValueError(f"cannot take dBm of nonpositive power {p_w}")
    return 10.0 * math.log10(p_w * 1e3)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def photon_energy(wavelength_nm: float, noise: ReceiverNoiseConfig) -> float:
    """Photon energy h*c/lambda in joules."""
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength_nm must be positive, got {wavelength_nm}")
    return noise.planck_js * SPEED_OF_LIGHT_M_PER_S / (wavelength_nm * 1e-9)


def received_power_geometric(cfg: TransceiverConfig, atten_db_per_km: float,
                             range_km: float) -> float:
    """Received power with the beam footprint grown from the transmit aperture.

    P_rx = P_tx * d_r^2 / (d_t + theta*L)^2 * 10^(-gamma*L/10).  At L = 0 the
    footprint is the transmit aperture itself.
    """
    if atten_db_per_km < 0:
        raise ValueError(f"atten_db_per_km must be nonnegative, got {atten_db_per_km}")
    if range_km < 0:
        raise ValueError(f"range_km must be nonnegative, got {range_km}")
    footprint_m = cfg.tx_aperture_m + cfg.divergence_mrad * range_km
    geometric = (cfg.rx_aperture_m / footprint_m) ** 2
    return cfg.tx_power_w * geometric * db_to_linear(-atten_db_per_km * range_km)


def received_power_aperture(cfg: TransceiverConfig, atten_db_per_km: float,
                            range_km: float) -> float:
    """Received power in the far-field aperture form, with optics efficiencies.

    P_rx = P_tx * D_r^2 / (theta*L)^2 * 10^(-gamma*L/10) * eff_t * eff_r,
    capped at P_tx * eff_t * eff_r since the geometric factor exceeds one
    inside the near field.  Singular at L = 0.
    """
    if range_km <= 0:
        raise ValueError(f"range_km must be positive (formula singular at 0), got {range_km}")
    if atten_db_per_km < 0:
        raise ValueError(f"atten_db_per_km must be nonnegative, got {atten_db_per_km}")
    geometric = (cfg.rx_aperture_m / (cfg.divergence_mrad * range_km)) ** 2
    ceiling = cfg.tx_power_w * cfg.tx_efficiency * cfg.rx_efficiency
    uncapped = ceiling * geometric * db_to_linear(-atten_db_per_km * range_km)
    return min(uncapped, ceiling)


def achievable_data_rate(p_received_w: float, wavelength_nm: float,
                         photons_per_bit: float, noise: ReceiverNoiseConfig) -> float:
    """Data rate 4*P_rx / (pi * E_photon * N_bits) in bits per second."""
    if p_received_w < 0:
        raise ValueError(f"p_received_w must be nonnegative, got {p_received_w}")
    if photons_per_bit <= 0:
        raise ValueError(f"photons_per_bit must be positive, got {photons_per_bit}")
    e_photon = photon_energy(wavelength_nm, noise)
    return 4.0 * p_received_w / (math.pi * e_photon * photons_per_bit)


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
        - 10.0 * math.log10(inputs.tx_gain_linear)
        + 10.0 * math.log10(inputs.rx_gain_linear)
        - 20.0 * math.log10(4.0 * math.pi / inputs.wavelength_m)
        - 10.0 * math.log10(inputs.noise_bandwidth_hz * inputs.ambient_temp_k
                            * BOLTZMANN_J_PER_K)
        - inputs.total_attenuation_db
        - inputs.noise_figure_db
        - inputs.fade_margin_db
    )


def electrical_snr_linear(p_received_w: float, noise: ReceiverNoiseConfig) -> float:
    """Electrical SNR of a PIN receiver: (R*P)^2 over shot + thermal noise."""
    if p_received_w < 0:
        raise ValueError(f"p_received_w must be nonnegative, got {p_received_w}")
    photocurrent = noise.responsivity_a_per_w * p_received_w
    bw = noise.electrical_bandwidth_hz
    shot = 2.0 * ELECTRON_CHARGE_C * (photocurrent + noise.dark_current_a) * bw
    thermal = 4.0 * noise.boltzmann_j_per_k * noise.temperature_k * bw / noise.load_resistance_ohm
    return photocurrent ** 2 / (shot + thermal)


def channel_capacity(bandwidth_hz: float, snr_linear: float) -> float:
    """Shannon capacity B * log2(1 + SNR) in bits per second."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be positive, got {bandwidth_hz}")
    if snr_linear < 0:
        raise ValueError(f"snr_linear must be nonnegative, got {snr_linear}")
    return bandwidth_hz * math.log2(1.0 + snr_linear)


def ber(scheme: OokScheme, snr_linear: float) -> float:
    """OOK bit-error probability as a function of linear SNR.

    NRZ: erfc(sqrt(SNR)/(2*sqrt(2)))/2.  RZ: erfc(sqrt(SNR)/2)/2, i.e. RZ
    needs half the SNR of NRZ for the same error rate.
    """
    if snr_linear < 0:
        raise ValueError(f"snr_linear must be nonnegative, got {snr_linear}")
    root = math.sqrt(snr_linear)
    if scheme is OokScheme.NRZ:
        return 0.5 * math.erfc(root / (2.0 * math.sqrt(2.0)))
    return 0.5 * math.erfc(root / 2.0)


def required_snr_for_ber(scheme: OokScheme, target_ber: float) -> float:
    """Smallest linear SNR whose BER is at or below the target.

    Solved by bisection on the NRZ curve to 1e-10 relative width; the RZ
    value is exactly half the NRZ one, so it is derived rather than
    re-solved, keeping the 3 dB identity exact.
    """
    if not 0.0 < target_ber < 0.5:
        raise ValueError(f"target_ber must lie strictly in (0, 0.5), got {target_ber}")
    lo, hi = 0.0, 1.0
    while ber(OokScheme.NRZ, hi) > target_ber:
        hi *= 2.0
        if hi > 1e12:
            raise UnattainableBerError(f"no SNR below 1e12 reaches BER {target_ber}")
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if ber(OokScheme.NRZ, mid) <= target_ber:
            hi = mid
        else:
            lo = mid
    return hi if scheme is OokScheme.NRZ else hi / 2.0


def _received_power_for_snr(snr_linear: float, noise: ReceiverNoiseConfig) -> float:
    # Positive root of the quadratic (R*P)^2 = snr * (shot(P) + thermal).
    bw = noise.electrical_bandwidth_hz
    shot_slope = ELECTRON_CHARGE_C * bw  # d(shot)/d(photocurrent) / 2
    fixed = (2.0 * ELECTRON_CHARGE_C * noise.dark_current_a * bw
             + 4.0 * noise.boltzmann_j_per_k * noise.temperature_k * bw
             / noise.load_resistance_ohm)
    photocurrent = (snr_linear * shot_slope
                    + math.sqrt((snr_linear * shot_slope) ** 2 + snr_linear * fixed))
    return photocurrent / noise.responsivity_a_per_w


def power_penalty_db(cfg: TransceiverConfig, noise: ReceiverNoiseConfig,
                     clear_beta_per_km: float, fog_beta_per_km: float,
                     range_km: float, target_ber: float,
                     scheme: OokScheme = OokScheme.NRZ) -> float:
    """Extra transmit power (dB) needed to hold the target BER under fog.

    Penalty = P_tx,req(fog) - P_tx,req(clear) in dB, where P_tx,req makes the
    PIN electrical SNR reach the BER's required SNR through the geometric
    received-power channel at the given range.
    """
    if clear_beta_per_km < 0:
        raise ValueError(f"clear_beta_per_km must be nonnegative, got {clear_beta_per_km}")
    if fog_beta_per_km < clear_beta_per_km:
        raise ValueError("fog_beta_per_km must be at least clear_beta_per_km")
    if range_km <= 0:
        raise ValueError(f"range_km must be positive, got {range_km}")

    snr_req = required_snr_for_ber(scheme, target_ber)
    p_rx_req = _received_power_for_snr(snr_req, noise)

    def tx_required(beta: float) -> float:
        atten_db_per_km = DB_PER_NEPER * beta
        unit = TransceiverConfig(
            tx_power_w=1.0,
            divergence_mrad=cfg.divergence_mrad,
            tx_efficiency=cfg.tx_efficiency,
            rx_efficiency=cfg.rx_efficiency,
            tx_aperture_m=cfg.tx_aperture_m,
            rx_aperture_m=cfg.rx_aperture_m,
            wavelength_nm=cfg.wavelength_nm,
            photons_per_bit=cfg.photons_per_bit,
        )
        channel_gain = received_power_geometric(unit, atten_db_per_km, range_km)
        if channel_gain == 0.0:  # the path loss underflowed: no finite power suffices
            raise UnattainableBerError(
                f"BER {target_ber} not attainable: the channel gain underflows to 0")
        return p_rx_req / channel_gain

    penalty = 10.0 * math.log10(tx_required(fog_beta_per_km) / tx_required(clear_beta_per_km))
    if not math.isfinite(penalty):
        raise UnattainableBerError(
            f"BER {target_ber} not attainable at any finite power over this channel")
    return penalty
