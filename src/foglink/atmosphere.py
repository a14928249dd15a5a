"""Fog attenuation of an optical path from meteorological visibility.

Visibility V is the path length over which atmospheric transmittance falls
to a threshold (2% for optical wireless links, 5% for airport runway visual
range).  From V and the operating wavelength the Kruse or Kim scattering
model gives a particle-size exponent q, an extinction coefficient in km^-1,
and from there transmittance and dB path loss.

Every function takes scalars or numpy arrays that broadcast against each
other (an :class:`OpticalPath` may hold arrays too); a scalar in gives a
float out.  Both go through the same numpy ufuncs, so a scalar call equals
the matching element of an array call bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

DEFAULT_REFERENCE_WAVELENGTH_NM = 550.0
DEFAULT_TRANSMITTANCE_THRESHOLD = 0.02

DB_PER_NEPER = 10.0 * np.log10(np.e)  # 4.3429... dB per unit of beta*L


def _reject(bad, message: str, value=None) -> None:
    """Raise ValueError(message) if any element of ``bad`` holds.  The
    message's ``{}`` shows ``value``, or for an array its first bad element,
    so an error names one offending number however large the array."""
    if np.any(bad):
        if np.ndim(bad):
            value = np.broadcast_to(value, np.shape(bad))[bad][0]
        raise ValueError(message.format(value))


class AttenuationModel(enum.Enum):
    """Particle-size exponent model: Kruse, or Kim's low-visibility revision."""

    KRUSE = "kruse"
    KIM = "kim"


@dataclass(frozen=True)
class OpticalPath:
    """One line-of-sight link: wavelength, range and prevailing visibility.

    ``reference_wavelength_nm`` is the visible-band wavelength at which the
    visibility threshold is defined; ``transmittance_threshold`` is that
    threshold (2% default, 5% for runway visual range).
    """

    wavelength_nm: float
    range_km: float
    visibility_km: float
    reference_wavelength_nm: float = DEFAULT_REFERENCE_WAVELENGTH_NM
    transmittance_threshold: float = DEFAULT_TRANSMITTANCE_THRESHOLD

    def __post_init__(self) -> None:
        _reject(self.wavelength_nm <= 0, "wavelength_nm must be positive, got {}",
                self.wavelength_nm)
        _reject(self.visibility_km <= 0, "visibility_km must be positive, got {}",
                self.visibility_km)
        _reject(self.range_km < 0, "range_km must be nonnegative, got {}", self.range_km)
        _reject(self.reference_wavelength_nm <= 0, "reference_wavelength_nm must be positive")
        threshold = self.transmittance_threshold
        _reject(np.logical_not((0.0 < threshold) & (threshold < 1.0)),
                "transmittance_threshold must lie strictly in (0, 1), got {}", threshold)


def particle_size_exponent(visibility_km: float, model: AttenuationModel) -> float:
    """Wavelength-dependence exponent q(V) of the scattering model.

    Piecewise in visibility; boundaries are half-open upward, so q(1 km)
    evaluates on the 1..6 km segment and q(6 km) on the 6..50 km segment.
    """
    v = visibility_km
    _reject(v <= 0, "visibility_km must be positive, got {}", v)
    if model is AttenuationModel.KRUSE:
        below_6km = 0.585 * np.power(v, 1.0 / 3.0)
    else:  # Kim revision below 6 km
        below_6km = np.select([v >= 1.0, v >= 0.5], [0.16 * v + 0.34, v - 0.5], 0.0)
    # [()] turns the 0-d result of a scalar call into a float
    return np.select([v >= 50.0, v >= 6.0], [1.6, 1.3], below_6km)[()]


def extinction_coefficient(path: OpticalPath, model: AttenuationModel) -> float:
    """Extinction coefficient beta in km^-1 for the path's visibility.

    beta = (-ln(threshold) / V) * (lambda / lambda_ref)^(-q).  With the 2%
    threshold the leading factor is the familiar 3.912/V; at the reference
    wavelength the ratio term is one.  Convert to dB/km by multiplying with
    10*log10(e) (see :func:`path_attenuation_db`).
    """
    q = particle_size_exponent(path.visibility_km, model)
    base = -np.log(path.transmittance_threshold) / path.visibility_km
    return base * np.power(path.wavelength_nm / path.reference_wavelength_nm, -q)


def transmittance(beta_per_km: float, range_km: float) -> float:
    """Beer-Lambert transmittance exp(-beta * L) over the path, in (0, 1]."""
    _reject(beta_per_km < 0, "beta_per_km must be nonnegative, got {}", beta_per_km)
    _reject(range_km < 0, "range_km must be nonnegative, got {}", range_km)
    return np.exp(-beta_per_km * range_km)


def path_attenuation_db(beta_per_km: float, range_km: float) -> float:
    """Total path loss in dB: 10*log10(e) * beta * L.  Additive in L."""
    _reject(beta_per_km < 0, "beta_per_km must be nonnegative, got {}", beta_per_km)
    _reject(range_km < 0, "range_km must be nonnegative, got {}", range_km)
    return DB_PER_NEPER * beta_per_km * range_km


def attenuation_db_per_km(path: OpticalPath, model: AttenuationModel) -> float:
    """Specific attenuation in dB/km (extinction coefficient times 10*log10 e)."""
    return DB_PER_NEPER * extinction_coefficient(path, model)
