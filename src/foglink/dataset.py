"""Visibility observations in, learner-ready QoS tables out.

The CSV schema is ``station,date,hour,visibility_km,wind_speed_mps,
altitude_m`` with synoptic observation hours 8, 14 and 20 (others are
accepted with a warning).  Wind speed and altitude ride along unused; only
visibility drives the link physics.  A seeded lognormal generator stands in
for archive data, and ``build_qos_table`` expands records against
wavelength/power/modulation grids into the five-feature table (modulation,
data rate, attenuation, power, wavelength) whose target is the dB SNR
budget.
"""

from __future__ import annotations

import datetime
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .atmosphere import (
    DEFAULT_REFERENCE_WAVELENGTH_NM,
    AttenuationModel,
    OpticalPath,
    attenuation_db_per_km,
    extinction_coefficient,
    path_attenuation_db,
)
from .link_budget import (
    OokScheme,
    ReceiverNoiseConfig,
    RfBudgetInputs,
    TransceiverConfig,
    achievable_data_rate,
    received_power_geometric,
    snr_budget_db,
    watts_to_dbm,
)
from .tables import LabeledTable

SYNOPTIC_HOURS = (8, 14, 20)
TABLE_WAVELENGTHS_NM = (760.0, 860.0, 960.0, 1260.0, 1550.0)
CSV_HEADER = "station,date,hour,visibility_km,wind_speed_mps,altitude_m"
QOS_FEATURE_NAMES = ("modulation", "data_rate_bps", "attenuation_db_per_km",
                     "tx_power_w", "wavelength_nm")


class CsvParseError(ValueError):
    """Malformed visibility CSV; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class VisibilityRecord:
    station: str
    date: datetime.date
    hour: int
    visibility_km: float
    wind_speed_mps: float
    altitude_m: float


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str


@dataclass
class ParseResult:
    records: list[VisibilityRecord]
    rejected: list[RejectedRow] = field(default_factory=list)


def parse_visibility_csv(lines: Iterable[str]) -> ParseResult:
    """Parse the strict six-column schema.

    Structural problems (wrong header, wrong column count, unparseable or
    non-finite fields) raise :class:`CsvParseError` with the line number;
    rows that are well-formed but carry nonpositive visibility are collected
    in the rejected-row report instead.  Non-synoptic hours warn and pass
    through.
    """
    records: list[VisibilityRecord] = []
    rejected: list[RejectedRow] = []
    line_no = 0
    header_seen = False
    for raw in lines:
        line_no += 1
        text = raw.rstrip("\n")
        if not header_seen:
            if text.strip() != CSV_HEADER:
                raise CsvParseError(line_no, f"expected header {CSV_HEADER!r}, got {text!r}")
            header_seen = True
            continue
        if not text.strip():
            continue
        parts = text.split(",")
        if len(parts) != 6:
            raise CsvParseError(line_no, f"expected 6 columns, got {len(parts)}")
        station = parts[0].strip()
        if not station:
            raise CsvParseError(line_no, "column 'station' is empty")
        try:
            date = datetime.date.fromisoformat(parts[1].strip())
        except ValueError as exc:
            raise CsvParseError(line_no, f"column 'date': {exc}") from exc
        try:
            hour = int(parts[2])
        except ValueError as exc:
            raise CsvParseError(line_no, f"column 'hour': not an integer: {parts[2]!r}") from exc
        values = []
        for name, part in zip(("visibility_km", "wind_speed_mps", "altitude_m"), parts[3:]):
            try:
                value = float(part)
            except ValueError as exc:
                raise CsvParseError(line_no, f"column {name!r}: not a number: {part!r}") from exc
            if not math.isfinite(value):
                raise CsvParseError(line_no, f"column {name!r}: not finite: {part!r}")
            values.append(value)
        visibility, wind, altitude = values
        if visibility <= 0:
            rejected.append(RejectedRow(line_no, "nonpositive visibility"))
            continue
        if hour not in SYNOPTIC_HOURS:
            warnings.warn(f"line {line_no}: non-synoptic observation hour {hour}")
        records.append(VisibilityRecord(station, date, hour, visibility, wind, altitude))
    if not header_seen:
        raise CsvParseError(1, "empty input, header row required")
    return ParseResult(records=records, rejected=rejected)


def write_visibility_csv(records: Sequence[VisibilityRecord]) -> str:
    out = [CSV_HEADER]
    for r in records:
        out.append(f"{r.station},{r.date.isoformat()},{r.hour},"
                   f"{r.visibility_km!r},{r.wind_speed_mps!r},{r.altitude_m!r}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class StationClimatology:
    station: str
    n_records: int
    mean_visibility_km: float
    # per-wavelength mean of the per-record extinction coefficients (km^-1);
    # averaging happens after the nonlinear visibility->beta map, not before
    mean_extinction_per_km: dict[float, float]


def aggregate_station_climatology(
        records: Sequence[VisibilityRecord],
        wavelengths_nm: Sequence[float] = TABLE_WAVELENGTHS_NM,
        model: AttenuationModel = AttenuationModel.KRUSE,
        reference_wavelength_nm: float = DEFAULT_REFERENCE_WAVELENGTH_NM,
        stations: Optional[Sequence[str]] = None) -> dict[str, StationClimatology]:
    """Mean visibility and mean extinction per station over all its records."""
    grouped: dict[str, list[VisibilityRecord]] = {}
    for record in records:
        grouped.setdefault(record.station, []).append(record)
    wanted = list(stations) if stations is not None else sorted(grouped)
    missing = [s for s in wanted if s not in grouped]
    if missing:
        raise ValueError(f"no records for station(s): {', '.join(missing)}")
    lams = np.array(wavelengths_nm, dtype=float)
    out = {}
    for station in wanted:
        rows = grouped[station]
        visibilities = np.array([r.visibility_km for r in rows])
        betas = extinction_coefficient(
            OpticalPath(lams[:, None], 0.0, visibilities, reference_wavelength_nm), model)
        out[station] = StationClimatology(
            station=station, n_records=len(rows),
            mean_visibility_km=float(visibilities.mean()),
            mean_extinction_per_km=dict(zip(lams.tolist(), betas.mean(axis=1).tolist())))
    return out


@dataclass(frozen=True)
class StationProfile:
    """Lognormal visibility generator parameters for one synthetic station.

    The shipped presets are plausible placeholders for exercising the
    pipeline, not measured climatology.
    """

    name: str
    mean_visibility_km: float
    sigma: float
    wind_mean_mps: float = 4.0
    altitude_m: float = 1000.0

    def __post_init__(self) -> None:
        if self.mean_visibility_km <= 0:
            raise ValueError("mean_visibility_km must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


DEFAULT_STATION_PROFILES = {
    "Polokwane": StationProfile("Polokwane", 6.0, 0.50, 3.5, 1310.0),
    "Kimberley": StationProfile("Kimberley", 7.0, 0.45, 4.5, 1184.0),
    "Bloemfontein": StationProfile("Bloemfontein", 6.5, 0.50, 4.0, 1395.0),
    "George": StationProfile("George", 4.5, 0.60, 5.0, 190.0),
}


def synthesize_dataset(station_profiles: Sequence[StationProfile], n_days: int,
                       seed: int,
                       start_date: datetime.date = datetime.date(2010, 1, 1)
                       ) -> list[VisibilityRecord]:
    """Seeded surrogate archive: three observations per day per station.

    Visibility is lognormal with the profile's mean (mu = ln(mean) -
    sigma^2/2), so long runs average back to the profile mean.
    """
    if n_days < 1:
        raise ValueError(f"n_days must be positive, got {n_days}")
    rng = np.random.default_rng(seed)
    records = []
    for profile in station_profiles:
        mu = np.log(profile.mean_visibility_km) - 0.5 * profile.sigma ** 2
        for day in range(n_days):
            date = start_date + datetime.timedelta(days=day)
            for hour in SYNOPTIC_HOURS:
                visibility = float(rng.lognormal(mu, profile.sigma))
                wind = float(rng.gamma(2.0, profile.wind_mean_mps / 2.0))
                records.append(VisibilityRecord(
                    profile.name, date, hour, visibility, wind, profile.altitude_m))
    return records


@dataclass(frozen=True)
class TransceiverSweep:
    """Grid of transmit settings expanded against every visibility record."""

    base: TransceiverConfig
    wavelengths_nm: tuple[float, ...] = TABLE_WAVELENGTHS_NM
    tx_powers_w: tuple[float, ...] = (0.005, 0.025, 0.1)
    range_km: float = 1.0
    attenuation_model: AttenuationModel = AttenuationModel.KRUSE
    reference_wavelength_nm: float = DEFAULT_REFERENCE_WAVELENGTH_NM

    def __post_init__(self) -> None:
        if not self.wavelengths_nm or not self.tx_powers_w:
            raise ValueError("wavelength and power grids must be nonempty")
        if self.range_km <= 0:
            raise ValueError(f"range_km must be positive, got {self.range_km}")


@dataclass
class QosDataset:
    table: LabeledTable
    stations: np.ndarray  # row-aligned station labels

    def subset(self, indices: np.ndarray) -> "QosDataset":
        return QosDataset(self.table.subset(indices), self.stations[np.asarray(indices)])


def build_qos_table(records: Sequence[VisibilityRecord], sweep: TransceiverSweep,
                    noise: ReceiverNoiseConfig, budget: RfBudgetInputs) -> QosDataset:
    """Cartesian expansion records x wavelengths x powers x modulations.

    Row count is exactly ``len(records) * len(wavelengths) * len(powers) * 2``.
    The target is the dB SNR budget with the path attenuation folded into its
    attenuation term; the budget template's power, wavelength and attenuation
    entries are overridden per row, everything else is taken as given.
    """
    if not records:
        raise ValueError("need at least one visibility record")
    # grid axes: record x wavelength x power
    visibility = np.array([r.visibility_km for r in records])[:, None, None]
    lam = np.array(sweep.wavelengths_nm, dtype=float)[:, None]
    power = np.array(sweep.tx_powers_w, dtype=float)
    path = OpticalPath(lam, sweep.range_km, visibility, sweep.reference_wavelength_nm)
    beta = extinction_coefficient(path, sweep.attenuation_model)
    atten_db_km = attenuation_db_per_km(path, sweep.attenuation_model)
    total_atten_db = path_attenuation_db(beta, sweep.range_km)
    p_rx = received_power_geometric(replace(sweep.base, tx_power_w=power),
                                    atten_db_km, sweep.range_km)
    rate = achievable_data_rate(p_rx, lam, sweep.base.photons_per_bit, noise)
    snr_db = snr_budget_db(replace(
        budget, tx_power_dbm=watts_to_dbm(power),
        wavelength_m=lam * 1e-9, total_attenuation_db=total_atten_db))
    cells = np.stack([column.ravel() for column in
                      np.broadcast_arrays(rate, atten_db_km, power, lam)], axis=1)
    modulations = np.array(list(OokScheme), dtype=float)
    features = np.column_stack([np.tile(modulations, len(cells)),
                                np.repeat(cells, len(modulations), axis=0)])
    stations = np.repeat(np.array([r.station for r in records]),
                         len(features) // len(records))
    return QosDataset(LabeledTable(features, np.repeat(snr_db.ravel(), len(modulations)),
                                   QOS_FEATURE_NAMES), stations)
