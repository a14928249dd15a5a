"""Visibility observations in, learner-ready QoS tables out.

The CSV schema is ``station,date,hour,visibility_km,wind_speed_mps,
altitude_m`` with synoptic observation hours 8, 14 and 20 (others are
accepted and reported).  Wind speed and altitude ride along unused; only
visibility drives the link physics.  A seeded lognormal generator stands in
for archive data, and ``build_qos_table`` expands records against
wavelength/power/modulation grids into the five-feature table (modulation,
data rate, attenuation, power, wavelength) whose target is the dB SNR
budget.  The archive is one numpy record array (``visibility_records``)
from the synthesizer and the parser to the writer and the table build.
``read_csv_columns`` reads the archive's body and ``predict``'s feature
rows alike: a stream of lines, which only a newline ends, in blocks.
``csv_text`` writes every CSV the program outputs, the archive included.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import count, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    """Malformed CSV input; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def visibility_records(station, date, hour, visibility_km, wind_speed_mps,
                       altitude_m) -> np.recarray:
    """The archive as a numpy record array, one record per observation, its
    fields named as the CSV columns: ``station`` (a Python str per record,
    so one long name costs its own length only), ``date``
    (``datetime64[D]``), ``hour`` (int64) and the three float64 numbers.
    ``len``, ``records[i].visibility_km``, ``records.station`` and
    ``records[indices]`` work without any class code."""
    return np.rec.fromarrays(
        [np.asarray(station, dtype=object), np.asarray(date, dtype="datetime64[D]"),
         np.asarray(hour, dtype=np.int64),
         *(np.asarray(column, dtype=float)
           for column in (visibility_km, wind_speed_mps, altitude_m))],
        names=CSV_HEADER)


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str


@dataclass
class ParseResult:
    records: np.recarray
    rejected: list[RejectedRow] = field(default_factory=list)
    odd_hours: list[tuple[int, int]] = field(default_factory=list)  # (line, hour)


def parse_visibility_csv(lines: Iterable[str]) -> ParseResult:
    """Parse the strict six-column schema in one pass over ``lines``.

    Structural problems (wrong header, wrong column count, unparseable,
    non-finite or out-of-int64-range fields, a date not spelled
    ``YYYY-MM-DD``) raise :class:`CsvParseError` with the line number; rows
    that are well-formed but carry nonpositive visibility are collected in
    the rejected-row report instead, and rows at a non-synoptic hour are
    kept and listed in ``odd_hours``.  The body goes through
    :func:`read_csv_columns`.
    """
    lines = iter(lines)
    text = next(lines, None)
    if text is None:
        raise CsvParseError(1, "empty input, header row required")
    text = text.rstrip("\n")
    if text.strip() != CSV_HEADER:
        raise CsvParseError(1, f"expected header {CSV_HEADER!r}, got {text!r}")
    day = cache(lambda cell: _day(cell).toordinal() - _EPOCH_ORDINAL)
    line_nos, columns = read_csv_columns(lines, (
        Column("station", cache(_station), object, "column {name!r} is empty"),
        Column("date", day, "datetime64[D]", "column {name!r}: {exc}"),
        Column("hour", int, np.int64, "column {name!r}: not an integer: {cell!r}"),
        *map(Column, CSV_HEADER.split(",")[3:])))
    refused = columns[3] <= 0
    rejected = [RejectedRow(line_no, "nonpositive visibility")
                for line_no in line_nos[refused].tolist()]
    if rejected:
        line_nos, *columns = [column[~refused] for column in (line_nos, *columns)]
    odd = ~np.isin(columns[2], SYNOPTIC_HOURS)
    return ParseResult(visibility_records(*columns), rejected,
                       list(zip(line_nos[odd].tolist(), columns[2][odd].tolist())))


_CHUNK_LINES = 4096
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def _station(cell: str) -> str:
    name = cell.strip()
    if not name:
        raise ValueError("empty station")
    return name


def _day(cell: str) -> datetime.date:
    """The date of a ``YYYY-MM-DD`` cell, padding allowed.  Any other
    spelling is refused with Python 3.10's ``date.fromisoformat`` text,
    since later versions also take ISO week and basic forms."""
    text = cell.strip()
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return datetime.date.fromisoformat(text)


class Column(NamedTuple):
    """One CSV column: its name, a converter of one cell that raises
    ``ValueError`` on a cell it refuses, the dtype of the values, and the
    message for a refused cell, formatted with ``name``, ``cell`` and ``exc``."""

    name: str
    convert: Callable[[str], object] = float
    dtype: object = float
    refused: str = "column {name!r}: not a number: {cell!r}"


def read_csv_columns(lines: Iterator[str], columns: Sequence[Column]
                     ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The line numbers of the non-blank lines after a CSV's header, the
    first being line 2, and their cells, one array per column.  Floats must
    be finite and integers must fit the dtype.  ``lines`` is read once, in
    blocks of ``_CHUNK_LINES`` converted a column at a time; a faulty block
    is checked again line by line, and its first bad line raises
    :class:`CsvParseError` naming it."""
    chunks = []
    for first in count(2, _CHUNK_LINES):
        block = list(islice(lines, _CHUNK_LINES))
        try:
            offsets, values = _block_columns(block, columns)
        except (ValueError, OverflowError):
            _check_lines(block, first, columns)
            raise  # the column parse refused what the line check accepts
        chunks.append([offsets + first, *values])
        if len(block) < _CHUNK_LINES:
            break
    line_nos, *values = [np.concatenate(column) for column in zip(*chunks)]
    return line_nos, values


def _block_columns(block: list[str], columns: Sequence[Column]):
    """The offsets in ``block`` of its non-blank lines and their columns;
    any fault raises ``ValueError`` or ``OverflowError`` without naming a
    line."""
    n = len(columns)
    filled = np.fromiter(map(str.count, block, repeat(",")), np.int64, len(block)) == n - 1
    if n == 1:  # a blank line has the one column's comma count too
        filled &= np.fromiter(map(bool, map(str.strip, block)), bool, len(block))
    offsets = np.flatnonzero(filled)
    if len(offsets) < len(block):  # blank lines are skipped, any other line is a fault
        if any(block[i].strip() for i in np.flatnonzero(~filled).tolist()):
            raise ValueError("wrong column count")
        block = [block[i] for i in offsets.tolist()]
    cells = ",".join(block).split(",")
    values = [np.fromiter(map(column.convert, cells[k::n]), column.dtype, len(block))
              for k, column in enumerate(columns)]
    if not all(np.isfinite(v).all() for v in values if v.dtype.kind == "f"):
        raise ValueError("non-finite number")
    return offsets, values


def _check_lines(block: list[str], first_line_no: int, columns: Sequence[Column]) -> None:
    """Check ``block`` one line at a time, its first line numbered
    ``first_line_no``: the first bad line raises :class:`CsvParseError`
    naming it."""
    for line_no, raw in enumerate(block, start=first_line_no):
        text = raw.rstrip("\n")
        if not text.strip():
            continue
        cells = text.split(",")
        if len(cells) != len(columns):
            raise CsvParseError(line_no, f"expected {len(columns)} columns, got {len(cells)}")
        for (name, convert, dtype, refused), cell in zip(columns, cells):
            try:
                value = np.asarray(convert(cell), dtype)
            except ValueError as exc:
                raise CsvParseError(line_no, refused.format(name=name, cell=cell, exc=exc))
            except OverflowError:
                raise CsvParseError(line_no, f"column {name!r}: out of range: {cell!r}")
            if value.dtype.kind == "f" and not np.isfinite(value):
                raise CsvParseError(line_no, f"column {name!r}: not finite: {cell!r}")


def write_visibility_csv(records: np.recarray) -> str:
    """The CSV text of ``records``, one column per field, by :func:`csv_text`."""
    return csv_text(CSV_HEADER.split(","), [records[name] for name in records.dtype.names])


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """The CSV text of ``columns``, which broadcast together, one line per
    element in C order: the writer paired with :func:`read_csv_columns`.  A
    cell is its value's ``str``, so a float's shortest round-trip ``repr``.
    In each block of ``_CHUNK_LINES`` lines a numpy column's distinct values,
    told apart by their bits (``-0.0`` from ``0.0``), are formatted once; any
    other column holds Python objects, each ``str``-ed where it stands."""
    columns = [column if isinstance(column, np.ndarray) else np.asarray(column, dtype=object)
               for column in columns]
    grid = np.broadcast(*columns)
    cells = [np.broadcast_to(column, grid.shape).flat for column in columns]
    lines = [",".join(header)]
    for start in range(0, grid.size, _CHUNK_LINES):
        texts = (_texts(column[start:start + _CHUNK_LINES]) for column in cells)
        lines += map(",".join, zip(*texts))
    return "\n".join(lines) + "\n"


def _texts(values: np.ndarray) -> list[str]:
    """The ``str`` of each of ``values``, each distinct number, date or string once."""
    if values.dtype == object:
        return list(map(str, values.tolist()))
    keys = values.view(f"u{values.itemsize}") if values.dtype.kind in "fmM" else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.frompyfunc(str, 1, 1)(distinct.view(values.dtype))[inverse].tolist()


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
                       seed: int) -> np.recarray:
    """Seeded surrogate archive: three observations per day per station,
    station by station, day by day from 2010-01-01, hour by hour.

    Visibility is lognormal with the profile's mean (mu = ln(mean) -
    sigma^2/2), so long runs average back to the profile mean.  Each record
    draws one lognormal visibility, then one gamma wind speed.
    """
    if n_days < 1:
        raise ValueError(f"n_days must be positive, got {n_days}")
    rng = np.random.default_rng(seed)
    per_station = n_days * len(SYNOPTIC_HOURS)
    visibility = np.empty(len(station_profiles) * per_station)
    wind = np.empty_like(visibility)
    start = 0
    for profile in station_profiles:
        mu = np.log(profile.mean_visibility_km) - 0.5 * profile.sigma ** 2
        scale = profile.wind_mean_mps / 2.0
        for k in range(start, start + per_station):
            visibility[k] = rng.lognormal(mu, profile.sigma)
            wind[k] = rng.gamma(2.0, scale)
        start += per_station
    dates = np.datetime64("2010-01-01") + np.arange(n_days).repeat(len(SYNOPTIC_HOURS))
    return visibility_records(
        np.repeat(np.array([p.name for p in station_profiles], dtype=object), per_station),
        np.tile(dates, len(station_profiles)),
        np.tile(SYNOPTIC_HOURS, n_days * len(station_profiles)), visibility, wind,
        np.repeat([p.altitude_m for p in station_profiles], per_station))


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


def build_qos_table(records: np.recarray, sweep: TransceiverSweep,
                    noise: ReceiverNoiseConfig, budget: RfBudgetInputs) -> QosDataset:
    """Cartesian expansion records x wavelengths x powers x modulations.

    Row count is exactly ``len(records) * len(wavelengths) * len(powers) * 2``.
    The target is the dB SNR budget with the path attenuation folded into its
    attenuation term; the budget template's power, wavelength and attenuation
    entries are overridden per row, everything else is taken as given.
    """
    if len(records) == 0:
        raise ValueError("need at least one visibility record")
    # grid axes: record x wavelength x power
    visibility = records.visibility_km[:, None, None]
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
    stations = np.repeat(records.station, len(features) // len(records))
    return QosDataset(LabeledTable(features, np.repeat(snr_db.ravel(), len(modulations)),
                                   QOS_FEATURE_NAMES), stations)
