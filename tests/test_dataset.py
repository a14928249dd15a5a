import datetime
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from foglink.atmosphere import (
    AttenuationModel,
    OpticalPath,
    attenuation_db_per_km,
    extinction_coefficient,
    path_attenuation_db,
)
from foglink.dataset import (
    CSV_HEADER,
    DEFAULT_STATION_PROFILES,
    SYNOPTIC_HOURS,
    CsvParseError,
    RejectedRow,
    StationProfile,
    TransceiverSweep,
    build_qos_table,
    parse_visibility_csv,
    synthesize_dataset,
    visibility_records,
    write_visibility_csv,
)
from foglink.link_budget import (
    BOLTZMANN_J_PER_K,
    ReceiverNoiseConfig,
    RfBudgetInputs,
    TransceiverConfig,
    achievable_data_rate,
    received_power_geometric,
    snr_budget_db,
    watts_to_dbm,
)
from foglink.tables import split_indices


def records(visibilities, stations=None, hours=None):
    """One record per visibility, on consecutive days from 2015-01-01."""
    n = len(visibilities)
    return visibility_records(stations or ["Test"] * n,
                              np.datetime64("2015-01-01") + np.arange(n),
                              hours or [8] * n, visibilities, [3.0] * n, [100.0] * n)


class TestParse:
    def test_round_trip_three_rows(self):
        written = records([2.0, 3.5, 2.0], hours=[8, 8, 20])
        text = write_visibility_csv(written)
        result = parse_visibility_csv(text.splitlines())
        assert result.records.tolist() == written.tolist()
        assert result.records.dtype == written.dtype
        assert write_visibility_csv(result.records) == text

    def test_nonpositive_visibility_rejected_with_reason(self):
        text = ("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                "A,2015-01-01,8,0.0,1.0,10.0\n"
                "A,2015-01-01,14,2.0,1.0,10.0\n")
        result = parse_visibility_csv(text.splitlines())
        assert len(result.records) == 1
        assert len(result.rejected) == 1
        assert result.rejected[0].line_no == 2
        assert "nonpositive visibility" in result.rejected[0].reason

    def test_non_synoptic_hour_reported_and_kept(self):
        text = ("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                "A,2015-01-01,11,2.0,1.0,10.0\n"
                "A,2015-01-01,14,2.0,1.0,10.0\n"
                "A,2015-01-01,+9,-2.0,1.0,10.0\n")
        result = parse_visibility_csv(text.splitlines())
        assert result.records.hour.tolist() == [11, 14]
        assert result.odd_hours == [(2, 11)]  # the rejected row is not listed
        assert result.rejected == [RejectedRow(4, "nonpositive visibility")]

    @pytest.mark.parametrize("cell, error", [
        ("20150103", "Invalid isoformat string: '20150103'"),
        ("2015-W01-1", "Invalid isoformat string: '2015-W01-1'"),
        ("2015W011", "Invalid isoformat string: '2015W011'"),
        ("2015-W01", "Invalid isoformat string: '2015-W01'"),
        ("2015-1-1", "Invalid isoformat string: '2015-1-1'"),
        ("2015-02-30", "day is out of range for month"),
        (" 2015-01-02 ", None),
    ])
    def test_only_yyyy_mm_dd_dates(self, cell, error):
        """Python 3.11 and later take ISO week and basic dates, 3.10 does
        not; the archive takes neither, on every version."""
        lines = [CSV_HEADER, f"A,{cell},8,2.0,1.0,10.0"]
        if error is None:
            assert parse_visibility_csv(lines).records.date.tolist() == [
                datetime.date(2015, 1, 2)]
            return
        with pytest.raises(CsvParseError) as err:
            parse_visibility_csv(lines)
        assert str(err.value) == f"line 2: column 'date': {error}"

    def test_malformed_row_identifies_line_and_column(self):
        text = ("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                "A,2015-01-01,8,2.0,1.0,10.0\n"
                "A,2015-01-01,8,not-a-number,1.0,10.0\n")
        with pytest.raises(CsvParseError, match="line 3") as err:
            parse_visibility_csv(text.splitlines())
        assert "visibility_km" in str(err.value)

    @pytest.mark.parametrize("spelling", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("column", [3, 4, 5], ids=["visibility", "wind", "altitude"])
    def test_non_finite_number_identifies_line_and_column(self, column, spelling):
        cells = ["A", "2015-01-01", "8", "2.0", "1.0", "10.0"]
        cells[column] = spelling
        text = ("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                "A,2015-01-01,8,2.0,1.0,10.0\n" + ",".join(cells) + "\n")
        name = CSV_HEADER.split(",")[column]
        with pytest.raises(CsvParseError,
                           match=f"^line 3: column '{name}': not finite: '{spelling}'$"):
            parse_visibility_csv(text.splitlines())

    def test_wrong_column_count(self):
        text = ("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                "A,2015-01-01,8,2.0\n")
        with pytest.raises(CsvParseError, match="line 2"):
            parse_visibility_csv(text.splitlines())

    def test_bad_header(self):
        with pytest.raises(CsvParseError, match="line 1"):
            parse_visibility_csv(["station,when,hour,v,w,a", "A,2015-01-01,8,1,1,1"])

    def test_empty_input(self):
        with pytest.raises(CsvParseError):
            parse_visibility_csv([])


@dataclass(frozen=True)
class ReferenceRecord:
    station: str
    date: datetime.date
    hour: int
    visibility_km: float
    wind_speed_mps: float
    altitude_m: float


def reference_parse(lines):
    """The list-of-records line loop the columnar parse replaced, kept as
    its reference: (records, rejected rows, (line, hour) of each kept row at
    a non-synoptic hour)."""
    records, rejected, odd_hours = [], [], []
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
            date = parts[1].strip()
            if len(date) != 10 or date[4] + date[7] != "--":
                raise ValueError(f"Invalid isoformat string: {date!r}")
            date = datetime.date.fromisoformat(date)
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
            odd_hours.append((line_no, hour))
        records.append(ReferenceRecord(station, date, hour, visibility, wind, altitude))
    if not header_seen:
        raise CsvParseError(1, "empty input, header row required")
    return records, rejected, odd_hours


def reference_synthesize(station_profiles, n_days, seed):
    """The per-record synthesizer the columnar one replaced."""
    rng = np.random.default_rng(seed)
    out = []
    for profile in station_profiles:
        mu = np.log(profile.mean_visibility_km) - 0.5 * profile.sigma ** 2
        for day in range(n_days):
            date = datetime.date(2010, 1, 1) + datetime.timedelta(days=day)
            for hour in SYNOPTIC_HOURS:
                visibility = float(rng.lognormal(mu, profile.sigma))
                wind = float(rng.gamma(2.0, profile.wind_mean_mps / 2.0))
                out.append(ReferenceRecord(profile.name, date, hour, visibility, wind,
                                           profile.altitude_m))
    return out


def reference_write(records):
    out = [CSV_HEADER]
    for r in records:
        out.append(f"{r.station},{r.date.isoformat()},{r.hour},"
                   f"{r.visibility_km!r},{r.wind_speed_mps!r},{r.altitude_m!r}")
    return "\n".join(out) + "\n"


def run(parse, lines):
    """What ``parse`` gives for ``lines``: its value, or its exception's
    type and text."""
    try:
        return parse(lines)
    except Exception as exc:
        return type(exc), str(exc)


def as_tuples(records):
    return [(r.station, r.date, r.hour, r.visibility_km, r.wind_speed_mps, r.altitude_m)
            for r in records]


# Cells the reference accepts, in the spellings float(), int() and
# date.fromisoformat() take.
GOOD_CELLS = (
    st.sampled_from(["A", " B ", "Ké", "A B", "\tC", "D\x00"]),
    st.one_of(st.dates().map(datetime.date.isoformat),
              st.sampled_from([" 2015-01-02 ", "0999-12-31", "2016-02-29"])),
    st.one_of(st.sampled_from(["8", "14", "20", "+8", "0_8", " 14 ", "-3", "11", "٨"]),
              st.integers(-2 ** 63, 2 ** 63 - 1).map(str)),
    *[st.one_of(st.sampled_from(["1_0", " 1.5 ", "2.", ".5", "-0.0", "0", "-2", "1e-400",
                                 "1E3", "１２"]),
                st.floats(allow_nan=False, allow_infinity=False).map(repr))] * 3,
)
BAD_CELLS = (
    st.sampled_from(["", "   "]),
    st.sampled_from(["2015-1-1", "20150103", "2015-W01-1", "2015W011", "2015-W01",
                     "2015-02-30", "x", "", "2015-01-01T00", "2015-001"]),
    st.sampled_from(["8.0", "x", "", "1__0", "0x8"]),
    *[st.sampled_from(["nan", "inf", "-inf", "1e400", "x", "", "1__0", "0x1"])] * 3,
)


@st.composite
def archive_lines(draw):
    """A header and up to 12 lines: blank, good rows, and at most one row
    with a refused cell, a missing cell or an extra one; any line may keep
    its newline."""
    lines = [CSV_HEADER]
    bad_at = draw(st.integers(-1, 11))
    for k in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 4 + ["blank"]))
        if kind == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        else:
            cells = [draw(strategy) for strategy in GOOD_CELLS]
            if k == bad_at:
                fault = draw(st.sampled_from(["cell", "short", "long"]))
                if fault == "cell":
                    column = draw(st.integers(0, 5))
                    cells[column] = draw(BAD_CELLS[column])
                elif fault == "short":
                    cells = cells[:draw(st.integers(1, 5))]
                else:
                    cells.append(draw(GOOD_CELLS[3]))
            line = ",".join(cells)
        lines.append(line + draw(st.sampled_from(["", "\n"])))
    return lines


class TestColumnarParse:
    @settings(max_examples=400, deadline=None)
    @given(lines=archive_lines())
    def test_equals_line_loop(self, lines):
        got = run(parse_visibility_csv, lines)
        want = run(reference_parse, lines)
        if isinstance(want[0], type):
            assert got == want
            return
        assert got.records.tolist() == as_tuples(want[0])
        assert got.rejected == want[1]
        assert got.odd_hours == want[2]

    @staticmethod
    def archive_rows():
        """The header and 9,000 synoptic rows, line k + 1 at index k."""
        return reference_write(reference_synthesize(
            [DEFAULT_STATION_PROFILES["George"]], 3000, seed=5)).splitlines()

    @staticmethod
    def set_hour(rows, index, hour):
        cells = rows[index].split(",")
        rows[index] = ",".join(cells[:2] + [hour] + cells[3:])

    def test_fault_in_a_later_chunk_names_its_line(self):
        """Blank lines, rejected rows and odd hours across several chunks,
        then a bad cell: the same report, then the same error and nothing
        else."""
        rows = self.archive_rows()
        rows[100] = ""
        self.set_hour(rows, 5000, "9")
        rows[7000] = "   "
        rows[8000] = rows[8000].split(",", 3)[0] + ",2015-01-01,11,-1.0,1.0,1.0"
        good = parse_visibility_csv(rows)
        want = reference_parse(rows)
        assert good.odd_hours == want[2] == [(5001, 9)]
        assert good.records.tolist() == as_tuples(want[0])
        assert good.rejected == want[1] == [RejectedRow(8001, "nonpositive visibility")]
        self.set_hour(rows, 8500, "x")
        assert run(parse_visibility_csv, rows) == run(reference_parse, rows) == (
            CsvParseError, "line 8501: column 'hour': not an integer: 'x'")

    @pytest.mark.parametrize("line_no", [4097, 4098], ids=["last-of-chunk-1", "first-of-chunk-2"])
    def test_fault_at_a_chunk_boundary_names_its_line(self, line_no):
        rows = self.archive_rows()
        self.set_hour(rows, line_no - 1, "8.0")
        assert run(parse_visibility_csv, rows) == run(reference_parse, rows) == (
            CsvParseError, f"line {line_no}: column 'hour': not an integer: '8.0'")

    def test_odd_hours_in_both_chunks_in_line_order(self):
        rows = self.archive_rows()
        for line_no, hour in [(3, "11"), (4097, "+9"), (4098, "-3"), (9001, "0")]:
            self.set_hour(rows, line_no - 1, hour)
        result = parse_visibility_csv(rows)
        assert result.odd_hours == [(3, 11), (4097, 9), (4098, -3), (9001, 0)]
        assert result.records.tolist() == as_tuples(reference_parse(rows)[0])

    def test_reads_a_one_shot_generator(self):
        """The lines are read once, in order, so a generator will do."""
        rows = self.archive_rows()
        rows[5000] = ""
        self.set_hour(rows, 6000, "9")
        result = parse_visibility_csv(line for line in rows)
        want = reference_parse(rows)
        assert result.records.tolist() == as_tuples(want[0])
        assert result.odd_hours == want[2] == [(6001, 9)]

    def test_hour_outside_int64_is_refused(self):
        """The one rule the line loop lacked: the hour column is int64."""
        lines = [CSV_HEADER, "A,2015-01-01,8,2.0,1.0,10.0",
                 "A,2015-01-01,9223372036854775808,2.0,1.0,10.0"]
        with pytest.raises(CsvParseError,
                           match="^line 3: column 'hour': out of range: '9223372036854775808'$"):
            parse_visibility_csv(lines)

    @pytest.mark.parametrize("seed, stations", [
        (0, ["George"]), (7, ["Polokwane", "Kimberley"]), (11, list(DEFAULT_STATION_PROFILES))])
    def test_synthesize_and_write_equal_per_record_loop(self, seed, stations):
        profiles = [DEFAULT_STATION_PROFILES[name] for name in stations]
        archive = synthesize_dataset(profiles, 40, seed)
        reference = reference_synthesize(profiles, 40, seed)
        assert archive.tolist() == as_tuples(reference)
        text = write_visibility_csv(archive)
        assert text == reference_write(reference)
        assert write_visibility_csv(parse_visibility_csv(text.splitlines()).records) == text

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.text(st.characters(blacklist_characters=",\n\r", blacklist_categories=["Zs"]),
                min_size=1, max_size=5),
        st.dates(), st.integers(-2 ** 63, 2 ** 63 - 1),
        *[st.floats(allow_nan=False, allow_infinity=False)] * 3), max_size=8))
    @example(rows=[("A", datetime.date(2015, 1, 1), 8, 1.0, 1.0, altitude)
                   for altitude in (0.0, -0.0)])
    def test_write_equals_per_record_writer(self, rows):
        reference = [ReferenceRecord(*row) for row in rows]
        archive = visibility_records(*(zip(*rows) if rows else [[]] * 6))
        assert write_visibility_csv(archive) == reference_write(reference)


class TestSynthesize:
    def test_three_records_per_day(self):
        profile = StationProfile("X", 5.0, 0.5)
        records = synthesize_dataset([profile], 1, seed=0)
        assert len(records) == 3
        assert [r.hour for r in records] == [8, 14, 20]

    def test_deterministic(self):
        profiles = [DEFAULT_STATION_PROFILES["George"]]
        first = synthesize_dataset(profiles, 5, seed=3).tolist()
        assert synthesize_dataset(profiles, 5, seed=3).tolist() == first
        assert synthesize_dataset(profiles, 5, seed=4).tolist() != first

    def test_visibility_always_positive(self):
        records = synthesize_dataset([StationProfile("X", 0.5, 1.0)], 200, seed=1)
        assert all(r.visibility_km > 0 for r in records)

    def test_long_run_mean_near_profile_mean(self):
        profile = StationProfile("X", 5.0, 0.5)
        records = synthesize_dataset([profile], 3650, seed=2)
        mean = np.mean([r.visibility_km for r in records])
        assert 4.75 <= mean <= 5.25


SWEEP = TransceiverSweep(base=TransceiverConfig(), wavelengths_nm=(760.0, 1550.0),
                         tx_powers_w=(0.01, 0.1), range_km=1.0)
NOISE = ReceiverNoiseConfig()
BUDGET = RfBudgetInputs(tx_power_dbm=20.0)


class TestBuildQosTable:
    def test_row_count_formula(self):
        qos = build_qos_table(records([1.0, 2.0, 3.0]), SWEEP, NOISE, BUDGET)
        assert qos.table.n_rows == 3 * 2 * 2 * 2
        assert qos.table.feature_names == (
            "modulation", "data_rate_bps", "attenuation_db_per_km",
            "tx_power_w", "wavelength_nm")
        assert len(qos.stations) == qos.table.n_rows

    def test_single_record_single_cell_gives_two_rows(self):
        sweep = TransceiverSweep(base=TransceiverConfig(), wavelengths_nm=(1550.0,),
                                 tx_powers_w=(0.1,), range_km=1.0)
        qos = build_qos_table(records([2.0]), sweep, NOISE, BUDGET)
        assert qos.table.n_rows == 2
        assert sorted(qos.table.features[:, 0]) == [0.0, 1.0]

    def test_target_reproduces_budget_recomputation(self):
        qos = build_qos_table(records([0.9, 4.0]), SWEEP, NOISE, BUDGET)
        X, y = qos.table.features, qos.table.targets
        for i in range(qos.table.n_rows):
            atten_db_km, power, lam = X[i, 2], X[i, 3], X[i, 4]
            recomputed = snr_budget_db(
                RfBudgetInputs(tx_power_dbm=watts_to_dbm(power),
                               wavelength_m=lam * 1e-9,
                               total_attenuation_db=atten_db_km * SWEEP.range_km))
            assert y[i] == pytest.approx(recomputed, rel=1e-12)

    def test_attenuation_constant_across_modulations(self):
        qos = build_qos_table(records([2.0]), SWEEP, NOISE, BUDGET)
        X = qos.table.features
        for i in range(0, qos.table.n_rows, 2):
            assert X[i, 2] == X[i + 1, 2]
            assert X[i, 1] == X[i + 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(visibilities=st.lists(st.floats(0.02, 80.0), min_size=1, max_size=4),
           wavelengths=st.lists(st.floats(600.0, 1700.0), min_size=1, max_size=3),
           powers=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=3),
           range_km=st.floats(0.05, 5.0),
           model=st.sampled_from(AttenuationModel),
           gains=st.tuples(st.floats(0.5, 10.0), st.floats(0.5, 10.0)),
           margins=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)))
    def test_rows_equal_scalar_physics_and_closed_form(self, visibilities, wavelengths,
                                                       powers, range_km, model, gains,
                                                       margins):
        archive = records(visibilities, stations=[f"S{k}" for k in range(len(visibilities))])
        sweep = TransceiverSweep(base=TransceiverConfig(), wavelengths_nm=tuple(wavelengths),
                                 tx_powers_w=tuple(powers), range_km=range_km,
                                 attenuation_model=model)
        (g_tx, g_rx), (noise_figure, fade) = gains, margins
        budget = RfBudgetInputs(tx_power_dbm=20.0, tx_gain_linear=g_tx, rx_gain_linear=g_rx,
                                noise_figure_db=noise_figure, fade_margin_db=fade)
        qos = build_qos_table(archive, sweep, NOISE, budget)
        X, y = qos.table.features, qos.table.targets
        # independent reference: the budget with P_tx in W and lambda in nm pulled out
        c = (-20.0 * math.log10(4.0 * math.pi) - 180.0
             - 10.0 * math.log10(budget.noise_bandwidth_hz * budget.ambient_temp_k
                                 * BOLTZMANN_J_PER_K)
             + 10.0 * math.log10(g_rx / g_tx) - noise_figure - fade)
        i = 0
        for rec in archive:  # rows run record-major, then wavelength, power, modulation
            for lam in wavelengths:
                path = OpticalPath(lam, range_km, rec.visibility_km)
                atten = attenuation_db_per_km(path, model)
                total = path_attenuation_db(extinction_coefficient(path, model), range_km)
                for power in powers:
                    p_rx = received_power_geometric(replace(sweep.base, tx_power_w=power),
                                                    atten, range_km)
                    rate = achievable_data_rate(p_rx, lam, sweep.base.photons_per_bit, NOISE)
                    snr = snr_budget_db(replace(budget, tx_power_dbm=watts_to_dbm(power),
                                                wavelength_m=lam * 1e-9,
                                                total_attenuation_db=total))
                    closed = (10.0 * math.log10(power) + 20.0 * math.log10(lam)
                              - range_km * atten + c)
                    for modulation in (0.0, 1.0):
                        assert (X[i, 0], X[i, 1], X[i, 2], X[i, 3], X[i, 4]) == (
                            modulation, rate, atten, power, lam)
                        assert (y[i], qos.stations[i]) == (snr, rec.station)
                        assert abs(y[i] - closed) <= 1e-9
                        i += 1
        assert i == qos.table.n_rows

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_qos_table(records([]), SWEEP, NOISE, BUDGET)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            TransceiverSweep(base=TransceiverConfig(), wavelengths_nm=(),
                             tx_powers_w=(0.1,))


class TestSplit:
    def test_exact_split_100(self):
        parts = split_indices(100, (0.7, 0.15, 0.15), seed=0)
        assert [len(p) for p in parts] == [70, 15, 15]

    def test_union_is_original_multiset(self):
        parts = split_indices(37, (0.5, 0.25, 0.25), seed=1)
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(37))

    def test_deterministic(self):
        a = split_indices(50, (0.7, 0.15, 0.15), seed=9)
        b = split_indices(50, (0.7, 0.15, 0.15), seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_sizes_within_one_of_exact(self):
        parts = split_indices(23, (0.6, 0.2, 0.2), seed=2)
        for idx, fraction in zip(parts, (0.6, 0.2, 0.2)):
            assert abs(len(idx) - 23 * fraction) < 1.0

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            split_indices(10, (0.7, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError):
            split_indices(10, (0.8, -0.1, 0.3), seed=0)


def test_default_profiles_cover_four_stations():
    assert set(DEFAULT_STATION_PROFILES) == {"Polokwane", "Kimberley",
                                             "Bloemfontein", "George"}
    assert math.isclose(sum(1 for _ in DEFAULT_STATION_PROFILES), 4)
