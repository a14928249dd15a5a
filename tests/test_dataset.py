import datetime
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    CsvParseError,
    StationProfile,
    TransceiverSweep,
    VisibilityRecord,
    aggregate_station_climatology,
    build_qos_table,
    parse_visibility_csv,
    synthesize_dataset,
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


def record(station="Test", visibility=2.0, hour=8, day=1):
    return VisibilityRecord(station, datetime.date(2015, 1, day), hour,
                            visibility, 3.0, 100.0)


class TestParse:
    def test_round_trip_three_rows(self):
        records = [record(day=1), record(day=2, visibility=3.5), record(day=3, hour=20)]
        text = write_visibility_csv(records)
        result = parse_visibility_csv(text.splitlines())
        assert result.records == records
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

    def test_non_synoptic_hour_warns_but_passes(self):
        text = ("station,date,hour,visibility_km,wind_speed_mps,altitude_m\n"
                "A,2015-01-01,11,2.0,1.0,10.0\n")
        with pytest.warns(UserWarning, match="non-synoptic"):
            result = parse_visibility_csv(text.splitlines())
        assert len(result.records) == 1
        assert result.records[0].hour == 11

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


class TestClimatology:
    def test_single_record_mean(self):
        out = aggregate_station_climatology([record(visibility=2.0)])
        assert out["Test"].mean_visibility_km == 2.0
        assert out["Test"].n_records == 1

    def test_extinction_averaged_per_record_not_at_mean_visibility(self):
        records = [record(visibility=1.0), record(visibility=3.0)]
        out = aggregate_station_climatology(records, wavelengths_nm=(1550.0,))
        clim = out["Test"]
        assert clim.mean_visibility_km == pytest.approx(2.0)
        betas = [extinction_coefficient(OpticalPath(1550.0, 0.0, v), AttenuationModel.KRUSE)
                 for v in (1.0, 3.0)]
        expected = sum(betas) / 2.0
        at_mean = extinction_coefficient(OpticalPath(1550.0, 0.0, 2.0), AttenuationModel.KRUSE)
        assert clim.mean_extinction_per_km[1550.0] == pytest.approx(expected, rel=1e-12)
        assert clim.mean_extinction_per_km[1550.0] != pytest.approx(at_mean, rel=1e-3)

    def test_absent_station_is_an_error(self):
        with pytest.raises(ValueError, match="Nowhere"):
            aggregate_station_climatology([record()], stations=["Nowhere"])


class TestSynthesize:
    def test_three_records_per_day(self):
        profile = StationProfile("X", 5.0, 0.5)
        records = synthesize_dataset([profile], 1, seed=0)
        assert len(records) == 3
        assert [r.hour for r in records] == [8, 14, 20]

    def test_deterministic(self):
        profiles = [DEFAULT_STATION_PROFILES["George"]]
        assert synthesize_dataset(profiles, 5, seed=3) == synthesize_dataset(profiles, 5, seed=3)
        assert synthesize_dataset(profiles, 5, seed=3) != synthesize_dataset(profiles, 5, seed=4)

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
        records = [record(day=d + 1, visibility=1.0 + d) for d in range(3)]
        qos = build_qos_table(records, SWEEP, NOISE, BUDGET)
        assert qos.table.n_rows == 3 * 2 * 2 * 2
        assert qos.table.feature_names == (
            "modulation", "data_rate_bps", "attenuation_db_per_km",
            "tx_power_w", "wavelength_nm")
        assert len(qos.stations) == qos.table.n_rows

    def test_single_record_single_cell_gives_two_rows(self):
        sweep = TransceiverSweep(base=TransceiverConfig(), wavelengths_nm=(1550.0,),
                                 tx_powers_w=(0.1,), range_km=1.0)
        qos = build_qos_table([record()], sweep, NOISE, BUDGET)
        assert qos.table.n_rows == 2
        assert sorted(qos.table.features[:, 0]) == [0.0, 1.0]

    def test_target_reproduces_budget_recomputation(self):
        records = [record(visibility=0.9), record(day=2, visibility=4.0)]
        qos = build_qos_table(records, SWEEP, NOISE, BUDGET)
        X, y = qos.table.features, qos.table.targets
        for i in range(qos.table.n_rows):
            atten_db_km, power, lam = X[i, 2], X[i, 3], X[i, 4]
            recomputed = snr_budget_db(
                RfBudgetInputs(tx_power_dbm=watts_to_dbm(power),
                               wavelength_m=lam * 1e-9,
                               total_attenuation_db=atten_db_km * SWEEP.range_km))
            assert y[i] == pytest.approx(recomputed, rel=1e-12)

    def test_attenuation_constant_across_modulations(self):
        qos = build_qos_table([record()], SWEEP, NOISE, BUDGET)
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
        records = [record(station=f"S{k}", visibility=v, day=k + 1)
                   for k, v in enumerate(visibilities)]
        sweep = TransceiverSweep(base=TransceiverConfig(), wavelengths_nm=tuple(wavelengths),
                                 tx_powers_w=tuple(powers), range_km=range_km,
                                 attenuation_model=model)
        (g_tx, g_rx), (noise_figure, fade) = gains, margins
        budget = RfBudgetInputs(tx_power_dbm=20.0, tx_gain_linear=g_tx, rx_gain_linear=g_rx,
                                noise_figure_db=noise_figure, fade_margin_db=fade)
        qos = build_qos_table(records, sweep, NOISE, budget)
        X, y = qos.table.features, qos.table.targets
        # independent reference: the budget with P_tx in W and lambda in nm pulled out
        c = (-20.0 * math.log10(4.0 * math.pi) - 180.0
             - 10.0 * math.log10(budget.noise_bandwidth_hz * budget.ambient_temp_k
                                 * BOLTZMANN_J_PER_K)
             + 10.0 * math.log10(g_rx / g_tx) - noise_figure - fade)
        i = 0
        for rec in records:  # rows run record-major, then wavelength, power, modulation
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
            build_qos_table([], SWEEP, NOISE, BUDGET)

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
