import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foglink.atmosphere import (
    DB_PER_NEPER,
    AttenuationModel,
    OpticalPath,
    extinction_coefficient,
)
from foglink.link_budget import (
    PLANCK_JS,
    SPEED_OF_LIGHT_M_PER_S,
    OokScheme,
    ReceiverNoiseConfig,
    RfBudgetInputs,
    TransceiverConfig,
    achievable_data_rate,
    ber,
    channel_capacity,
    db_to_linear,
    electrical_snr_linear,
    photon_energy,
    power_penalty_db,
    received_power_aperture,
    received_power_geometric,
    snr_budget_db,
    watts_to_dbm,
)

NOISE = ReceiverNoiseConfig()


def erfc_by_quadrature(x, n=20000, span=12.0):
    """Simpson integration of 2/sqrt(pi) * exp(-t^2) from x to x+span."""
    h = span / n
    total = math.exp(-x * x) + math.exp(-((x + span) ** 2))
    for i in range(1, n):
        t = x + i * h
        total += (4 if i % 2 else 2) * math.exp(-t * t)
    return (2.0 / math.sqrt(math.pi)) * total * h / 3.0


class TestPhotonEnergy:
    def test_1550_nm(self):
        assert photon_energy(1550.0) == pytest.approx(1.282e-19, rel=2e-3)

    def test_inverse_proportionality(self):
        assert photon_energy(775.0) == pytest.approx(
            2.0 * photon_energy(1550.0), rel=1e-12)

    def test_550_nm(self):
        assert photon_energy(550.0) == pytest.approx(3.613e-19, rel=2e-3)

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(ValueError):
            photon_energy(0.0)
        with pytest.raises(ValueError):
            photon_energy(np.array([1550.0, 0.0]))


class TestReceivedPowerGeometric:
    def test_collimated_lossless(self):
        cfg = TransceiverConfig(tx_power_w=0.2, divergence_mrad=1e-12,
                                tx_aperture_m=0.05, rx_aperture_m=0.1)
        expected = 0.2 * (0.1 / 0.05) ** 2
        assert received_power_geometric(cfg, 0.0, 7.0) == pytest.approx(expected, rel=1e-9)

    def test_inverse_square_regime(self):
        cfg = TransceiverConfig(tx_aperture_m=1e-6, divergence_mrad=3.0)
        p1 = received_power_geometric(cfg, 0.0, 5.0)
        p2 = received_power_geometric(cfg, 0.0, 10.0)
        assert p1 / p2 == pytest.approx(4.0, rel=1e-6)

    def test_scalar_arithmetic_oracle(self):
        # hand-composed: footprint 0.1 + 3*1 = 3.1 m, loss 2.13 km^-1 as dB
        cfg = TransceiverConfig(tx_power_w=0.1, tx_aperture_m=0.1,
                                rx_aperture_m=0.1, divergence_mrad=3.0)
        atten = 2.13 * DB_PER_NEPER
        oracle = 0.1 * (0.1 / 3.1) ** 2 * 10.0 ** (-atten / 10.0)
        assert received_power_geometric(cfg, atten, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_zero_range_footprint_is_tx_aperture(self):
        cfg = TransceiverConfig(tx_aperture_m=0.2, rx_aperture_m=0.1)
        assert received_power_geometric(cfg, 5.0, 0.0) == pytest.approx(
            cfg.tx_power_w * 0.25, rel=1e-12)

    def test_nonincreasing_in_range_and_attenuation(self):
        cfg = TransceiverConfig()
        powers = [received_power_geometric(cfg, 3.0, L) for L in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a >= b for a, b in zip(powers, powers[1:]))
        powers = [received_power_geometric(cfg, a, 1.0) for a in (0.0, 1.0, 5.0, 20.0)]
        assert all(a >= b for a, b in zip(powers, powers[1:]))


class TestReceivedPowerAperture:
    def test_halving_divergence_quadruples_power(self):
        narrow = TransceiverConfig(divergence_mrad=1.5, rx_aperture_m=0.01)
        wide = TransceiverConfig(divergence_mrad=3.0, rx_aperture_m=0.01)
        assert received_power_aperture(narrow, 0.0, 10.0) == pytest.approx(
            4.0 * received_power_aperture(wide, 0.0, 10.0), rel=1e-12)

    def test_cap_boundary(self):
        cfg = TransceiverConfig(tx_efficiency=1.0, rx_efficiency=1.0,
                                divergence_mrad=3.0, rx_aperture_m=3.0)
        # receiver aperture equals the full beam footprint at 1 km
        assert received_power_aperture(cfg, 0.0, 1.0) == pytest.approx(
            cfg.tx_power_w, rel=1e-12)

    def test_cap_never_exceeded(self):
        cfg = TransceiverConfig(rx_aperture_m=5.0)
        ceiling = cfg.tx_power_w * cfg.tx_efficiency * cfg.rx_efficiency
        assert received_power_aperture(cfg, 0.0, 0.01) == pytest.approx(ceiling)

    def test_table_parameters_oracle(self):
        cfg = TransceiverConfig(tx_power_w=0.1, divergence_mrad=3.0,
                                tx_efficiency=0.8, rx_efficiency=0.8,
                                rx_aperture_m=0.1)
        oracle = 0.1 * 0.8 * 0.8 * (0.1 / 3.0) ** 2 * 10.0 ** (-0.5)
        assert received_power_aperture(cfg, 5.0, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_singular_at_zero_range(self):
        with pytest.raises(ValueError):
            received_power_aperture(TransceiverConfig(), 0.0, 0.0)
        with pytest.raises(ValueError):
            received_power_aperture(TransceiverConfig(), 0.0, np.array([1.0, 0.0]))


class TestAchievableDataRate:
    def test_zero_power(self):
        assert achievable_data_rate(0.0, 1550.0, 100.0, NOISE) == 0.0

    def test_scalar_oracle(self):
        assert achievable_data_rate(1e-6, 1550.0, 100.0, NOISE) == pytest.approx(
            9.93e10, rel=5e-3)
        assert achievable_data_rate(1e-6, 1550.0, 100.0, NOISE) == pytest.approx(
            99347914926.45677, rel=1e-12)

    def test_linear_in_power(self):
        one = achievable_data_rate(2e-7, 1550.0, 100.0, NOISE)
        two = achievable_data_rate(4e-7, 1550.0, 100.0, NOISE)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_rejects_bad_photons_per_bit(self):
        with pytest.raises(ValueError):
            achievable_data_rate(1e-6, 1550.0, 0.0, NOISE)
        with pytest.raises(ValueError):
            achievable_data_rate(1e-6, 1550.0, np.array([100.0, 0.0]), NOISE)
        with pytest.raises(ValueError):
            achievable_data_rate(np.array([1e-6, -1e-9]), 1550.0, 100.0, NOISE)

    @given(st.floats(min_value=0.001, max_value=0.1),
           st.floats(min_value=0.01, max_value=0.5),
           st.floats(min_value=0.01, max_value=0.5),
           st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_direct_form_matches_composition(self, p_tx, d_t, d_r, theta, atten, length):
        # the explicit rate formula must equal the geometric-power composition
        cfg = TransceiverConfig(tx_power_w=p_tx, tx_aperture_m=d_t, rx_aperture_m=d_r,
                                divergence_mrad=theta)
        photons = 100.0
        e_p = photon_energy(1550.0)
        direct = (4.0 * p_tx * 0.8 * 0.8 * d_r ** 2 * 10.0 ** (-atten * length / 10.0)
                  / (math.pi * (d_t + theta * length) ** 2 * e_p * photons))
        p_rx = received_power_geometric(cfg, atten, length) * 0.8 * 0.8
        composed = achievable_data_rate(p_rx, 1550.0, photons, NOISE)
        assert composed == pytest.approx(direct, rel=1e-10)

    def test_rate_falls_with_attenuation(self):
        cfg = TransceiverConfig()
        rates = [achievable_data_rate(received_power_geometric(cfg, a, 1.0),
                                      1550.0, 100.0, NOISE)
                 for a in (0.0, 2.0, 5.0, 10.0, 20.0)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestSnrBudget:
    def test_hand_evaluated_example(self):
        inputs = RfBudgetInputs(tx_power_dbm=30.0, wavelength_m=1550e-9)
        assert snr_budget_db(inputs) == pytest.approx(5.7, abs=0.2)
        assert snr_budget_db(inputs) == pytest.approx(5.679441215419018, rel=1e-12)

    def test_attenuation_is_additive(self):
        base = RfBudgetInputs(tx_power_dbm=30.0)
        lossy = RfBudgetInputs(tx_power_dbm=30.0, total_attenuation_db=3.0)
        assert snr_budget_db(base) - snr_budget_db(lossy) == pytest.approx(3.0, rel=1e-12)

    def test_fade_margin_is_additive(self):
        base = RfBudgetInputs(tx_power_dbm=30.0)
        faded = RfBudgetInputs(tx_power_dbm=30.0, fade_margin_db=10.0)
        assert snr_budget_db(base) - snr_budget_db(faded) == pytest.approx(10.0, rel=1e-12)

    def test_tx_gain_subtracts_as_printed(self):
        base = RfBudgetInputs(tx_power_dbm=30.0)
        gained = RfBudgetInputs(tx_power_dbm=30.0, tx_gain_linear=10.0)
        assert snr_budget_db(base) - snr_budget_db(gained) == pytest.approx(10.0, rel=1e-12)


class TestElectricalSnr:
    def test_zero_power_zero_snr(self):
        quiet = ReceiverNoiseConfig(dark_current_a=0.0)
        assert electrical_snr_linear(0.0, quiet) == 0.0
        assert electrical_snr_linear(0.0, NOISE) == 0.0

    def test_thermal_dominated_quadratic_scaling(self):
        p = 1e-9  # shot noise ~1e-5 of thermal here
        one = electrical_snr_linear(p, NOISE)
        two = electrical_snr_linear(2 * p, NOISE)
        assert two == pytest.approx(4.0 * one, rel=1e-2)

    def test_table_defaults_oracle_at_1uw(self):
        assert electrical_snr_linear(1e-6, NOISE) == pytest.approx(
            29.368012220123376, rel=1e-12)

    def test_strictly_increasing(self):
        values = [electrical_snr_linear(p, NOISE) for p in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestChannelCapacity:
    def test_zero_snr(self):
        assert channel_capacity(1e9, 0.0) == 0.0

    def test_unit_snr(self):
        assert channel_capacity(1e9, 1.0) == pytest.approx(1e9, rel=1e-12)

    def test_published_capacity_anchor(self):
        assert channel_capacity(1e9, 25.07) == pytest.approx(4.705e9, rel=5e-3)

    def test_linear_in_bandwidth(self):
        assert channel_capacity(2e9, 7.0) == pytest.approx(
            2.0 * channel_capacity(1e9, 7.0), rel=1e-12)

    def test_nondecreasing_in_snr(self):
        values = [channel_capacity(1e9, s) for s in (0.0, 0.5, 1.0, 10.0, 100.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            channel_capacity(1e9, -0.1)
        with pytest.raises(ValueError):
            channel_capacity(1e9, np.array([[1.0, 2.0], [-0.1, 3.0]]))


class TestBer:
    def test_half_at_zero_snr(self):
        assert ber(OokScheme.NRZ, 0.0) == 0.5
        assert ber(OokScheme.RZ, 0.0) == 0.5

    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0, 100.0])
    def test_rz_equals_nrz_at_double_snr(self, snr):
        assert ber(OokScheme.RZ, snr) == pytest.approx(ber(OokScheme.NRZ, 2 * snr), rel=1e-12)

    def test_nrz_at_36_against_quadrature_oracle(self):
        oracle = 0.5 * erfc_by_quadrature(6.0 / (2.0 * math.sqrt(2.0)))
        assert ber(OokScheme.NRZ, 36.0) == pytest.approx(oracle, rel=1e-6)
        assert ber(OokScheme.NRZ, 36.0) == pytest.approx(1.3498980316300957e-3, rel=1e-9)

    def test_strictly_decreasing_in_snr(self):
        for scheme in OokScheme:
            values = [ber(scheme, s) for s in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            ber(OokScheme.NRZ, -1.0)

    @pytest.mark.parametrize("scheme", list(OokScheme))
    def test_array_call_equals_scalar_calls(self, scheme):
        rng = np.random.default_rng(12)
        snr = np.concatenate([[0.0, 1e-300, 36.0, 1e300], rng.uniform(0.0, 500.0, 400),
                              np.exp(rng.uniform(-40.0, 40.0, 400))]).reshape(3, -1, 2)
        array = ber(scheme, snr)
        assert array.shape == snr.shape and array.dtype == float
        assert array.ravel().tolist() == [ber(scheme, s) for s in snr.ravel().tolist()]
        # the closed form with math.sqrt and math.erfc, as the scalar path once was
        scale = 2.0 * math.sqrt(2.0) if scheme is OokScheme.NRZ else 2.0
        assert array.ravel().tolist() == [0.5 * math.erfc(math.sqrt(s) / scale)
                                          for s in snr.ravel().tolist()]

    def test_negative_element_named(self):
        with pytest.raises(ValueError, match=r"snr_linear must be nonnegative, got -2\.5$"):
            ber(OokScheme.RZ, np.array([[1.0, 4.0], [-2.5, -7.0]]))


def path_loss_penalty(clear_beta, fog_beta, range_km):
    """The penalty's closed form under the geometric channel, the extra path
    loss (alpha_fog - alpha_clear)*L with alpha = DB_PER_NEPER*beta."""
    return DB_PER_NEPER * fog_beta * range_km - DB_PER_NEPER * clear_beta * range_km


class TestPowerPenalty:
    def test_zero_when_no_extra_fog(self):
        cfg = TransceiverConfig()
        assert power_penalty_db(cfg, NOISE, 0.5, 0.5, 1.0, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_equals_extra_path_loss(self):
        cfg = TransceiverConfig()
        penalty = power_penalty_db(cfg, NOISE, 0.1, 1.0, 2.0, 1e-9)
        assert penalty == pytest.approx(DB_PER_NEPER * 0.9 * 2.0, abs=0.05)

    @pytest.mark.parametrize("target_ber", [1e-3, 1e-9, 1e-12])
    def test_equals_closed_form(self, target_ber):
        """Default config, ranges 0.1-2.9 km, light to dense fog: the
        required power and the geometric factor cancel."""
        ranges = np.arange(0.1, 3.0, 0.2)[:, None]
        clear_beta = extinction_coefficient(OpticalPath(1550.0, 1.0, 10.0),
                                            AttenuationModel.KRUSE)
        fog_beta = extinction_coefficient(OpticalPath(1550.0, 1.0, np.array([0.2, 0.5, 1.0])),
                                          AttenuationModel.KRUSE)
        penalty = power_penalty_db(TransceiverConfig(), NOISE, clear_beta, fog_beta, ranges,
                                   target_ber)
        assert (penalty == path_loss_penalty(clear_beta, fog_beta, ranges)).all()

    @settings(deadline=None)
    @given(range_km=st.floats(0.05, 10.0), clear=st.floats(1.0, 50.0),
           fog=st.floats(0.2, 1.0), wavelength_nm=st.floats(700.0, 1600.0),
           model=st.sampled_from(AttenuationModel), target_ber=st.floats(1e-15, 0.4),
           apertures=st.tuples(*[st.floats(1e-3, 1.0)] * 3),
           noise=st.tuples(st.floats(0.1, 1.0), st.floats(1.0, 1e6), st.floats(0.0, 1e-6)))
    def test_depends_on_path_loss_alone(self, range_km, clear, fog, wavelength_nm, model,
                                        target_ber, apertures, noise):
        """Neither the BER target, the receiver noise nor the apertures and
        divergence move the penalty off the extra path loss."""
        tx_aperture, rx_aperture, divergence = apertures
        cfg = TransceiverConfig(tx_aperture_m=tx_aperture, rx_aperture_m=rx_aperture,
                                divergence_mrad=divergence)
        responsivity, load, dark = noise
        receiver = ReceiverNoiseConfig(responsivity_a_per_w=responsivity,
                                       load_resistance_ohm=load, dark_current_a=dark)
        clear_beta, fog_beta = (extinction_coefficient(
            OpticalPath(wavelength_nm, range_km, visibility), model) for visibility in (clear, fog))
        penalty = power_penalty_db(cfg, receiver, clear_beta, fog_beta, range_km, target_ber)
        assert penalty == path_loss_penalty(clear_beta, fog_beta, range_km)

    def test_denser_fog_pays_more_at_every_range(self):
        cfg = TransceiverConfig()
        for length in range(1, 11):
            light = power_penalty_db(cfg, NOISE, 0.1, 2.0, float(length), 1e-9)
            dense = power_penalty_db(cfg, NOISE, 0.1, 20.0, float(length), 1e-9)
            assert dense > light

    def test_nondecreasing_in_range(self):
        cfg = TransceiverConfig()
        values = [power_penalty_db(cfg, NOISE, 0.1, 1.5, L, 1e-9)
                  for L in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_array_call_equals_scalar_calls(self):
        cfg = TransceiverConfig()
        fog = np.array([0.1, 2.0, 20.0])
        ranges = np.array([[0.5], [1.0], [4.0]])
        penalty = power_penalty_db(cfg, NOISE, 0.1, fog, ranges, 1e-9)
        assert penalty.shape == (3, 3)
        for (i, j), value in np.ndenumerate(penalty):
            assert value == power_penalty_db(cfg, NOISE, 0.1, fog[j], ranges[i, 0], 1e-9)

    def test_finite_where_the_channel_gain_underflows(self):
        # 200 km^-1 is ~869 dB/km: the received power underflows to 0 at 10 and 12 km
        ranges = np.array([[1.0], [2.0], [10.0], [12.0]])
        fog = np.array([1.0, 200.0])
        assert received_power_geometric(TransceiverConfig(), DB_PER_NEPER * fog[1], 10.0) == 0.0
        penalty = power_penalty_db(TransceiverConfig(), NOISE, 0.1, fog, ranges, 1e-9)
        assert np.isfinite(penalty).all()
        assert (penalty == path_loss_penalty(0.1, fog, ranges)).all()

    def test_rejects_fog_thinner_than_clear(self):
        with pytest.raises(ValueError):
            power_penalty_db(TransceiverConfig(), NOISE, 1.0, 0.5, 1.0, 1e-9)
        with pytest.raises(ValueError):
            power_penalty_db(TransceiverConfig(), NOISE, 1.0, np.array([2.0, 0.5]), 1.0, 1e-9)
        with pytest.raises(ValueError):
            power_penalty_db(TransceiverConfig(), NOISE, 1.0, 2.0, np.array([1.0, 0.0]), 1e-9)


class TestConfigValidation:
    def test_array_fields_checked_elementwise(self):
        with pytest.raises(ValueError, match=r"tx_power_w must be positive, got 0\.0$"):
            TransceiverConfig(tx_power_w=np.array([0.1, 0.0, -1.0]))
        with pytest.raises(ValueError, match=r"tx_efficiency must lie in \(0, 1\], got 1\.5$"):
            TransceiverConfig(tx_efficiency=np.array([[0.5], [1.5]]))
        with pytest.raises(ValueError, match="total_attenuation_db must be nonnegative"):
            RfBudgetInputs(tx_power_dbm=20.0, total_attenuation_db=np.array([0.0, -1.0]))
        with pytest.raises(ValueError, match="wavelength_m must be positive"):
            RfBudgetInputs(tx_power_dbm=20.0, wavelength_m=np.array([1.55e-6, 0.0]))
        TransceiverConfig(tx_power_w=np.array([0.1, 1.0]), rx_efficiency=np.array([1.0]))

    def test_array_noise_config_equals_scalar_configs(self):
        temps = np.array([[250.0], [290.0], [300.0]])
        bandwidths = np.array([1e8, 1e9])
        p_rx = np.array([1e-7, 1e-6])
        snr = electrical_snr_linear(p_rx, ReceiverNoiseConfig(
            temperature_k=temps, electrical_bandwidth_hz=bandwidths))
        assert snr.shape == (3, 2)
        for (i, j), value in np.ndenumerate(snr):
            assert value == electrical_snr_linear(p_rx[j], ReceiverNoiseConfig(
                temperature_k=float(temps[i, 0]), electrical_bandwidth_hz=bandwidths[j]))

    def test_bad_noise_config_element_named(self):
        with pytest.raises(ValueError, match=r"temperature_k must be positive, got -3\.0$"):
            ReceiverNoiseConfig(temperature_k=np.array([290.0, -3.0, 0.0]))
        with pytest.raises(ValueError, match=r"dark_current_a must be nonnegative, got -1e-09$"):
            ReceiverNoiseConfig(dark_current_a=np.array([[0.0], [-1e-9]]))

    def test_boltzmann_constant_not_a_noise_field(self):
        """The thermal noise and the dB budget share the module constant."""
        with pytest.raises(TypeError, match="boltzmann_j_per_k"):
            ReceiverNoiseConfig(boltzmann_j_per_k=1.0)

    def test_planck_constant_not_a_noise_field(self):
        """The photon energy takes Planck's constant from the module."""
        with pytest.raises(TypeError, match="planck_js"):
            ReceiverNoiseConfig(planck_js=1.0)
        assert photon_energy(1550.0) == PLANCK_JS * SPEED_OF_LIGHT_M_PER_S / (1550.0 * 1e-9)


class TestDbConversions:
    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_db_round_trip(self, db):
        assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=1e-12, max_value=1e6))
    def test_dbm_round_trip(self, watts):
        assert 10.0 ** (watts_to_dbm(watts) / 10.0) * 1e-3 == pytest.approx(watts, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)
        with pytest.raises(ValueError):
            watts_to_dbm(np.array([[0.1], [-1.0]]))
