import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foglink.atmosphere import (
    DB_PER_NEPER,
    AttenuationModel,
    OpticalPath,
    extinction_coefficient,
    particle_size_exponent,
    path_attenuation_db,
    transmittance,
)

KRUSE = AttenuationModel.KRUSE
KIM = AttenuationModel.KIM


def beta(visibility, wavelength, model, reference=550.0):
    return extinction_coefficient(
        OpticalPath(wavelength, 1.0, visibility, reference), model)


class TestParticleSizeExponent:
    def test_kruse_at_1km(self):
        assert particle_size_exponent(1.0, KRUSE) == pytest.approx(0.585)

    def test_kim_below_half_km(self):
        assert particle_size_exponent(0.3, KIM) == 0.0

    def test_kim_mid_band(self):
        assert particle_size_exponent(10.0, KIM) == 1.3

    def test_kim_sub_km_segment(self):
        assert particle_size_exponent(0.75, KIM) == 0.25

    def test_kim_linear_segment(self):
        assert particle_size_exponent(2.0, KIM) == 0.66

    def test_high_visibility_branch(self):
        assert particle_size_exponent(60.0, KRUSE) == 1.6
        assert particle_size_exponent(60.0, KIM) == 1.6

    def test_boundaries_half_open_upward(self):
        assert particle_size_exponent(1.0, KIM) == pytest.approx(0.5)
        assert particle_size_exponent(6.0, KIM) == 1.3
        assert particle_size_exponent(50.0, KIM) == 1.6

    def test_nonpositive_visibility_rejected(self):
        with pytest.raises(ValueError):
            particle_size_exponent(0.0, KRUSE)
        with pytest.raises(ValueError):
            particle_size_exponent(-1.0, KIM)
        with pytest.raises(ValueError):
            particle_size_exponent(np.array([[2.0, 1.0], [0.5, 0.0]]), KIM)

    @given(st.floats(min_value=1e-3, max_value=200.0))
    def test_nonnegative_everywhere(self, visibility):
        assert particle_size_exponent(visibility, KRUSE) >= 0.0
        assert particle_size_exponent(visibility, KIM) >= 0.0


class TestExtinctionCoefficient:
    def test_polokwane_anchor_1550(self):
        assert beta(1.0, 1550.0, KRUSE) == pytest.approx(2.13, abs=0.01)

    def test_polokwane_anchor_760(self):
        assert beta(1.0, 760.0, KRUSE) == pytest.approx(3.24, abs=0.01)

    def test_reference_wavelength_gives_3912_over_v(self):
        assert beta(3.912, 550.0, KRUSE) == pytest.approx(1.0, rel=1e-5)
        assert beta(3.912, 550.0, KIM) == pytest.approx(1.0, rel=1e-5)

    def test_reduction_760_to_1550(self):
        b760 = beta(1.0, 760.0, KRUSE)
        b1550 = beta(1.0, 1550.0, KRUSE)
        assert 0.33 <= (b760 - b1550) / b760 <= 0.355

    def test_kim_matches_kruse_above_6km(self):
        for v in (6.5, 10.0, 20.0, 49.0):
            assert beta(v, 1550.0, KIM) == pytest.approx(beta(v, 1550.0, KRUSE), rel=1e-12)

    @pytest.mark.parametrize("model", [KRUSE, KIM])
    @pytest.mark.parametrize("wavelength", [760.0, 1550.0])
    def test_decreasing_in_visibility(self, model, wavelength):
        # sampled within each piecewise segment of q(V)
        for lo, hi in ((0.6, 0.95), (1.05, 5.9), (6.1, 49.0)):
            grid = [lo + (hi - lo) * i / 20 for i in range(21)]
            values = [beta(v, wavelength, model) for v in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_wavelength_when_q_positive(self):
        wavelengths = [760.0, 860.0, 960.0, 1260.0, 1550.0]
        values = [beta(1.0, lam, KRUSE) for lam in wavelengths]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_wavelength_independent_when_q_zero(self):
        assert beta(0.3, 760.0, KIM) == pytest.approx(beta(0.3, 1550.0, KIM), rel=1e-15)

    def test_threshold_override(self):
        path = OpticalPath(550.0, 1.0, 1.0, transmittance_threshold=0.05)
        assert extinction_coefficient(path, KRUSE) == pytest.approx(-math.log(0.05), rel=1e-12)


class TestTransmittance:
    def test_zero_range(self):
        assert transmittance(5.0, 0.0) == 1.0

    def test_visibility_definition(self):
        assert transmittance(3.912, 1.0) == pytest.approx(0.02, abs=1e-4)

    def test_plain_exponential(self):
        assert transmittance(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            transmittance(-1.0, 1.0)
        with pytest.raises(ValueError):
            transmittance(1.0, -1.0)
        with pytest.raises(ValueError):
            transmittance(np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError):
            path_attenuation_db(1.0, np.array([[0.0], [-1.0]]))

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=20.0))
    def test_consistent_with_db_loss(self, b, length):
        t = transmittance(b, length)
        db = path_attenuation_db(b, length)
        assert t == pytest.approx(math.exp(-db * math.log(10.0) / 10.0), rel=1e-12)


class TestPathAttenuationDb:
    def test_unit_case(self):
        assert path_attenuation_db(1.0, 1.0) == pytest.approx(4.3429, abs=1e-3)

    def test_lossless(self):
        assert path_attenuation_db(0.0, 10.0) == 0.0

    def test_two_percent_threshold_loss(self):
        assert path_attenuation_db(3.912, 1.0) == pytest.approx(16.99, abs=0.01)
        assert path_attenuation_db(3.912, 1.0) == pytest.approx(-10.0 * math.log10(0.02), abs=1e-3)

    def test_additive_in_range(self):
        total = path_attenuation_db(2.0, 3.0)
        assert total == pytest.approx(
            path_attenuation_db(2.0, 1.0) + path_attenuation_db(2.0, 2.0), rel=1e-12)

    def test_constant_matches_log(self):
        assert DB_PER_NEPER == pytest.approx(10.0 * math.log10(math.e), rel=1e-15)


class TestOpticalPathValidation:
    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            OpticalPath(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="wavelength_nm must be positive"):
            OpticalPath(np.array([1550.0, 0.0]), 1.0, 1.0)

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            OpticalPath(1550.0, 1.0, 0.0)
        # an array error names its first offending element, not the whole array
        with pytest.raises(ValueError, match=r"visibility_km must be positive, got -3\.0$"):
            OpticalPath(1550.0, 1.0, np.array([2.0, 1.0, -3.0, -4.0]))

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            OpticalPath(1550.0, -0.1, 1.0)
        with pytest.raises(ValueError, match=r"range_km must be nonnegative, got -0\.1$"):
            OpticalPath(np.array([1550.0, 850.0]), np.array([[0.0], [-0.1]]), 1.0)

    def test_rejects_threshold_outside_unit_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5, np.array([0.02, 1.0]), np.array([np.nan])):
            with pytest.raises(ValueError):
                OpticalPath(1550.0, 1.0, 1.0, transmittance_threshold=bad)
