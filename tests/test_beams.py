"""Beam arithmetic and pattern cuts for the four matrix excitations."""

import io
import math

import numpy as np
import pytest

from butlercad.beams import (
    ArrayGeometry,
    PatternCut,
    array_factor,
    beam_angle,
    default_angle_grid,
    half_wave_geometry,
    inter_element_phase,
    pattern_metrics,
)
from butlercad.butler import build_butler_4x4, excitation_table
from butlercad.errors import DegeneratePatternError, GratingLobeError
from butlercad.microstrip import C0
from oracles import brute_force_peak

F0 = 5.2e9
HALF_WAVE = half_wave_geometry(F0)


class TestInterElementPhase:
    def test_beam_one_of_four(self):
        assert inter_element_phase(1, 4) == pytest.approx(math.pi / 4, rel=1e-15)

    def test_beam_three_of_four(self):
        assert inter_element_phase(3, 4) == pytest.approx(3 * math.pi / 4, rel=1e-15)

    def test_beam_two_of_four(self):
        # mathematically defined midpoint, not produced by the 4x4 network
        assert inter_element_phase(2, 4) == pytest.approx(math.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("i", [0, 4, 7])
    def test_out_of_range(self, i):
        with pytest.raises(ValueError):
            inter_element_phase(i, 4)


class TestBeamAngle:
    def test_45_degree_progression(self):
        theta = beam_angle(math.pi / 4, HALF_WAVE)
        assert math.degrees(theta) == pytest.approx(14.4775, abs=1e-3)

    def test_135_degree_progression(self):
        theta = beam_angle(3 * math.pi / 4, HALF_WAVE)
        assert math.degrees(theta) == pytest.approx(48.5904, abs=1e-3)

    def test_broadside(self):
        assert beam_angle(0.0, HALF_WAVE) == 0.0

    def test_consistency_with_inter_element_phase(self):
        # arcsin(i/N) exactly, for d = lambda/2
        for i in (1, 2, 3):
            alpha = inter_element_phase(i, 4)
            assert beam_angle(alpha, HALF_WAVE) == pytest.approx(
                math.asin(i / 4), rel=1e-12
            )

    def test_invisible_beam_raises(self):
        with pytest.raises(GratingLobeError):
            beam_angle(1.2 * math.pi, HALF_WAVE)


class TestArrayFactor:
    def test_uniform_broadside_peak_and_nulls(self):
        cut = array_factor(np.ones(4), HALF_WAVE, normalize=True)
        m = pattern_metrics(cut)
        assert m.peak_angle_deg == pytest.approx(0.0, abs=1e-6)
        # uniform four element nulls at sin(theta) = +-1/2
        deg = np.degrees(cut.angles)
        for null in (-30.0, 30.0):
            k = int(np.argmin(np.abs(deg - null)))
            assert cut.magnitude[k] < 1e-9

    def test_single_element_is_flat(self):
        a = np.zeros(4, dtype=complex)
        a[2] = 0.6 - 0.3j
        cut = array_factor(a, HALF_WAVE)
        np.testing.assert_allclose(cut.magnitude, abs(a[2]), atol=1e-12)

    def test_butler_port_1r_peak(self):
        net = build_butler_4x4("ideal", F0)
        amps = excitation_table(net, F0)["1R"]
        cut = array_factor(amps, HALF_WAVE, normalize=True)
        m = pattern_metrics(cut)
        assert m.peak_angle_deg == pytest.approx(14.4775, abs=0.2)
        assert m.peak_angle_deg == pytest.approx(brute_force_peak(amps, 0.5), abs=0.05)

    def test_all_four_beams_and_symmetry(self):
        net = build_butler_4x4("ideal", F0)
        table = excitation_table(net, F0)
        peaks = []
        for name, amps in table.items():
            cut = array_factor(amps, HALF_WAVE, normalize=True)
            peaks.append(round(pattern_metrics(cut).peak_angle_deg, 2))
        assert sorted(peaks) == pytest.approx(
            [-48.59, -14.48, 14.48, 48.59], abs=0.2
        )
        # symmetric about broadside
        assert sorted(peaks) == pytest.approx(
            sorted(-p for p in peaks), abs=1e-6
        )

    def test_conjugation_mirrors_pattern(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        grid = default_angle_grid(0.5)
        fwd = array_factor(a, HALF_WAVE, angles=grid)
        rev = array_factor(np.conj(a), HALF_WAVE, angles=grid)
        np.testing.assert_allclose(rev.magnitude, fwd.magnitude[::-1], atol=1e-9)

    def test_common_scale_leaves_normalized_cut_invariant(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        base = array_factor(a, HALF_WAVE, normalize=True)
        scaled = array_factor(a * (2.0 - 3.0j), HALF_WAVE, normalize=True)
        np.testing.assert_allclose(scaled.magnitude, base.magnitude, atol=1e-12)

    def test_element_taper_applies(self):
        cut = array_factor(np.ones(4), HALF_WAVE, element_model="cos")
        k = int(np.argmin(np.abs(np.degrees(cut.angles) - 90.0)))
        assert cut.magnitude[k] == pytest.approx(0.0, abs=1e-12)

    def test_wrong_excitation_count(self):
        with pytest.raises(ValueError):
            array_factor(np.ones(3), HALF_WAVE)


class TestPatternMetrics:
    def test_uniform_four_element_sidelobe(self):
        cut = array_factor(np.ones(4), HALF_WAVE, normalize=True)
        m = pattern_metrics(cut)
        # classic uniform N=4 first sidelobe
        assert m.sidelobe_db == pytest.approx(-11.30, abs=0.05)

    def test_hpbw_symmetric_for_symmetric_cut(self):
        cut = array_factor(np.ones(4), HALF_WAVE, normalize=True)
        m = pattern_metrics(cut)
        assert m.hpbw_deg == pytest.approx(26.32, abs=0.25)  # uniform N=4 at broadside
        # peak centered between the half-power points
        assert m.peak_angle_deg == pytest.approx(0.0, abs=0.05)

    def test_degenerate_flat_pattern(self):
        grid = default_angle_grid(1.0)
        flat = PatternCut(angles=grid, magnitude=np.ones_like(grid))
        with pytest.raises(DegeneratePatternError):
            pattern_metrics(flat)


class TestPatternCutSerialization:
    def test_csv_shape_and_values(self):
        grid = np.radians(np.array([-1.0, 0.0, 1.0]))
        cut = PatternCut(angles=grid, magnitude=np.array([0.5, 1.0, 0.5]))
        buf = io.StringIO()
        cut.to_csv(buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "angle_deg,magnitude_linear,magnitude_db"
        assert len(lines) == 5 and lines[-1] == ""
        ang, mag, db = lines[2].split(",")
        assert float(ang) == 0.0
        assert float(mag) == 1.0
        assert float(db) == 0.0
        half = lines[1].split(",")
        assert float(half[2]) == pytest.approx(-6.0206, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternCut(angles=np.array([0.1, 0.0]), magnitude=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            PatternCut(angles=np.array([0.0, 2.0]), magnitude=np.array([1.0, 1.0]))


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(1, 0.01, F0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, -0.01, F0)


@pytest.mark.parametrize(
    "spacing,frequency",
    [(math.inf, F0), (math.nan, F0), (0.01, math.inf), (0.01, math.nan)],
)
def test_geometry_needs_finite_spacing_and_frequency(spacing, frequency):
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry(4, spacing, frequency)


@pytest.mark.parametrize("step, limit", [(0.05, 190.99), (1.0, 9.549)])
def test_a_grid_too_coarse_for_the_spacing_is_refused(step, limit):
    # (N - 1) * beta * d * max(delta sin theta) = pi at d = limit wavelengths
    grid = default_angle_grid(step)
    lam = C0 / F0
    array_factor(np.ones(4), ArrayGeometry(4, 0.999 * limit * lam, F0), angles=grid)
    with pytest.raises(ValueError, match="angle grid aliases the array factor"):
        array_factor(np.ones(4), ArrayGeometry(4, 1.001 * limit * lam, F0), angles=grid)

