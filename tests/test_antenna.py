"""Patch synthesis against the FR4 reference design, inset math, element model."""

import math

import numpy as np
import pytest

from butlercad.antenna import (
    EDGE_RESISTANCE_REFERENCE,
    PatchDims,
    design_patch,
    element_pattern,
    inset_position,
    with_inset,
)
from butlercad.errors import DesignRangeError, NoSolutionError
from butlercad.microstrip import C0, Substrate

FR4 = Substrate(4.9, 1.6e-3)


class TestDesignPatch:
    def test_reference_width(self):
        patch = design_patch(5.2e9, FR4)
        assert patch.width_w == pytest.approx(16.8e-3, rel=0.01)

    def test_reference_length(self):
        # closed form gives 12.50 mm, final rounded value 12.7 mm, keep 3%
        patch = design_patch(5.2e9, FR4)
        assert patch.length_l == pytest.approx(12.7e-3, rel=0.03)
        assert patch.length_l == pytest.approx(12.501e-3, rel=1e-3)

    def test_fringing_and_permittivity(self):
        patch = design_patch(5.2e9, FR4)
        assert patch.delta_l == pytest.approx(0.715e-3, rel=2e-3)
        assert patch.eps_reff == pytest.approx(4.2818, abs=2e-4)

    def test_resonance_identity(self):
        # L + 2 dL = c / (2 fr sqrt(eps)) exactly, by construction
        patch = design_patch(5.2e9, FR4)
        assert patch.length_l + 2 * patch.delta_l == pytest.approx(
            C0 / (2 * 5.2e9 * math.sqrt(patch.eps_reff)), rel=1e-15
        )

    def test_width_does_not_depend_on_height(self):
        thin = design_patch(5.2e9, Substrate(4.9, 0.4e-3))
        thick = design_patch(5.2e9, Substrate(4.9, 3.2e-3))
        assert thin.width_w == thick.width_w

    def test_wider_than_long_on_fr4(self):
        patch = design_patch(5.2e9, FR4)
        assert patch.width_w > patch.length_l

    def test_out_of_validity_raises(self):
        with pytest.raises(DesignRangeError):
            design_patch(100e9, Substrate(10.0, 5e-3))

    def test_height_overflowing_the_fringing_formula_is_named(self):
        # W/h overflows, so dL is inf * h / inf = nan and so is the length
        with pytest.raises(DesignRangeError, match=r"dL/h = 0\.412 .* at h = 5e-324 m$"):
            design_patch(5.2e9, Substrate(4.9, 5e-324))


class TestInsetPosition:
    def test_edge_feed_when_already_matched(self):
        assert inset_position(50.0, 50.0, 12.7e-3) == 0.0

    def test_reference_design_inset(self):
        y0 = inset_position(EDGE_RESISTANCE_REFERENCE, 50.0, 12.7e-3)
        assert y0 == pytest.approx(4.7e-3, abs=0.05e-3)

    def test_quarter_length_special_case(self):
        # arccos(sqrt(1/2)) = pi/4, so halving the resistance taps at L/4
        y0 = inset_position(200.0, 100.0, 12.7e-3)
        assert y0 == pytest.approx(12.7e-3 / 4.0, rel=1e-12)

    def test_round_trip_resistance_identity(self):
        # r_edge cos^2(pi y0 / L) recovers the target to 1e-9 relative
        L = 12.7e-3
        for r in np.linspace(0.5, 317.0, 101):
            y0 = inset_position(317.0, r, L)
            back = 317.0 * math.cos(math.pi * y0 / L) ** 2
            assert abs(back - r) / r < 1e-9

    def test_always_below_half_length(self):
        L = 10e-3
        for r in np.geomspace(0.01, 300.0, 50):
            assert 0.0 <= inset_position(300.0, r, L) < L / 2

    def test_no_solution_above_edge_resistance(self):
        with pytest.raises(NoSolutionError):
            inset_position(100.0, 150.0, 12.7e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inset_position(-1.0, 50.0, 12.7e-3)


class TestWithInset:
    def test_fills_inset_and_feed(self):
        patch = with_inset(design_patch(5.2e9, FR4), substrate=FR4)
        assert patch.inset_y0 > 0
        assert patch.feed_line_width == pytest.approx(2.8e-3, rel=0.05)

    def test_patchdims_validation(self):
        with pytest.raises(ValueError):
            PatchDims(width_w=16.8e-3, length_l=12.7e-3, delta_l=0.7e-3,
                      eps_reff=4.28, inset_y0=7e-3)


class TestElementPattern:
    def test_broadside_maximum(self):
        assert element_pattern(0.0) == 1.0

    def test_endfire_null(self):
        assert element_pattern(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert element_pattern(-math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_sixty_degrees(self):
        assert element_pattern(math.radians(60.0)) == pytest.approx(0.5, rel=1e-12)

    def test_clamped_beyond_quarter_turn(self):
        assert element_pattern(math.radians(120.0)) == 0.0

    def test_isotropic_option(self):
        th = np.linspace(-math.pi / 2, math.pi / 2, 11)
        np.testing.assert_array_equal(element_pattern(th, "isotropic"), np.ones(11))

    def test_vectorized(self):
        th = np.array([0.0, math.radians(60.0)])
        np.testing.assert_allclose(element_pattern(th), [1.0, 0.5], atol=1e-12)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            element_pattern(0.0, "parabolic")
