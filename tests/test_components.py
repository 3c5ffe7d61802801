"""Component model fidelity: textbook matrices and quarter-wave circuits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butlercad.components import (
    MAX_PHASE_RAD,
    branchline_hybrid_circuit,
    crossover_circuit,
    device_from_spec,
    ideal_crossover,
    ideal_hybrid,
    matched_load,
    phase_shifter,
    shunt_junction,
    tline,
)
from butlercad.microstrip import C0, Substrate
from oracles import reciprocity_residual, unitarity_residual

FR4 = Substrate(4.9, 1.6e-3)
F0 = 5.2e9

# 2*f0 is deliberately absent: there every quarter-wave arm is exactly
# half-wave and the lossless ring is resonant (see the singularity tests)
ALL_FREQS = [0.5 * F0, 0.8 * F0, F0, 1.3 * F0, 1.7 * F0]


def _phase_deg(z):
    return math.degrees(np.angle(z))


class TestIdealHybrid:
    def test_equal_split_minus_3db(self):
        s = ideal_hybrid().at(F0)
        assert abs(s[1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert abs(s[2, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert 20 * math.log10(abs(s[1, 0])) == pytest.approx(-3.0103, abs=1e-4)

    def test_matched_and_isolated(self):
        s = ideal_hybrid().at(F0)
        assert s[0, 0] == 0
        assert s[3, 0] == 0

    def test_quadrature_between_outputs(self):
        s = ideal_hybrid().at(F0)
        diff = _phase_deg(s[1, 0]) - _phase_deg(s[2, 0])
        assert abs(abs(diff) - 90.0) < 1e-12

    def test_unitary_and_reciprocal(self):
        s = ideal_hybrid().at(F0)
        assert unitarity_residual(s) <= 1e-12
        assert reciprocity_residual(s) <= 1e-12

    def test_frequency_independent(self):
        dev = ideal_hybrid()
        np.testing.assert_array_equal(dev.at(1e9), dev.at(9e9))


class TestIdealCrossover:
    def test_diagonal_transmission(self):
        s = ideal_crossover().at(F0)
        assert abs(s[2, 0]) == pytest.approx(1.0, abs=1e-15)
        assert s[0, 0] == 0

    def test_adjacent_isolation(self):
        s = ideal_crossover().at(F0)
        assert abs(s[1, 0]) == 0

    def test_unitary(self):
        s = ideal_crossover().at(F0)
        gram = s @ s.conj().T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-15


class TestPhaseShifter:
    def test_minus_45_at_design_frequency(self):
        s = phase_shifter(math.pi / 4, F0).at(F0)
        assert _phase_deg(s[1, 0]) == pytest.approx(-45.0, abs=1e-9)

    def test_linear_in_frequency(self):
        s = phase_shifter(math.pi / 4, F0).at(2 * F0)
        assert _phase_deg(s[1, 0]) == pytest.approx(-90.0, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_frequency_ratio_names_design_frequency(self):
        with pytest.raises(ValueError, match="f0 = 1e-320 Hz"):
            phase_shifter(math.pi / 4, 1e-320).at(F0)

    @pytest.mark.filterwarnings("error")
    def test_phase_past_float_precision_is_refused_naming_its_frequency(self):
        dev = phase_shifter(math.pi / 4, F0)
        edge = MAX_PHASE_RAD / (math.pi / 4) * F0  # the frequency of the largest phase taken
        dev.at(0.999 * edge)
        with pytest.raises(ValueError) as e:
            dev.at(np.array([F0, 0.999 * edge, 1.001 * edge, 2 * edge]))
        phase = math.pi / 4 * (1.001 * edge) / F0
        assert str(e.value) == (
            f"frequency {1.001 * edge!r} Hz gives phase {phase:.6g} rad, beyond the "
            f"{MAX_PHASE_RAD:.6g} rad at which float rounding passes 1e-9 rad"
        )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_is_named(self):
        with pytest.raises(ValueError) as e:
            phase_shifter(1e300, 1.0).at(np.array([1.0, 1e10]))
        assert str(e.value) == "frequency 10000000000.0 Hz gives an infinite phase"

    @pytest.mark.parametrize("f", ALL_FREQS)
    def test_unit_magnitude_everywhere(self, f):
        s = phase_shifter(math.pi / 4, F0).at(f)
        assert abs(s[1, 0]) == pytest.approx(1.0, abs=1e-15)
        assert s[0, 0] == 0
        assert reciprocity_residual(s) <= 1e-15


class TestTline:
    def test_matched_line_is_pure_delay(self):
        lam = 3e8 / F0  # rough guided wavelength, value irrelevant for matched
        dev = tline(50.0, lam / 7.3, 1.0, z_ref=50.0)
        s = dev.at(F0)
        assert abs(s[0, 0]) < 1e-15
        theta = 2 * math.pi * (lam / 7.3) / (299792458.0 / F0)
        assert s[1, 0] == pytest.approx(np.exp(-1j * theta), abs=1e-12)

    def test_half_wave_repeats_with_sign_flip(self):
        lam = 299792458.0 / F0
        dev = tline(120.0, lam / 2, 1.0, z_ref=50.0)
        s = dev.at(F0)
        assert s[1, 0] == pytest.approx(-1.0, abs=1e-9)
        assert abs(s[0, 0]) < 1e-9

    def test_quarter_wave_transformer_identity(self):
        # z0 = 35.36 into 50 ohm: Zin = z0^2/50 = 25, |S11| = 1/3
        lam = 299792458.0 / F0
        dev = tline(50.0 / math.sqrt(2.0), lam / 4, 1.0, z_ref=50.0)
        s = dev.at(F0)
        assert abs(s[0, 0]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("length", [math.inf, math.nan, 0.0])
    def test_rejects_non_finite_or_empty_length(self, length):
        with pytest.raises(ValueError, match="length"):
            tline(50.0, length, 1.0)

    @pytest.mark.parametrize("z0, eps_reff", [
        (math.inf, 2.0), (math.nan, 2.0), (0.0, 2.0), (-50.0, 2.0),
        (50.0, math.inf), (50.0, math.nan), (50.0, 0.5),
    ])
    def test_rejects_non_finite_or_unphysical_z0_and_eps_reff(self, z0, eps_reff):
        with pytest.raises(ValueError, match="tline needs finite values"):
            tline(z0, 0.01, eps_reff)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f, what", [(1e-320, "wavelength"), (1e300, "electrical length")])
    def test_overflowing_frequency_is_named(self, f, what):
        dev = tline(50.0, 1e300, 1.0)
        with pytest.raises(ValueError) as e:
            dev.at(np.array([F0, f]))
        assert str(e.value) == f"frequency {f!r} Hz gives an infinite {what}"

    @pytest.mark.filterwarnings("error")
    def test_electrical_length_past_float_precision_is_refused_naming_its_frequency(self):
        dev = tline(50.0, 1.0, 1.0)
        edge = MAX_PHASE_RAD / (2.0 * math.pi) * C0  # theta = 2*pi*f/C0 on a 1 m air line
        dev.at(0.999 * edge)
        with pytest.raises(ValueError) as e:
            dev.at(np.array([F0, 0.999 * edge, 1.001 * edge, 2 * edge]))
        assert str(e.value).startswith(f"frequency {1.001 * edge!r} Hz gives electrical length ")
        assert str(e.value).endswith(f"beyond the {MAX_PHASE_RAD:.6g} rad at which float "
                                     "rounding passes 1e-9 rad")

    @pytest.mark.parametrize("f", ALL_FREQS)
    def test_lossless_and_reciprocal(self, f):
        dev = tline(72.0, 4.1e-3, 3.3)
        s = dev.at(f)
        assert unitarity_residual(s) <= 1e-9
        assert reciprocity_residual(s) <= 1e-12


class TestJunctionAndLoad:
    def test_three_way_junction_is_lossless(self):
        s = shunt_junction(3).at(F0)
        assert unitarity_residual(s) <= 1e-12
        assert reciprocity_residual(s) <= 1e-12
        assert s[0, 0] == pytest.approx(-1 / 3)
        assert s[1, 0] == pytest.approx(2 / 3)

    def test_matched_load_is_reflectionless(self):
        assert matched_load().at(F0)[0, 0] == 0


class TestBranchlineCircuit:
    def test_matches_ideal_hybrid_at_f0(self):
        # cross-fidelity regression: 0.05 magnitude, 3 degrees phase
        circ = branchline_hybrid_circuit(F0, FR4).at(F0)
        ideal = ideal_hybrid().at(F0)
        assert np.max(np.abs(np.abs(circ) - np.abs(ideal))) < 0.05
        live = np.abs(ideal) > 1e-9
        dphi = np.degrees(np.angle(circ[live]) - np.angle(ideal[live]))
        dphi = (dphi + 180.0) % 360.0 - 180.0
        assert np.max(np.abs(dphi)) < 3.0

    def test_split_and_isolation_at_f0(self):
        s = branchline_hybrid_circuit(F0, FR4).at(F0)
        assert abs(s[1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert abs(s[2, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert abs(s[0, 0]) < 1e-6
        assert abs(s[3, 0]) < 1e-6

    def test_output_quadrature_at_f0(self):
        s = branchline_hybrid_circuit(F0, FR4).at(F0)
        diff = _phase_deg(s[1, 0]) - _phase_deg(s[2, 0])
        assert ((diff + 180.0) % 360.0 - 180.0) == pytest.approx(90.0, abs=0.01)

    def test_match_degrades_off_frequency(self):
        dev = branchline_hybrid_circuit(F0, FR4)
        assert abs(dev.at(0.8 * F0)[0, 0]) > abs(dev.at(F0)[0, 0])

    @pytest.mark.parametrize("f", ALL_FREQS)
    def test_lossless_and_reciprocal(self, f):
        s = branchline_hybrid_circuit(F0, FR4).at(f)
        assert unitarity_residual(s) <= 1e-9
        assert reciprocity_residual(s) <= 1e-9

    def test_ring_resonance_at_double_frequency_fails_loudly(self):
        # all four arms are exactly half-wave at 2*f0: the lossless ring
        # traps a resonant mode and the reduction must refuse, not emit noise
        from butlercad.errors import ResonantLoopError

        with pytest.raises(ResonantLoopError):
            branchline_hybrid_circuit(F0, FR4).at(2 * F0)


class TestCrossoverCircuit:
    def test_matches_ideal_crossover_at_f0(self):
        circ = crossover_circuit(F0, FR4).at(F0)
        ideal = ideal_crossover().at(F0)
        assert np.max(np.abs(circ - ideal)) < 1e-6

    @pytest.mark.parametrize("f", ALL_FREQS)
    def test_lossless_and_reciprocal(self, f):
        s = crossover_circuit(F0, FR4).at(f)
        assert unitarity_residual(s) <= 1e-9
        assert reciprocity_residual(s) <= 1e-9


SPECS = [
    ("ideal_hybrid", {}),
    ("ideal_crossover", {}),
    ("phase_shifter", {"phi0_rad": math.pi / 4, "f0_hz": F0}),
    ("tline", {"z0_ohm": 50.0, "length_m": 7.5e-3, "eps_reff": 3.65}),
    ("shunt_junction", {"n_ports": 3}),
    ("matched_load", {}),
    ("branchline_hybrid", {"f0_hz": F0, "epsilon_r": 4.9, "height_m": 1.6e-3}),
    ("crossover_circuit", {"f0_hz": F0, "epsilon_r": 4.9, "height_m": 1.6e-3}),
]


class TestDeviceRegistry:
    @pytest.mark.parametrize("kind,params", SPECS)
    def test_round_trip_through_spec(self, kind, params):
        dev = device_from_spec(kind, params)
        assert dev.kind == kind
        assert dev.at(F0).shape == (dev.n_ports, dev.n_ports)

    @pytest.mark.parametrize("z_ref", ["abc", None, [50], True], ids=repr)
    @pytest.mark.parametrize("kind,params", SPECS)
    def test_record_with_non_numeric_reference_impedance(self, kind, params, z_ref):
        with pytest.raises(ValueError, match="z_ref must be a positive finite number"):
            device_from_spec(kind, {**params, "z_ref_ohm": z_ref})

    @pytest.mark.parametrize(
        "dev", [ideal_hybrid(), ideal_crossover(), shunt_junction(3), matched_load()]
    )
    def test_constant_matrices_are_read_only(self, dev):
        s = dev.at(F0)
        with pytest.raises(ValueError, match="read-only"):
            s[0, 0] = 1.0
        assert dev.at(2 * F0)[0, 0] == s[0, 0]

    @pytest.mark.parametrize("kind,params", SPECS)
    def test_a_frequency_vector_gives_a_stack(self, kind, params):
        dev = device_from_spec(kind, params)
        fs = np.array([0.9 * F0, F0, 1.1 * F0])
        stack = dev.at(fs)
        assert stack.shape == (3, dev.n_ports, dev.n_ports)
        assert stack.tobytes() == np.array([dev.at(f) for f in fs]).tobytes()

    @pytest.mark.parametrize("kind,params", SPECS)
    def test_no_frequency_gives_an_empty_stack(self, kind, params):
        dev = device_from_spec(kind, params)
        for empty in ([], np.array([])):
            stack = dev.at(empty)
            assert stack.shape == (0, dev.n_ports, dev.n_ports)
            assert stack.dtype == complex

    @pytest.mark.parametrize("f", [0.0, -1.0, math.inf, math.nan])
    def test_refuses_a_frequency_that_is_not_positive_and_finite(self, f):
        with pytest.raises(ValueError, match="frequency must be"):
            ideal_hybrid().at(np.array([F0, f]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="warp_drive"):
            device_from_spec("warp_drive", {})


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=64))
def test_numpy_cos_and_sin_are_the_math_module_functions(thetas):
    # a line's stack is bitwise its matrices one at a time, and the same as
    # math.cos/math.sin gave before lines were evaluated as arrays
    a = np.array(thetas)
    assert np.array_equal(np.cos(a), [math.cos(x) for x in thetas])
    assert np.array_equal(np.sin(a), [math.sin(x) for x in thetas])
