"""The composed 4x4 matrix against the frozen stage-math golden data."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from butlercad.butler import (
    IDEAL_PROGRESSIONS_DEG,
    INPUT_PORT_NAMES,
    adjacent_phase_steps,
    beam_table,
    build_butler_4x4,
    excitation_table,
    progression_deg,
)
from butlercad.microstrip import Substrate
from butlercad.network import interconnect
from oracles import stage_butler_response

F0 = 5.2e9
FR4 = Substrate(4.9, 1.6e-3)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "butler_ideal_excitations.json").read_text()
)


@pytest.fixture(scope="module")
def ideal_net():
    return build_butler_4x4("ideal", F0)


@pytest.fixture(scope="module")
def ideal_s8(ideal_net):
    return interconnect(ideal_net, F0)


class TestCensusAndShape:
    def test_device_census(self, ideal_net):
        kinds = [d.kind for d in ideal_net.devices.values()]
        assert kinds.count("ideal_hybrid") == 4
        assert kinds.count("ideal_crossover") == 2
        assert kinds.count("phase_shifter") == 2

    def test_eight_external_ports(self, ideal_net):
        assert len(ideal_net.external_ports) == 8

    def test_circuit_census(self):
        net = build_butler_4x4("circuit", F0, FR4)
        kinds = [d.kind for d in net.devices.values()]
        assert kinds.count("branchline_hybrid") == 4
        assert kinds.count("crossover_circuit") == 2
        assert kinds.count("phase_shifter") == 2

    def test_circuit_needs_substrate(self):
        with pytest.raises(ValueError):
            build_butler_4x4("circuit", F0)

    def test_unknown_fidelity(self):
        with pytest.raises(ValueError):
            build_butler_4x4("spice", F0)


class TestIdealComposite:
    def test_unitary(self, ideal_s8):
        assert ideal_s8.is_unitary(1e-9)

    def test_reciprocal(self, ideal_s8):
        assert ideal_s8.is_reciprocal(1e-9)

    def test_matches_golden_amplitudes(self, ideal_net):
        table = excitation_table(ideal_net, F0)
        for name in INPUT_PORT_NAMES:
            want = np.array(
                [complex(re, im) for re, im in GOLDEN["ports"][name]["amplitudes_re_im"]]
            )
            np.testing.assert_allclose(table[name], want, atol=1e-12)

    def test_matches_stage_oracle_off_design_frequency(self, ideal_net):
        # the stage-by-stage block multiplication is an independent path
        for f in (0.8 * F0, F0, 1.37 * F0):
            oracle = stage_butler_response(f, F0)
            table = excitation_table(ideal_net, f)
            for name in INPUT_PORT_NAMES:
                np.testing.assert_allclose(table[name], oracle[name], atol=1e-12)

    def test_equal_quarter_power_split(self, ideal_net):
        for amps in excitation_table(ideal_net, F0).values():
            np.testing.assert_allclose(np.abs(amps), 0.5, atol=1e-9)

    def test_progressions_match_golden_map(self, ideal_net):
        table = excitation_table(ideal_net, F0)
        for name, amps in table.items():
            steps = adjacent_phase_steps(amps)
            want = GOLDEN["ports"][name]["progression_deg"]
            np.testing.assert_allclose(steps, want, atol=1e-9)
            assert IDEAL_PROGRESSIONS_DEG[name] == want

    def test_progression_set(self, ideal_net):
        table = excitation_table(ideal_net, F0)
        got = sorted(round(progression_deg(amps), 6) for amps in table.values())
        assert got == [-135.0, -45.0, 45.0, 135.0]

    def test_excitations_pairwise_orthogonal(self, ideal_net):
        vecs = np.array(list(excitation_table(ideal_net, F0).values()))
        gram = vecs @ vecs.conj().T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-9


@pytest.fixture(scope="module")
def circuit_net():
    return build_butler_4x4("circuit", F0, FR4)


class TestCircuitComposite:
    def test_couplings_at_f0_near_quarter_power(self, circuit_net):
        s = interconnect(circuit_net, F0)
        coupling_db = 20 * np.log10(np.abs(s.entries[4:, :4]))
        assert np.max(np.abs(coupling_db - (-6.0206))) < 0.5

    def test_reciprocal_and_lossless_at_f0(self, circuit_net):
        s = interconnect(circuit_net, F0)
        assert s.is_reciprocal(1e-9)
        assert s.is_unitary(1e-9)

    def test_progressions_at_f0_match_ideal_map(self, circuit_net):
        table = excitation_table(circuit_net, F0)
        for name, amps in table.items():
            assert progression_deg(amps) == pytest.approx(
                IDEAL_PROGRESSIONS_DEG[name], abs=0.1
            )


@pytest.mark.parametrize("net_fixture", ["ideal_net", "circuit_net"])
@pytest.mark.parametrize("f", [F0, 0.93 * F0])
def test_excitation_table_equals_excite_per_port(request, net_fixture, f):
    # exciting input k alone is column k of the composite's output rows
    net = request.getfixturevalue(net_fixture)
    table = excitation_table(net, f)
    s = interconnect(net, f).entries
    assert list(table) == list(INPUT_PORT_NAMES)
    for k, name in enumerate(INPUT_PORT_NAMES):
        np.testing.assert_array_equal(table[name], s[4:, k])


def test_beam_table_keeps_port_order_and_steers_by_progression(ideal_net):
    table = excitation_table(ideal_net, F0)
    beams = beam_table({name: table[name] for name in ("2L", "1R")}, F0)
    assert list(beams) == ["2L", "1R"]
    assert beams["1R"] == pytest.approx((-45.0, 14.4775), abs=1e-4)
    assert beams["2L"] == pytest.approx((135.0, -48.5904), abs=1e-4)


def test_phase_step_wrapping():
    # a vector walking -170, -170, -170 wraps through the branch cut
    amps = np.exp(1j * np.radians([0.0, -170.0, -340.0, -510.0]))
    np.testing.assert_allclose(adjacent_phase_steps(amps), -170.0, atol=1e-9)
