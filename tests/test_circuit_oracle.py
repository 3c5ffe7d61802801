"""Circuit fidelity against the even/odd-mode ring oracle, which needs no engine."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from butlercad.butler import build_butler_4x4
from butlercad.components import (
    branchline_dimensions,
    branchline_hybrid_circuit,
    crossover_circuit,
)
from butlercad.errors import ResonantLoopError
from butlercad.microstrip import Substrate
from butlercad.network import interconnect
from oracles import branchline_ring, circuit_butler, circuit_crossover

F0 = 5.2e9
FR4 = Substrate(4.9, 1.6e-3)
SWEEP = np.linspace(1e9, 9.9e9, 90)


def _ring(f, f0, substrate, z_ref=50.0):
    series, shunt = branchline_dimensions(f0, substrate, z_ref)
    return branchline_ring(
        f, series.length_l, series.eps_reff, shunt.length_l, shunt.eps_reff, z_ref
    )


# no join on this sweep comes near |D| < 1e-7, so no point is skipped
@pytest.mark.parametrize("z_ref", [50.0, 75.0])
def test_branchline_ring_matches_even_odd_modes(z_ref):
    dev = branchline_hybrid_circuit(F0, FR4, z_ref)
    for f in SWEEP:
        np.testing.assert_allclose(
            -dev.at(f), _ring(f, F0, FR4, z_ref), rtol=0, atol=1e-12
        )


def test_crossover_and_butler_match_partition_of_rings():
    crossover = crossover_circuit(F0, FR4)
    net = build_butler_4x4("circuit", F0, FR4)
    for f in SWEEP:
        hybrid = -_ring(f, F0, FR4)
        np.testing.assert_allclose(
            crossover.at(f), circuit_crossover(hybrid), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            interconnect(net, f), circuit_butler(f, F0, hybrid), rtol=0, atol=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(
    epsilon_r=st.floats(2.2, 10.2),
    height=st.floats(0.2e-3, 3.2e-3),
    f0=st.floats(1e9, 12e9),
    ratio=st.floats(0.1, 1.9),
)
def test_ring_oracle_property(epsilon_r, height, f0, ratio):
    substrate = Substrate(epsilon_r, height)
    try:
        got = branchline_hybrid_circuit(f0, substrate).at(ratio * f0)
    except ResonantLoopError:  # a join with |D| < 1e-7: the only skip
        assume(False)
    np.testing.assert_allclose(-got, _ring(ratio * f0, f0, substrate), rtol=0, atol=1e-12)
