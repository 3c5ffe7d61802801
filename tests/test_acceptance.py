"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion; the terminal summary (see conftest) prints a
pass/fail line for each.  Tolerances are fixed here, nothing is tuned at
run time.
"""

import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from butlercad.antenna import inset_position
from butlercad.beams import array_factor, beam_angle, half_wave_geometry, pattern_metrics
from butlercad.butler import (
    IDEAL_PROGRESSIONS_DEG,
    INPUT_PORT_NAMES,
    adjacent_phase_steps,
    build_butler_4x4,
    excitation_table,
)
from butlercad.components import branchline_hybrid_circuit, ideal_hybrid, phase_shifter
from butlercad.microstrip import Substrate, analyze_impedance, synthesize_width
from butlercad.network import Netlist, interconnect
from butlercad.touchstone import touchstone_read, touchstone_write

F0 = 5.2e9
FR4 = Substrate(4.9, 1.6e-3)


def test_criterion_1_dimension_regression(tmp_path):
    """`design` at 5.2 GHz on FR4 reproduces the calculated dimension tables."""
    report_path = tmp_path / "report.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "butlercad.cli", "design",
         "--freq", "5.2GHz", "--er", "4.9", "--h", "1.6mm",
         "--json-out", str(report_path)],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 1.0, f"design took {elapsed:.2f} s"

    doc = json.loads(report_path.read_text())
    lines = {e["role"]: e for e in doc["microstrip_lines"]}
    feed = lines["feed / hybrid shunt arm, quarter-wave"]
    series = lines["hybrid series arm (z0/sqrt2), quarter-wave"]
    assert feed["width_m"] == pytest.approx(2.8e-3, rel=0.05)
    assert series["width_m"] == pytest.approx(4.8e-3, rel=0.05)
    assert feed["length_m"] == pytest.approx(7.5e-3, rel=0.03)
    assert doc["patch"]["width_m"] == pytest.approx(16.8e-3, rel=0.01)
    assert doc["patch"]["length_m"] == pytest.approx(12.7e-3, rel=0.03)
    # the printed 35.4 ohm table entry, checked against the synthesis directly
    assert synthesize_width(35.4, FR4) == pytest.approx(4.8e-3, rel=0.05)


def test_criterion_2_inset_regression():
    """Back-solved 317 ohm edge resistance places the tap at 4.7 mm."""
    y0 = inset_position(317.0, 50.0, 12.7e-3)
    assert y0 == pytest.approx(4.7e-3, abs=0.05e-3)


def test_criterion_3_ideal_butler_behavior():
    """Unitary composite, quarter-power couplings, the four progressions."""
    t0 = time.perf_counter()
    net = build_butler_4x4("ideal", F0)
    s8 = interconnect(net, F0)
    table = excitation_table(net, F0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"ideal chain took {elapsed:.2f} s"

    gram = s8.conj().T @ s8
    assert np.max(np.abs(gram - np.eye(8))) < 1e-9

    coupling_db = 20 * np.log10(np.abs(s8[4:, :4]))
    assert np.max(np.abs(coupling_db - (-6.02))) < 0.01

    for name, amps in table.items():
        steps = adjacent_phase_steps(amps)
        np.testing.assert_allclose(
            steps, IDEAL_PROGRESSIONS_DEG[name], atol=0.01
        )
    assert sorted(IDEAL_PROGRESSIONS_DEG.values()) == [-135.0, -45.0, 45.0, 135.0]

    vecs = np.array([table[n] for n in INPUT_PORT_NAMES])
    gram_v = vecs @ vecs.conj().T
    assert np.max(np.abs(gram_v - np.diag(np.diag(gram_v)))) < 1e-9


def test_criterion_4_beam_angles():
    """Predicted beams at +-14.48 and +-48.59 degrees; peak scan agrees."""
    geometry = half_wave_geometry(F0)
    assert math.degrees(beam_angle(math.pi / 4, geometry)) == pytest.approx(14.48, abs=0.01)
    assert math.degrees(beam_angle(3 * math.pi / 4, geometry)) == pytest.approx(48.59, abs=0.01)

    net = build_butler_4x4("ideal", F0)
    table = excitation_table(net, F0)
    for name, amps in table.items():
        prog_deg = IDEAL_PROGRESSIONS_DEG[name]
        predicted = math.degrees(beam_angle(-math.radians(prog_deg), geometry))
        cut = array_factor(amps, geometry, normalize=True)
        scanned = pattern_metrics(cut).peak_angle_deg
        assert scanned == pytest.approx(predicted, abs=0.2), name
    predictions = sorted(
        round(math.degrees(beam_angle(-math.radians(p), geometry)), 2)
        for p in IDEAL_PROGRESSIONS_DEG.values()
    )
    assert predictions == [-48.59, -14.48, 14.48, 48.59]


def test_criterion_5_cross_fidelity():
    """Circuit models line up with the ideal matrices at f0."""
    circ = branchline_hybrid_circuit(F0, FR4).at(F0)
    ideal = ideal_hybrid().at(F0)
    assert np.max(np.abs(np.abs(circ) - np.abs(ideal))) < 0.05
    live = np.abs(ideal) > 1e-9
    dphi = np.degrees(np.angle(circ[live]) - np.angle(ideal[live]))
    dphi = (dphi + 180.0) % 360.0 - 180.0
    assert np.max(np.abs(dphi)) < 3.0

    net = build_butler_4x4("circuit", F0, FR4)
    s8 = interconnect(net, F0)
    coupling_db = 20 * np.log10(np.abs(s8[4:, :4]))
    assert np.max(np.abs(coupling_db - (-6.02))) < 0.5


def test_criterion_6_property_suites():
    """Round trips and invariances at their stated tolerances."""
    # microstrip synthesis <-> analysis below 1 percent over 25..120 ohm
    for z0 in np.linspace(25.0, 120.0, 191):
        w = synthesize_width(z0, FR4)
        assert abs(analyze_impedance(w, FR4) - z0) / z0 < 0.01

    # elimination order independence, 100 random orders, 1e-9
    rng = np.random.default_rng(1234)
    net = build_butler_4x4("ideal", F0)
    base = interconnect(net, F0)
    for _ in range(100):
        order = rng.permutation(len(net.connections))
        shuffled = Netlist(
            devices=dict(net.devices),
            connections=[net.connections[k] for k in order],
            external_ports=list(net.external_ports),
        )
        assert np.max(np.abs(interconnect(shuffled, F0) - base)) < 1e-9

    # touchstone round trip below 1e-9 across every format and unit
    freqs = 1e9 * np.arange(1, 4)
    sweep = np.array(
        [0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in freqs]
    )
    for fmt in ("RI", "MA", "DB"):
        for unit in ("Hz", "kHz", "MHz", "GHz"):
            buf = io.StringIO()
            touchstone_write(freqs, sweep, fmt, buf, unit=unit)
            buf.seek(0)
            f_back, s_back, _ = touchstone_read(buf, n_ports=3)
            assert np.all(np.abs(f_back - freqs) <= 1e-9 * freqs)
            assert np.max(np.abs(s_back - sweep)) < 1e-9

    # inset resistance round trip below 1e-9 relative
    for r in np.linspace(1.0, 317.0, 159):
        y0 = inset_position(317.0, r, 12.7e-3)
        back = 317.0 * math.cos(math.pi * y0 / 12.7e-3) ** 2
        assert abs(back - r) / r < 1e-9


def test_criterion_7_phase_shifter():
    """-45.00 degrees at f0, exactly linear to -90.00 at 2 f0."""
    dev = phase_shifter(math.pi / 4, F0)
    at_f0 = math.degrees(np.angle(dev.at(F0)[1, 0]))
    at_2f0 = math.degrees(np.angle(dev.at(2 * F0)[1, 0]))
    assert at_f0 == pytest.approx(-45.0, abs=1e-9)
    assert at_2f0 == pytest.approx(-90.0, abs=1e-9)
