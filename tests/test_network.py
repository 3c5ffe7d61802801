"""Interconnection engine: reductions, invariances, persistence, failures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butlercad.components import (
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
from butlercad.errors import NetlistError, ResonantLoopError
from butlercad.microstrip import Substrate
from butlercad.network import Netlist, interconnect, netlist_from_json, netlist_to_json
from butlercad.sparams import DeviceModel
from oracles import (
    cascade_two_hybrids,
    partition_reduce,
    reciprocity_residual,
    unitarity_residual,
)

F0 = 5.2e9
LAM = 299792458.0 / F0


def _two_port_net(*devs):
    net = Netlist()
    for k, d in enumerate(devs):
        net.add(f"D{k}", d)
    for k in range(len(devs) - 1):
        net.connect((f"D{k}", 2), (f"D{k + 1}", 1))
    net.expose(("D0", 1), (f"D{len(devs) - 1}", 2))
    return net


class TestCascades:
    def test_delay_additivity(self):
        a = tline(50.0, 0.004, 2.5)
        b = tline(50.0, 0.007, 2.5)
        joined = interconnect(_two_port_net(a, b), F0)
        single = tline(50.0, 0.011, 2.5).at(F0)
        np.testing.assert_allclose(joined, single, atol=1e-12)

    def test_hybrid_with_matched_outputs_absorbs_everything(self):
        net = Netlist()
        net.add("H", ideal_hybrid())
        net.add("L2", matched_load())
        net.add("L3", matched_load())
        net.connect(("H", 2), ("L2", 1))
        net.connect(("H", 3), ("L3", 1))
        net.expose(("H", 1), ("H", 4))
        s = interconnect(net, F0)
        np.testing.assert_allclose(s, np.zeros((2, 2)), atol=1e-15)

    def test_two_hybrids_cascade_into_a_crossover(self):
        net = Netlist()
        net.add("A", ideal_hybrid())
        net.add("B", ideal_hybrid())
        net.connect(("A", 2), ("B", 1))
        net.connect(("A", 3), ("B", 4))
        net.expose(("A", 1), ("B", 2), ("B", 3), ("A", 4))
        s = interconnect(net, F0)
        np.testing.assert_allclose(s, cascade_two_hybrids(), atol=1e-12)
        # full transfer to the crossed ports
        assert abs(s[2, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(s[1, 3]) == pytest.approx(1.0, abs=1e-12)


class TestEliminationProperties:
    def _random_net(self, rng):
        net = Netlist()
        net.add("H1", ideal_hybrid())
        net.add("H2", ideal_hybrid())
        net.add("PS", phase_shifter(rng.uniform(0.2, 1.3), F0))
        net.add("TL", tline(50 + 30 * rng.random(), 0.003, 2.0))
        net.connect(("H1", 2), ("PS", 1))
        net.connect(("PS", 2), ("H2", 1))
        net.connect(("H1", 3), ("TL", 1))
        net.connect(("TL", 2), ("H2", 4))
        net.expose(("H1", 1), ("H1", 4), ("H2", 2), ("H2", 3))
        return net

    def test_order_independence_100_permutations(self):
        rng = np.random.default_rng(2024)
        net = self._random_net(rng)
        base = interconnect(net, F0)
        for _ in range(100):
            order = rng.permutation(len(net.connections))
            shuffled = Netlist(
                devices=dict(net.devices),
                connections=[net.connections[k] for k in order],
                external_ports=list(net.external_ports),
            )
            got = interconnect(shuffled, F0)
            assert np.max(np.abs(got - base)) < 1e-9

    def test_matches_partition_method(self):
        # independent reduction: stack blocks, solve the joint constraints
        rng = np.random.default_rng(7)
        net = self._random_net(rng)
        blocks = [net.devices[n].at(F0) for n in net.devices]
        n_tot = sum(b.shape[0] for b in blocks)
        s = np.zeros((n_tot, n_tot), dtype=complex)
        offs = {}
        o = 0
        for name, b in zip(net.devices, blocks):
            offs[name] = o
            s[o : o + b.shape[0], o : o + b.shape[0]] = b
            o += b.shape[0]
        pairs = [
            (offs[a[0]] + a[1] - 1, offs[b[0]] + b[1] - 1) for a, b in net.connections
        ]
        expected = partition_reduce(s, pairs)
        # partition keeps leftover ports in index order; reorder to external
        leftover = [k for k in range(n_tot) if all(k not in pq for pq in pairs)]
        order = [
            leftover.index(offs[p[0]] + p[1] - 1) for p in net.external_ports
        ]
        got = interconnect(net, F0)
        np.testing.assert_allclose(got, expected[np.ix_(order, order)], atol=1e-12)

    def test_reciprocity_is_preserved(self):
        net = self._random_net(np.random.default_rng(5))
        s = interconnect(net, F0)
        assert reciprocity_residual(s) <= 1e-9


def _lossless_reciprocal(rng, n):
    """S = Q Q^T with Q unitary: symmetric and unitary."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ q.T


@settings(max_examples=100, deadline=None, database=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_lossless_netlist_property(sizes, seed):
    rng = np.random.default_rng(seed)
    net = Netlist()
    refs = []
    stack = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    for k, n in enumerate(sizes):
        m = _lossless_reciprocal(rng, n)
        net.add(f"D{k}", DeviceModel(f"D{k}", n, lambda f, m=m: m))
        stack[len(refs) : len(refs) + n, len(refs) : len(refs) + n] = m
        refs += [(f"D{k}", p) for p in range(1, n + 1)]
    shuffled = rng.permutation(len(refs))
    n_pairs = int(rng.integers(0, (len(refs) - 1) // 2 + 1))  # expose at least one
    pairs = [(int(a), int(b)) for a, b in shuffled[: 2 * n_pairs].reshape(-1, 2)]
    external = [int(k) for k in shuffled[2 * n_pairs :]]
    for a, b in pairs:
        net.connect(refs[a], refs[b])
    net.expose(*[refs[k] for k in external])
    try:
        got = interconnect(net, F0)
    except ResonantLoopError:
        return
    assert unitarity_residual(got) <= 1e-9 and reciprocity_residual(got) <= 1e-9
    # the oracle keeps leftover ports in stacked order
    order = [sorted(external).index(k) for k in external]
    expected = partition_reduce(stack, pairs)[np.ix_(order, order)]
    assert np.max(np.abs(got - expected)) < 1e-9
    reordered = Netlist(
        devices=net.devices,
        connections=[
            (b, a) if rng.random() < 0.5 else (a, b)
            for a, b in (net.connections[k] for k in rng.permutation(n_pairs))
        ],
        external_ports=net.external_ports,
    )
    assert np.max(np.abs(interconnect(reordered, F0) - got)) < 1e-9


class TestFailureModes:
    def test_resonant_loop_fails_loudly(self):
        # two cascaded half-wave lines closed on themselves resonate
        net = Netlist()
        net.add("A", tline(50.0, LAM / 2, 1.0))
        net.add("B", tline(50.0, LAM / 2, 1.0))
        net.connect(("A", 2), ("B", 1))
        net.connect(("B", 2), ("A", 1))
        with pytest.raises(ResonantLoopError, match="B.2 <-> A.1"):
            interconnect(net, F0)

    @pytest.mark.parametrize(
        "delta", [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]
    )
    def test_near_resonant_circuit_butler_raises_or_stays_unitary(self, delta):
        # the branch-line rings resonate at twice the design frequency
        from butlercad.butler import build_butler_4x4

        net = build_butler_4x4("circuit", F0, Substrate(4.9, 1.6e-3))
        try:
            s = interconnect(net, 2.0 * F0 * (1.0 + delta))
        except ResonantLoopError:
            return
        assert unitarity_residual(s) <= 1e-9

    def test_dangling_port_detected(self):
        net = Netlist()
        net.add("H", ideal_hybrid())
        net.expose(("H", 1), ("H", 2), ("H", 3))
        with pytest.raises(NetlistError, match="dangling"):
            net.validate()

    def test_double_use_detected(self):
        net = Netlist()
        net.add("A", tline(50.0, 0.001, 1.0))
        net.add("B", tline(50.0, 0.001, 1.0))
        net.connect(("A", 2), ("B", 1))
        net.expose(("A", 1), ("A", 2), ("B", 2))
        with pytest.raises(NetlistError, match="A.2"):
            net.validate()

    def test_unknown_device_in_connection(self):
        net = Netlist()
        net.add("A", tline(50.0, 0.001, 1.0))
        net.connect(("A", 2), ("nope", 1))
        net.expose(("A", 1))
        with pytest.raises(NetlistError, match="nope"):
            net.validate()

    def test_mixed_reference_impedance_rejected(self):
        calls = []  # the check comes before any device is evaluated
        net = Netlist()
        net.add("A", tline(50.0, 0.001, 1.0, z_ref=50.0))
        net.add("B", tline(50.0, 0.001, 1.0, z_ref=75.0))
        net.add("P", DeviceModel("probe", 1, lambda f: calls.append(f) or np.zeros((1, 1))))
        net.connect(("A", 2), ("B", 1))
        net.expose(("A", 1), ("B", 2), ("P", 1))
        with pytest.raises(NetlistError, match=r"mixed reference impedances \[50.0, 75.0\]"):
            interconnect(net, F0)
        assert calls == []

    def test_terminated_line_at_75_ohm(self):
        net = Netlist()
        net.add("T", tline(75.0, 0.01, 2.0, z_ref=75.0))
        net.add("L", matched_load(75.0))
        net.connect(("T", 2), ("L", 1))
        net.expose(("T", 1))
        np.testing.assert_allclose(interconnect(net, F0), np.zeros((1, 1)), atol=1e-15)


class TestPersistence:
    def test_json_round_trip_preserves_response(self):
        from butlercad.butler import build_butler_4x4

        net = build_butler_4x4("ideal", F0)
        doc = netlist_to_json(net)
        back = netlist_from_json(doc, device_from_spec)
        for f in (0.9 * F0, F0):
            np.testing.assert_allclose(
                interconnect(back, f),
                interconnect(net, f),
                atol=1e-12,
            )

    @pytest.mark.parametrize(
        "make",
        [
            ideal_hybrid,
            ideal_crossover,
            lambda z: phase_shifter(0.7, 2.6e9, z),
            matched_load,
            lambda z: tline(60.0, 0.02, 2.2, z_ref=z),
            lambda z: shunt_junction(3, z),
            lambda z: branchline_hybrid_circuit(2.6e9, Substrate(3.0, 0.8e-3), z),
            lambda z: crossover_circuit(2.6e9, Substrate(3.0, 0.8e-3), z),
        ],
        ids=[
            "ideal_hybrid", "ideal_crossover", "phase_shifter", "matched_load",
            "tline", "shunt_junction", "branchline_hybrid", "crossover_circuit"],
    )
    def test_json_round_trip_keeps_reference_impedance(self, make):
        dev = make(75.0)
        net = Netlist()
        net.add("D", dev)
        net.expose(*[("D", p) for p in range(1, dev.n_ports + 1)])
        back = netlist_from_json(netlist_to_json(net), device_from_spec)
        assert back.devices["D"].z_ref == dev.z_ref == 75.0
        np.testing.assert_allclose(interconnect(back, 3e9), interconnect(net, 3e9), atol=1e-12)

    def test_record_without_reference_impedance_loads_at_50_ohm(self):
        params = {"z0_ohm": 60.0, "length_m": 0.02, "eps_reff": 2.2}
        assert device_from_spec("tline", params).z_ref == 50.0

    def test_json_document_shape(self):
        import json

        from butlercad.butler import build_butler_4x4

        doc = json.loads(netlist_to_json(build_butler_4x4("ideal", F0)))
        assert {d["name"] for d in doc["devices"]} == {
            "HA", "HB", "HC", "HD", "X1", "X2", "PSA", "PSB",
        }
        assert len(doc["connections"]) == 10
        assert len(doc["external_ports"]) == 8


def test_device_model_port_count_check():
    bad = DeviceModel(
        label="liar",
        n_ports=3,
        evaluate=lambda f: np.zeros((2, 2)),
    )
    with pytest.raises(ValueError, match="declared"):
        bad.at(F0)


@pytest.mark.parametrize("z_ref", [math.nan, math.inf, 0.0, -50.0, "abc", None, [50], True])
def test_device_model_rejects_bad_reference_impedance(z_ref):
    with pytest.raises(ValueError, match="z_ref"):
        DeviceModel("load", 1, lambda f: np.zeros((1, 1)), params={"z_ref_ohm": z_ref})
