"""Interconnection engine: reductions, invariances, persistence, failures."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from butlercad import network
from butlercad.butler import build_butler_4x4
from butlercad.components import (
    _branchline_net,
    branchline_hybrid_circuit,
    crossover_circuit,
    device_from_spec,
    ideal_crossover,
    ideal_hybrid,
    matched_load,
    netlist_from_json,
    netlist_to_json,
    phase_shifter,
    shunt_junction,
    tline,
)
from butlercad.errors import NetlistError, ResonantLoopError
from butlercad.microstrip import Substrate
from butlercad.network import CHUNK, Netlist, interconnect
from butlercad.sparams import DeviceModel
from oracles import (
    cascade_two_hybrids,
    join_in_order,
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

    def test_a_closed_netlist_has_an_empty_matrix(self):
        # every port joined: the one block left holds no live port
        net = Netlist()
        net.add("L1", matched_load())
        net.add("L2", matched_load())
        net.connect(("L1", 1), ("L2", 1))
        assert interconnect(net, F0).shape == (0, 0)
        assert interconnect(net, [F0, 2 * F0]).shape == (2, 0, 0)

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


def _random_lossless_netlist(sizes, seed):
    """Devices S(f) = P M P, M lossless and reciprocal, P = diag(exp(-j 2 pi f tau)).

    P moves each port's reference plane by a random delay, so every device
    stays lossless and reciprocal at every frequency.  Random pairs of
    ports are joined and the rest exposed in random order.  Returns the
    netlist and the generator, for further draws.
    """
    rng = np.random.default_rng(seed)
    net = Netlist()
    refs = []
    for k, n in enumerate(sizes):
        m, tau = _lossless_reciprocal(rng, n), rng.uniform(0.0, 1e-9, n)

        def evaluate(f, m=m, tau=tau):
            # one matrix per frequency: numpy's complex multiply may round a
            # broadcast stack differently from one matrix in the last bit
            p = np.exp(-2j * np.pi * np.multiply.outer(f, tau))
            return np.array([pk[:, None] * m * pk for pk in p])

        net.add(f"D{k}", DeviceModel(n, evaluate))
        refs += [(f"D{k}", p) for p in range(1, n + 1)]
    shuffled = rng.permutation(len(refs))
    n_pairs = int(rng.integers(0, (len(refs) - 1) // 2 + 1))  # expose at least one
    for a, b in shuffled[: 2 * n_pairs].reshape(-1, 2):
        net.connect(refs[a], refs[b])
    net.expose(*[refs[k] for k in shuffled[2 * n_pairs :]])
    return net, rng


_SIZES = st.lists(st.integers(1, 4), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None, database=None)
@given(sizes=_SIZES, seed=st.integers(0, 2**32 - 1))
@example(sizes=[3, 4, 3], seed=27)  # a join forming its products in place fails here
def test_random_lossless_netlist_property(sizes, seed):
    net, rng = _random_lossless_netlist(sizes, seed)
    stack, pairs, external = _stacked(net, F0)
    n_pairs = len(pairs)
    try:
        got = interconnect(net, F0)
    except ResonantLoopError:
        return
    assert unitarity_residual(got) <= 1e-9 and reciprocity_residual(got) <= 1e-9
    # the oracle keeps leftover ports in stacked order
    order = [sorted(external).index(k) for k in external]
    expected = partition_reduce(stack, pairs)[np.ix_(order, order)]
    assert np.max(np.abs(got - expected)) < 1e-9
    assert got.tobytes() == join_in_order(stack, pairs, external).tobytes()
    reordered = Netlist(
        devices=net.devices,
        connections=[
            (b, a) if rng.random() < 0.5 else (a, b)
            for a, b in (net.connections[k] for k in rng.permutation(n_pairs))
        ],
        external_ports=net.external_ports,
    )
    assert np.max(np.abs(interconnect(reordered, F0) - got)) < 1e-9


def _stacked(net, f):
    """The block-diagonal stack of every ``dev.at(f)``, with the joined and exposed indices."""
    offset, blocks = {}, []
    for name, dev in net.devices.items():
        offset[name] = sum(len(b) for b in blocks)
        blocks.append(dev.at(f))
    stack = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=complex)
    for name, b in zip(net.devices, blocks):
        stack[offset[name] : offset[name] + len(b), offset[name] : offset[name] + len(b)] = b

    def index(ref):
        return offset[ref[0]] + ref[1] - 1

    pairs = [(index(a), index(b)) for a, b in net.connections]
    return stack, pairs, [index(ref) for ref in net.external_ports]


@pytest.mark.parametrize("make", [
    lambda: build_butler_4x4("ideal", F0),
    lambda: build_butler_4x4("circuit", F0, Substrate(4.9, 1.6e-3)),
    lambda: _branchline_net(F0, Substrate(4.9, 1.6e-3), 50.0),
], ids=["ideal_butler", "circuit_butler", "branchline_ring"])
def test_join_is_bitwise_the_reference_join(make):
    net, checked = make(), 0
    for f in np.linspace(1e9, 10e9, 41):
        try:
            got = interconnect(net, f)
        except ResonantLoopError:
            continue
        assert got.tobytes() == join_in_order(*_stacked(net, f)).tobytes(), f
        checked += 1
    assert checked >= 40


_BUTLERS = {
    "ideal_butler": lambda: build_butler_4x4("ideal", F0),
    "circuit_butler": lambda: build_butler_4x4("circuit", F0, Substrate(4.9, 1.6e-3)),
}


@settings(max_examples=60, deadline=None, database=None)
@given(
    fs=st.lists(st.floats(0.2e9, 10e9), min_size=1, max_size=40).map(sorted),
    which=st.sampled_from([*_BUTLERS, "random_lossless"]),
    sizes=_SIZES,
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_is_bitwise_the_per_point_solves(fs, which, sizes, seed):
    # up to 40 points, so some sweeps span two or three chunks
    if which in _BUTLERS:
        net = _BUTLERS[which]()
    else:
        net = _random_lossless_netlist(sizes, seed)[0]
    try:
        per_point = np.array([interconnect(net, f) for f in fs])
    except ResonantLoopError as e:
        with pytest.raises(ResonantLoopError) as batched:
            interconnect(net, np.array(fs))
        assert str(batched.value) == str(e)
        return
    got = interconnect(net, np.array(fs))
    assert got.shape == per_point.shape == (len(fs), *per_point.shape[1:])
    assert got.tobytes() == per_point.tobytes()
    assert got.tobytes() == np.array([join_in_order(*_stacked(net, f)) for f in fs]).tobytes()


@settings(max_examples=30, deadline=None, database=None)
@given(
    fs=st.lists(st.floats(0.2e9, 10e9), min_size=1, max_size=70).map(sorted),
    which=st.sampled_from([*_BUTLERS, "random_lossless"]),
    sizes=_SIZES,
    seed=st.integers(0, 2**32 - 1),
)
# a join that leaves a 1x1 block, where numpy multiplies in place with another kernel
@example(fs=[1e9, 2e9, 3e9, 4e9, 5e9], which="random_lossless", sizes=[3], seed=2)
@example(fs=[1e9, 2e9, 3e9, 4e9, 5e9], which="random_lossless", sizes=[1, 1, 3], seed=0)
def test_sweep_bytes_do_not_depend_on_the_chunk_size(fs, which, sizes, seed):
    if which in _BUTLERS:
        net = _BUTLERS[which]()
    else:
        net = _random_lossless_netlist(sizes, seed)[0]
    outcomes = set()
    for chunk in (1, 3, 16, CHUNK, 10**6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "CHUNK", chunk)
            try:
                outcomes.add(interconnect(net, np.array(fs)).tobytes())
            except ResonantLoopError as e:
                outcomes.add(str(e))
    assert len(outcomes) == 1


def test_a_sweep_plans_its_joins_once(monkeypatch):
    plans = []
    plan = network._join_plan
    monkeypatch.setattr(network, "_join_plan", lambda net: plans.append(net) or plan(net))
    net = _BUTLERS["circuit_butler"]()
    assert len(plans) == 3  # at build: the hybrid's ring, the crossover's ring and the crossover
    interconnect(net, np.linspace(4.7e9, 5.7e9, 121))
    assert plans[3:] == [net]


def test_a_compiled_netlist_does_not_see_later_edits():
    net = _two_port_net(tline(50.0, 0.004, 2.5), tline(50.0, 0.007, 2.5))
    solve = network.compile_netlist(net)
    expected = interconnect(net, F0)
    net.devices["D1"] = tline(50.0, 0.009, 2.5)
    assert solve(F0).tobytes() == expected.tobytes()


def test_a_long_circuit_sweep_stays_small():
    # the (1001, 8, 8) result is 1.03 MB.  Measured peaks: 1.63 MB at CHUNK 48;
    # with the old join that gathered the block-diagonal stack, 1.33 MB at
    # CHUNK 16 and 1.9 MB at 48
    net = _BUTLERS["circuit_butler"]()
    tracemalloc.start()
    try:
        interconnect(net, np.linspace(1e9, 10e9, 1001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7e6


def _first_error(net, fs):
    """The error the per-point loop raises first, as (type, message)."""
    for f in fs:
        try:
            interconnect(net, f)
        except (ResonantLoopError, ValueError) as e:
            return type(e), str(e)
    raise AssertionError("no frequency fails")


def _failing(n_ports, above):
    """A matched device that refuses every frequency above ``above``."""

    def evaluate(f):
        if (f > above).any():
            raise ValueError(f"refused {f[f > above][0]:.9g} Hz")
        return np.zeros((len(f), n_ports, n_ports), dtype=complex)

    return DeviceModel(n_ports, evaluate)


def _two_rings(f0_a, f0_b):
    """Branch-line hybrids A and B in cascade: each resonates at twice its f0."""
    sub = Substrate(4.9, 1.6e-3)
    net = Netlist()
    net.add("A", branchline_hybrid_circuit(f0_a, sub))
    net.add("B", branchline_hybrid_circuit(f0_b, sub))
    net.connect(("A", 2), ("B", 1))
    net.connect(("A", 3), ("B", 4))
    net.expose(("A", 1), ("B", 2), ("B", 3), ("A", 4))
    return net


def _two_refusing():
    net = Netlist()
    net.add("A", _failing(1, 5e9))
    net.add("B", _failing(1, 3e9))
    net.expose(("A", 1), ("B", 1))
    return net


class TestSweepErrors:
    """A failing chunk is solved point by point: the per-point loop's first error."""

    def test_first_resonance_in_the_second_chunk(self):
        net = _BUTLERS["circuit_butler"]()
        fs = np.linspace(1.8 * F0, 2.0 * F0, CHUNK + 5)  # only the last point resonates
        kind, message = _first_error(net, fs)
        with pytest.raises(kind) as e:
            interconnect(net, fs)
        assert str(e.value) == message
        assert message.startswith("HA: connection ") and " at 10.4 GHz " in message

    @pytest.mark.parametrize("make, fs, first", [
        # A is evaluated first and fails first in the chunk, at 2 F0; the
        # sweep reaches B's resonance at 1.92 F0 before that
        (lambda: _two_rings(F0, 0.96 * F0),
         [1.5 * F0, 2.0 * 0.96 * F0, 1.95 * F0, 2.0 * F0, 2.05 * F0], "B: connection "),
        (_two_refusing, [1e9, 4e9, 6e9], "refused 4e+09 Hz"),
    ], ids=["two-rings", "two-refusing-devices"])
    def test_two_devices_failing_in_one_chunk(self, make, fs, first):
        net = make()
        kind, message = _first_error(net, fs)
        with pytest.raises(kind) as e:
            interconnect(net, np.array(fs))
        assert str(e.value) == message
        assert message.startswith(first)


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
        net.add("P", DeviceModel(1, lambda f: calls.append(f) or np.zeros((len(f), 1, 1))))
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
        net = build_butler_4x4("ideal", F0)
        doc = netlist_to_json(net)
        back = netlist_from_json(doc)
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
        back = netlist_from_json(netlist_to_json(net))
        assert back.devices["D"].z_ref == dev.z_ref == 75.0
        np.testing.assert_allclose(interconnect(back, 3e9), interconnect(net, 3e9), atol=1e-12)

    def test_record_without_reference_impedance_loads_at_50_ohm(self):
        params = {"z0_ohm": 60.0, "length_m": 0.02, "eps_reff": 2.2}
        assert device_from_spec("tline", params).z_ref == 50.0

    def test_json_document_shape(self):
        doc = json.loads(netlist_to_json(build_butler_4x4("ideal", F0)))
        assert {d["name"] for d in doc["devices"]} == {
            "HA", "HB", "HC", "HD", "X1", "X2", "PSA", "PSB",
        }
        assert len(doc["connections"]) == 10
        assert len(doc["external_ports"]) == 8


_LOAD = {"name": "L", "kind": "matched_load"}
_LINE = {"name": "T", "kind": "tline",
         "params": {"z0_ohm": 50.0, "length_m": 0.01, "eps_reff": 2.0}}
_JUNCTION = {"name": "J", "kind": "shunt_junction", "params": {"n_ports": "3"}}


def _doc(devices=(_LOAD, _LINE), connections=(), external_ports=(["L", 1], ["T", 1], ["T", 2])):
    return {"devices": list(devices), "connections": list(connections),
            "external_ports": list(external_ports)}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_doc(devices=[_LOAD, {**_LINE, "params": {"length_m": 0.01, "eps_reff": 2.0}}]),
         r"^device record 1 \('T'\) has no 'z0_ohm'$"),
        ({"connections": [], "external_ports": []}, r"^netlist document has no 'devices' list$"),
        (_doc(devices=[_LOAD, _JUNCTION]),
         r"^device record 1 \('J'\): "),
        ([_doc()], r"^netlist document has no 'devices' list$"),
        (_doc(connections=[[["L", 1], ["T", "x"]]], external_ports=[["T", 1]]),
         r"^connection 0: port 'x' is not an integer$"),
        (_doc(external_ports=[["L", 1], ["T", 1], ["T", "x"]]),
         r"^external_ports: port 'x' is not an integer$"),
        (_doc(connections=[[["L", 1], ["T", 1.9]]], external_ports=[["T", 1]]),
         r"^connection 0: port 1.9 is not an integer$"),
        (_doc(external_ports=[["L", 1], ["T", 1], ["T", 2.7]]),
         r"^external_ports: port 2.7 is not an integer$"),
        (_doc(external_ports=[["L", True], ["T", 1], ["T", 2]]),
         r"^external_ports: port True is not an integer$"),
        (_doc(devices=[_LOAD, {**_LINE, "params": {**_LINE["params"], "z0_ohm": math.inf}}]),
         r"^device record 1 \('T'\): tline needs finite values"),
        (_doc(devices=[_LOAD, {**_LINE, "params": {**_LINE["params"], "eps_reff": math.inf}}]),
         r"^device record 1 \('T'\): tline needs finite values"),
    ],
    ids=["missing-param", "missing-devices", "n_ports-string", "top-level-list",
         "connection-port-x", "external-port-x", "connection-port-1.9",
         "external-port-2.7", "external-port-true", "z0-infinity", "eps_reff-infinity"],
)
def test_malformed_netlist_document_raises_netlist_error(doc, message):
    with pytest.raises(NetlistError, match=message):
        netlist_from_json(json.dumps(doc))


def test_device_model_port_count_check():
    bad = DeviceModel(
        n_ports=3,
        evaluate=lambda f: np.zeros((len(f), 2, 2)),
    )
    with pytest.raises(ValueError, match="declared"):
        bad.at(F0)


@pytest.mark.parametrize("z_ref", [math.nan, math.inf, 0.0, -50.0, "abc", None, [50], True])
def test_device_model_rejects_bad_reference_impedance(z_ref):
    with pytest.raises(ValueError, match="z_ref"):
        DeviceModel(1, lambda f: np.zeros((1, 1)), params={"z_ref_ohm": z_ref})
