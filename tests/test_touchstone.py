"""Touchstone v1 wire format: exact layout, tolerant parsing, round trips."""

import io
import math

import numpy as np
import pytest

from butlercad.components import ideal_hybrid
from butlercad.errors import TouchstoneError, TouchstoneParseError
from butlercad.sparams import ScatteringMatrix
from butlercad.touchstone import touchstone_convert, touchstone_read, touchstone_write

RNG = np.random.default_rng(99)


def _random_sweep(n_ports, n_freqs, z_ref=50.0):
    out = []
    for k in range(n_freqs):
        m = RNG.normal(size=(n_ports, n_ports)) + 1j * RNG.normal(size=(n_ports, n_ports))
        out.append((1e9 * (k + 1) + 0.5e9, ScatteringMatrix(0.3 * m, z_ref=z_ref)))
    return out


class TestWriting:
    def test_minimal_one_port_file(self):
        sweep = [(5.2e9, ScatteringMatrix(np.zeros((1, 1))))]
        buf = io.StringIO()
        touchstone_write(sweep, 1, "RI", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("! butlercad")
        assert lines[1].startswith("! content-hash")
        assert lines[2] == "# GHz S RI R 50"
        assert lines[3] == "5.2 0 0"
        assert len(lines) == 4

    def test_hybrid_magnitude_in_ma_format(self):
        sweep = [(5.2e9, ideal_hybrid().at(5.2e9))]
        buf = io.StringIO()
        touchstone_write(sweep, 4, "MA", buf)
        body = buf.getvalue()
        # the equal-split entries print as 0.707106781
        assert "0.707106781" in body

    def test_four_port_row_layout(self):
        sweep = [(5.2e9, ideal_hybrid().at(5.2e9))]
        buf = io.StringIO()
        touchstone_write(sweep, 4, "RI", buf)
        data = [ln for ln in buf.getvalue().splitlines() if not ln.startswith(("!", "#"))]
        # one line per matrix row, frequency only on the first
        assert len(data) == 4
        assert data[0].split()[0] == "5.2"
        assert len(data[0].split()) == 9
        assert len(data[1].split()) == 8

    def test_eight_port_wraps_after_four_pairs(self):
        sweep = [(5.2e9, ScatteringMatrix(0.1 * np.ones((8, 8), dtype=complex)))]
        buf = io.StringIO()
        touchstone_write(sweep, 8, "RI", buf)
        data = [ln for ln in buf.getvalue().splitlines() if not ln.startswith(("!", "#"))]
        assert len(data) == 16  # 8 rows x 2 lines
        assert data[0].split()[0] == "5.2"
        assert len(data[0].split()) == 9
        assert all(len(ln.split()) == 8 for ln in data[1:])

    def test_rejects_non_ascending_frequencies(self):
        m = ScatteringMatrix(np.zeros((1, 1)))
        with pytest.raises(TouchstoneError, match="ascending"):
            touchstone_write([(2e9, m), (1e9, m)], 1, "RI", io.StringIO())

    def test_rejects_mixed_port_counts(self):
        sweep = [
            (1e9, ScatteringMatrix(np.zeros((2, 2)))),
            (2e9, ScatteringMatrix(np.zeros((3, 3)))),
        ]
        with pytest.raises(TouchstoneError, match="port"):
            touchstone_write(sweep, 2, "RI", io.StringIO())

    def test_deterministic_bytes(self):
        sweep = _random_sweep(3, 4)
        a, b = io.StringIO(), io.StringIO()
        touchstone_write(sweep, 3, "DB", a)
        touchstone_write(sweep, 3, "DB", b)
        assert a.getvalue() == b.getvalue()


class TestReading:
    def test_minimal_one_port(self):
        buf = io.StringIO("# GHz S RI R 50\n5.2 0 0\n")
        out = touchstone_read(buf, n_ports=1)
        assert len(out) == 1
        f, s = out[0]
        assert f == pytest.approx(5.2e9)
        assert s.s(1, 1) == 0

    def test_db_format_hand_value(self):
        buf = io.StringIO("# GHz S DB R 50\n1.0 -6.0206 45.0\n")
        _, s = touchstone_read(buf, n_ports=1)[0]
        val = s.s(1, 1)
        assert abs(val) == pytest.approx(0.5, abs=1e-5)
        assert math.degrees(np.angle(val)) == pytest.approx(45.0, abs=1e-9)

    def test_option_line_fields_any_order_and_defaults(self):
        buf = io.StringIO("# R 75 DB MHz S\n100 0 0\n")
        f, s = touchstone_read(buf, n_ports=1)[0]
        assert f == pytest.approx(100e6)
        assert s.z_ref == 75.0
        # defaults: GHz, MA, 50 ohm
        buf = io.StringIO("#\n1 0.5 90\n")
        f, s = touchstone_read(buf, n_ports=1)[0]
        assert f == pytest.approx(1e9)
        assert s.z_ref == 50.0
        assert s.s(1, 1) == pytest.approx(0.5j, abs=1e-12)

    def test_comments_ignored(self):
        buf = io.StringIO("! header\n# GHz S RI R 50\n1 0 0 ! trailing note\n")
        assert len(touchstone_read(buf, n_ports=1)) == 1

    def test_two_port_entry_order(self, tmp_path):
        # asymmetric 2-port: the on-disk order is S11 S21 S12 S22
        m = np.array([[0.1, 0.3j], [0.7, -0.2]], dtype=complex)
        path = tmp_path / "amp.s2p"
        touchstone_write([(1e9, ScatteringMatrix(m))], 2, "RI", path)
        body = [
            ln for ln in path.read_text().splitlines()
            if not ln.startswith(("!", "#"))
        ]
        vals = [float(x) for x in body[0].split()[1:]]
        assert vals[0:2] == [0.1, 0.0]  # S11
        assert vals[2:4] == [0.7, 0.0]  # S21 before S12
        back = touchstone_read(path)
        np.testing.assert_allclose(back[0][1].entries, m, atol=1e-9)

    def test_infer_ports_from_extension(self, tmp_path):
        sweep = [(5.2e9, ideal_hybrid().at(5.2e9))]
        path = tmp_path / "hyb.s4p"
        touchstone_write(sweep, 4, "MA", path)
        out = touchstone_read(path)
        assert out[0][1].n_ports == 4

    def test_extension_and_hint_conflict(self, tmp_path):
        path = tmp_path / "x.s2p"
        path.write_text("# GHz S RI R 50\n1 0 0\n")
        with pytest.raises(TouchstoneParseError, match="extension"):
            touchstone_read(path, n_ports=1)

    def test_unknown_port_count(self):
        with pytest.raises(TouchstoneParseError, match="port count"):
            touchstone_read(io.StringIO("# GHz S RI R 50\n1 0 0\n"))

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(TouchstoneParseError, match="line 2"):
            touchstone_read(io.StringIO("# GHz S RI R 50\n1 zero 0\n"), n_ports=1)
        with pytest.raises(TouchstoneParseError, match="line 3"):
            touchstone_read(
                io.StringIO("# GHz S RI R 50\n1 0 0\n# MHz S RI R 50\n"), n_ports=1
            )
        with pytest.raises(TouchstoneParseError, match="line 1"):
            touchstone_read(io.StringIO("# GHz S QQ R 50\n1 0 0\n"), n_ports=1)

    @pytest.mark.parametrize(
        "body",
        ["1 0 0\nnan 0 0\n", "1 0 0\n2 inf 0\n", "1 0 0\n2 0 -inf\n", "nan 0 0\n2 0 0\n"],
    )
    def test_non_finite_values_rejected_with_line_number(self, body):
        bad_line = 2 + next(k for k, ln in enumerate(body.splitlines()) if "n" in ln)
        with pytest.raises(TouchstoneParseError, match=f"line {bad_line}: non-finite"):
            touchstone_read(io.StringIO("# GHz S RI R 50\n" + body), n_ports=1)

    @pytest.mark.parametrize("z", ["nan", "inf", "0", "-50"])
    def test_bad_reference_impedance_rejected_with_line_number(self, z):
        with pytest.raises(TouchstoneParseError, match="line 1: bad impedance"):
            touchstone_read(io.StringIO(f"# GHz S RI R {z}\n1 0 0\n"), n_ports=1)

    def test_arity_mismatch_detected(self):
        # three tokens short of a 2-port record
        with pytest.raises(TouchstoneParseError, match="multiple"):
            touchstone_read(io.StringIO("# GHz S RI R 50\n1 0 0 0 0 0\n"), n_ports=2)


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    @pytest.mark.parametrize("unit", ["Hz", "kHz", "MHz", "GHz"])
    def test_three_port_round_trip(self, fmt, unit):
        sweep = _random_sweep(3, 5)
        buf = io.StringIO()
        touchstone_write(sweep, 3, fmt, buf, unit=unit)
        buf.seek(0)
        back = touchstone_read(buf, n_ports=3)
        assert len(back) == len(sweep)
        for (f0, s0), (f1, s1) in zip(sweep, back):
            assert abs(f1 - f0) <= 1e-9 * f0
            assert np.max(np.abs(s1.entries - s0.entries)) < 1e-9

    def test_butler_eight_port_round_trip(self, tmp_path):
        from butlercad.butler import build_butler_4x4
        from butlercad.network import interconnect

        net = build_butler_4x4("ideal", 5.2e9)
        sweep = [(f, interconnect(net, f)) for f in (4.7e9, 5.2e9, 5.7e9)]
        path = tmp_path / "butler.s8p"
        touchstone_write(sweep, 8, "MA", path)
        back = touchstone_read(path)
        for (f0, s0), (f1, s1) in zip(sweep, back):
            assert np.max(np.abs(s1.entries - s0.entries)) < 1e-9

    def test_convert_changes_format_not_content(self, tmp_path):
        sweep = _random_sweep(2, 3)
        src = tmp_path / "a.s2p"
        dst = tmp_path / "b.s2p"
        touchstone_write(sweep, 2, "RI", src, unit="GHz")
        touchstone_convert(src, dst, fmt="DB", unit="MHz")
        assert "# MHz S DB R 50" in dst.read_text()
        back = touchstone_read(dst)
        for (f0, s0), (f1, s1) in zip(sweep, back):
            assert np.max(np.abs(s1.entries - s0.entries)) < 1e-9
