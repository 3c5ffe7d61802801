"""Touchstone v1 wire format: exact layout, tolerant parsing, round trips."""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from butlercad import __version__, touchstone
from butlercad.components import ideal_hybrid
from butlercad.errors import TouchstoneError, TouchstoneParseError
from butlercad.report import excitation_csv
from butlercad.touchstone import polar, touchstone_convert, touchstone_read, touchstone_write

RNG = np.random.default_rng(99)


def _random_sweep(n_ports, n_freqs):
    shape = (n_freqs, n_ports, n_ports)
    s = 0.3 * (RNG.normal(size=shape) + 1j * RNG.normal(size=shape))
    return 1e9 * np.arange(1, n_freqs + 1) + 0.5e9, s


HYBRID = ideal_hybrid().at(5.2e9)[None]


class TestWriting:
    def test_minimal_one_port_file(self):
        buf = io.StringIO()
        touchstone_write([5.2e9], np.zeros((1, 1, 1)), "RI", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("! butlercad")
        assert lines[1].startswith("! content-hash")
        assert lines[2] == "# GHz S RI R 50"
        assert lines[3] == "5.2 0 0"
        assert len(lines) == 4

    def test_hybrid_magnitude_in_ma_format(self):
        buf = io.StringIO()
        touchstone_write([5.2e9], HYBRID, "MA", buf)
        body = buf.getvalue()
        # the equal-split entries print as 0.707106781
        assert "0.707106781" in body

    def test_four_port_row_layout(self):
        buf = io.StringIO()
        touchstone_write([5.2e9], HYBRID, "RI", buf)
        data = [ln for ln in buf.getvalue().splitlines() if not ln.startswith(("!", "#"))]
        # one line per matrix row, frequency only on the first
        assert len(data) == 4
        assert data[0].split()[0] == "5.2"
        assert len(data[0].split()) == 9
        assert len(data[1].split()) == 8

    def test_eight_port_wraps_after_four_pairs(self):
        buf = io.StringIO()
        touchstone_write([5.2e9], np.full((1, 8, 8), 0.1, dtype=complex), "RI", buf)
        data = [ln for ln in buf.getvalue().splitlines() if not ln.startswith(("!", "#"))]
        assert len(data) == 16  # 8 rows x 2 lines
        assert data[0].split()[0] == "5.2"
        assert len(data[0].split()) == 9
        assert all(len(ln.split()) == 8 for ln in data[1:])

    def test_rejects_non_ascending_frequencies(self):
        with pytest.raises(TouchstoneError, match="ascending"):
            touchstone_write([2e9, 1e9], np.zeros((2, 1, 1)), "RI", io.StringIO())

    def test_rejects_bad_shape_and_empty_sweep(self, tmp_path):
        path = tmp_path / "bad.s2p"
        for freqs, shape in [
            ([1e9, 2e9], (2, 2, 3)),  # not square
            ([1e9, 2e9], (2, 2)),  # no frequency axis
            ([1e9, 2e9], (3, 2, 2)),  # one matrix too many
            ([[1e9, 2e9]], (2, 2, 2)),  # frequencies not a vector
            ([1e9], (1, 0, 0)),  # no ports
        ]:
            with pytest.raises(TouchstoneError, match=r"\(F, n, n\)"):
                touchstone_write(freqs, np.zeros(shape), "RI", path)
        with pytest.raises(TouchstoneError, match="empty sweep"):
            touchstone_write([], np.zeros((0, 2, 2)), "RI", path)
        with pytest.raises(TouchstoneError, match=r"z_ref not in \(0, inf\)"):
            touchstone_write([1e9], np.zeros((1, 2, 2)), "RI", path, z_ref=0.0)
        assert not path.exists()

    @pytest.mark.parametrize("freqs", [[0.0], [-0.0], [-1e9, 1e9], [-2e9, -1e9]])
    def test_rejects_non_positive_frequencies_before_writing(self, tmp_path, freqs):
        path = tmp_path / "bad.s1p"
        with pytest.raises(TouchstoneError, match="positive"):
            touchstone_write(freqs, np.full((len(freqs), 1, 1), 0.1), "RI", path)
        assert not path.exists()

    def test_rejects_frequencies_that_collide_at_nine_digits(self, tmp_path):
        path = tmp_path / "bad.s1p"
        freqs = np.linspace(5e9, 5.0000001e9, 21)  # 5 Hz steps: the 10th digit
        with pytest.raises(TouchstoneError, match="ascending at 9 digits in GHz"):
            touchstone_write(freqs, np.full((21, 1, 1), 0.1), "RI", path)
        assert not path.exists()

    def test_rejects_a_frequency_that_prints_as_zero(self, tmp_path):
        path = tmp_path / "bad.s1p"
        with pytest.raises(TouchstoneError, match="positive .* in GHz"):
            touchstone_write([1e-320, 1.0], np.full((2, 1, 1), 0.1), "RI", path)
        assert not path.exists()
        touchstone_write([1e-320, 1.0], np.full((2, 1, 1), 0.1), "RI", path, unit="Hz")
        assert touchstone_read(path)[0][0] > 0  # printed as 9.99988671e-321 Hz

    @pytest.mark.parametrize(
        "f, entry, z_ref",
        [(math.nan, 0.1, 50.0), (math.inf, 0.1, 50.0), (2e9, complex(math.nan, 0), 50.0),
         (2e9, complex(0, math.inf), 50.0), (2e9, 0.1, math.nan), (2e9, 0.1, math.inf)],
    )
    def test_rejects_non_finite_before_writing(self, tmp_path, f, entry, z_ref):
        s = np.full((2, 2, 2), 0.1, dtype=complex)
        s[1, 1, 0] = entry
        path = tmp_path / "bad.s2p"
        with pytest.raises(TouchstoneError, match="non-finite"):
            touchstone_write([1e9, f], s, "RI", path, z_ref=z_ref)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["MA", "DB"])
    def test_magnitude_overflow_is_a_touchstone_error(self, fmt):
        with pytest.raises(TouchstoneError, match=f"overflows in {fmt}"):
            touchstone_write([1e9], np.full((1, 1, 1), 1.7e308 + 1.7e308j), fmt, io.StringIO())

    def test_deterministic_bytes(self):
        freqs, s = _random_sweep(3, 4)
        a, b = io.StringIO(), io.StringIO()
        touchstone_write(freqs, s, "DB", a)
        touchstone_write(freqs, s, "DB", b)
        assert a.getvalue() == b.getvalue()


class TestReading:
    def test_minimal_one_port(self):
        buf = io.StringIO("# GHz S RI R 50\n5.2 0 0\n")
        freqs, s, z_ref = touchstone_read(buf, n_ports=1)
        assert freqs.shape == (1,) and s.shape == (1, 1, 1)
        assert freqs[0] == pytest.approx(5.2e9)
        assert s[0, 0, 0] == 0
        assert z_ref == 50.0

    def test_db_format_hand_value(self):
        buf = io.StringIO("# GHz S DB R 50\n1.0 -6.0206 45.0\n")
        val = touchstone_read(buf, n_ports=1)[1][0, 0, 0]
        assert abs(val) == pytest.approx(0.5, abs=1e-5)
        assert math.degrees(np.angle(val)) == pytest.approx(45.0, abs=1e-9)

    def test_option_line_fields_any_order_and_defaults(self):
        buf = io.StringIO("# R 75 DB MHz S\n100 0 0\n")
        freqs, _, z_ref = touchstone_read(buf, n_ports=1)
        assert freqs[0] == pytest.approx(100e6)
        assert z_ref == 75.0
        # defaults: GHz, MA, 50 ohm
        buf = io.StringIO("#\n1 0.5 90\n")
        freqs, s, z_ref = touchstone_read(buf, n_ports=1)
        assert freqs[0] == pytest.approx(1e9)
        assert z_ref == 50.0
        assert s[0, 0, 0] == pytest.approx(0.5j, abs=1e-12)

    def test_comments_ignored(self):
        buf = io.StringIO("! header\n# GHz S RI R 50\n1 0 0 ! trailing note\n")
        assert len(touchstone_read(buf, n_ports=1)[0]) == 1

    def test_two_port_entry_order(self, tmp_path):
        # asymmetric 2-port: the on-disk order is S11 S21 S12 S22
        m = np.array([[0.1, 0.3j], [0.7, -0.2]], dtype=complex)
        path = tmp_path / "amp.s2p"
        touchstone_write([1e9], m[None], "RI", path)
        body = [
            ln for ln in path.read_text().splitlines()
            if not ln.startswith(("!", "#"))
        ]
        vals = [float(x) for x in body[0].split()[1:]]
        assert vals[0:2] == [0.1, 0.0]  # S11
        assert vals[2:4] == [0.7, 0.0]  # S21 before S12
        np.testing.assert_allclose(touchstone_read(path)[1][0], m, atol=1e-9)

    def test_infer_ports_from_extension(self, tmp_path):
        path = tmp_path / "hyb.s4p"
        touchstone_write([5.2e9], HYBRID, "MA", path)
        assert touchstone_read(path)[1].shape == (1, 4, 4)

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

    def test_frequency_overflowing_once_scaled_names_its_line(self):
        text = "# GHz S RI R 50\n1 0 0\n1e300 0 0\n"
        with pytest.raises(TouchstoneParseError, match="line 3: frequency 1e[+]300 overflows"):
            touchstone_read(io.StringIO(text), n_ports=1)

    @pytest.mark.parametrize("z", ["nan", "inf", "0", "-50"])
    def test_bad_reference_impedance_rejected_with_line_number(self, z):
        with pytest.raises(TouchstoneParseError, match="line 1: bad impedance"):
            touchstone_read(io.StringIO(f"# GHz S RI R {z}\n1 0 0\n"), n_ports=1)

    def test_non_ascending_frequency_names_the_line_of_its_record(self):
        # three-port records span three lines, so the second starts on line 5
        record = "{} 0 0 0 0 0 0\n0 0 0 0 0 0\n0 0 0 0 0 0\n"
        text = "# GHz S RI R 50\n" + record.format(2) + record.format(1)
        with pytest.raises(TouchstoneParseError, match="line 5: frequency not ascending"):
            touchstone_read(io.StringIO(text), n_ports=3)
        # a record may also start in the middle of a line
        text = "# GHz S RI R 50\n1 0 0\n2 0 0 1.5 0 0\n"
        with pytest.raises(TouchstoneParseError, match="line 3: frequency not ascending"):
            touchstone_read(io.StringIO(text), n_ports=1)

    @pytest.mark.parametrize(
        "body, line, token",
        [("-1 0.5 0\n0 0.5 0\n", 2, "-1.0"), ("! note\n0 0 0\n", 3, "0.0"),
         ("1 0 0\n-0.0 0 0\n", 3, "-0.0")],
    )
    def test_non_positive_frequency_names_the_line_of_its_record(self, body, line, token):
        message = f"line {line}: frequency {token} is not positive"
        with pytest.raises(TouchstoneParseError, match=message):
            touchstone_read(io.StringIO("# GHz S RI R 50\n" + body), n_ports=1)

    def test_arity_mismatch_detected(self):
        # three tokens short of a 2-port record
        with pytest.raises(TouchstoneParseError, match="multiple"):
            touchstone_read(io.StringIO("# GHz S RI R 50\n1 0 0 0 0 0\n"), n_ports=2)


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    @pytest.mark.parametrize("unit", ["Hz", "kHz", "MHz", "GHz"])
    def test_three_port_round_trip(self, fmt, unit):
        freqs, s = _random_sweep(3, 5)
        buf = io.StringIO()
        touchstone_write(freqs, s, fmt, buf, unit=unit)
        buf.seek(0)
        f_back, s_back, _ = touchstone_read(buf, n_ports=3)
        assert s_back.shape == s.shape
        assert np.all(np.abs(f_back - freqs) <= 1e-9 * freqs)
        assert np.max(np.abs(s_back - s)) < 1e-9

    def test_butler_eight_port_round_trip(self, tmp_path):
        from butlercad.butler import build_butler_4x4
        from butlercad.network import interconnect

        net = build_butler_4x4("ideal", 5.2e9)
        freqs = np.array([4.7e9, 5.2e9, 5.7e9])
        s = np.array([interconnect(net, f) for f in freqs])
        path = tmp_path / "butler.s8p"
        touchstone_write(freqs, s, "MA", path)
        assert np.max(np.abs(touchstone_read(path)[1] - s)) < 1e-9

    def test_convert_changes_format_not_content(self, tmp_path):
        freqs, s = _random_sweep(2, 3)
        src = tmp_path / "a.s2p"
        dst = tmp_path / "b.s2p"
        touchstone_write(freqs, s, "RI", src, unit="GHz", z_ref=75.0)
        touchstone_convert(src, dst, fmt="DB", unit="MHz")
        assert "# MHz S DB R 75" in dst.read_text()
        assert np.max(np.abs(touchstone_read(dst)[1] - s)) < 1e-9


@settings(max_examples=60, deadline=None, database=None)
@given(
    data=st.data(),
    n=st.integers(1, 10),
    fmt=st.sampled_from(["RI", "MA", "DB"]),
    unit=st.sampled_from(["Hz", "kHz", "MHz", "GHz"]),
    f_first=st.floats(1e3, 1e11),
    n_freqs=st.integers(1, 3),
)
def test_write_read_round_trip_property(data, n, fmt, unit, f_first, n_freqs):
    entry = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    freqs = f_first * (1.0 + 0.01 * np.arange(n_freqs))
    s = data.draw(arrays(complex, (n_freqs, n, n), elements=entry))
    first, second = io.StringIO(), io.StringIO()
    touchstone_write(freqs, s, fmt, first, unit=unit)
    touchstone_write(freqs, s, fmt, second, unit=unit)
    assert first.getvalue() == second.getvalue()

    data_lines = [
        ln for ln in first.getvalue().splitlines() if not ln.startswith(("!", "#"))
    ]
    per_freq = 1 if n <= 2 else n * -(-n // 4)  # rows wrap after four pairs
    assert len(data_lines) == n_freqs * per_freq
    assert all(len(ln.split()) <= 9 for ln in data_lines)

    f_back, s_back, _ = touchstone_read(io.StringIO(first.getvalue()), n_ports=n)
    assert s_back.shape == s.shape
    # frequencies carry 9 significant digits
    assert np.all(np.abs(f_back - freqs) <= 5e-9 * freqs)
    assert np.max(np.abs(s_back - s)) <= 1e-9


_MAGNITUDE = st.floats(1e-300, 1e3) | st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(1.0, 9.99), st.integers(-300, 2),
)
_PART = st.sampled_from([0.0, -0.0]) | st.builds(
    lambda negative, mag: -mag if negative else mag, st.booleans(), _MAGNITUDE
)
_ENTRY = st.builds(complex, _PART, _PART)


@settings(max_examples=150, deadline=None, database=None)
@given(
    data=st.data(),
    n=st.sampled_from([1, 2, 3, 4, 8]),
    n_freqs=st.integers(1, 3),
    f_first=st.floats(1e3, 1e11),
    fmt=st.sampled_from(["RI", "MA", "DB"]),
    unit=st.sampled_from(["Hz", "kHz", "MHz", "GHz"]),
    z_ref=st.sampled_from([50.0, 75.0, 33.3]),
)
def test_array_code_matches_entry_by_entry_serialization(
    data, n, n_freqs, f_first, fmt, unit, z_ref
):
    freqs = f_first * (1.0 + 0.01 * np.arange(n_freqs))
    s = data.draw(arrays(complex, (n_freqs, n, n), elements=_ENTRY))
    if fmt != "RI":  # full precision first: most last-bit slips vanish in 12 digits
        fields = np.array([oracles.touchstone_pair(v, fmt) for v in s.ravel().tolist()])
        mag, angle = polar(s, db=fmt == "DB")
        assert mag.ravel().tobytes() == fields[:, 0].tobytes()
        assert angle.ravel().tobytes() == fields[:, 1].tobytes()
    buf = io.StringIO()
    touchstone_write(freqs, s, fmt, buf, unit=unit, z_ref=z_ref)
    text = buf.getvalue()
    assert text == oracles.touchstone_text(freqs, s, fmt, unit, z_ref, __version__)

    got = touchstone_read(io.StringIO(text), n_ports=n)
    want = oracles.touchstone_values(text, n)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
    assert got[1].shape == want[1].shape and got[2] == want[2]


@settings(max_examples=100, deadline=None, database=None)
@given(
    data=st.data(),
    n=st.sampled_from([1, 2, 3]),
    n_freqs=st.integers(1, 3),
    fmt=st.sampled_from(["RI", "MA", "DB"]),
    unit=st.sampled_from(["Hz", "kHz", "MHz", "GHz"]),
)
def test_reader_matches_entry_by_entry_reader_on_any_fields(data, n, n_freqs, fmt, unit):
    # fields a writer would not produce: negative magnitudes, angles past a
    # turn, signed zeros; dB values stay below the overflow at about 6165 dB
    field = st.floats(-6000.0, 6000.0) | st.sampled_from([0.0, -0.0])
    lines = [f"# {unit} S {fmt} R 50"]
    for k in range(n_freqs):
        fields = data.draw(st.lists(field, min_size=2 * n * n, max_size=2 * n * n))
        lines.append(" ".join(map(repr, [1.0 + k, *fields])))
    text = "\n".join(lines) + "\n"
    got = touchstone_read(io.StringIO(text), n_ports=n)
    want = oracles.touchstone_values(text, n)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]


_OUTPUTS = ("A1", "A2", "A3", "A4")


def _waves(n_freqs: int, seed: int) -> np.ndarray:
    """(F, 4, 4) waves whose parts mix 1e-300..1e3 magnitudes with 0.0, -0.0 and denormals."""
    rng = np.random.default_rng(seed)
    shape = (2, n_freqs, 4, 4)
    parts = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 4, size=shape)
    kind = rng.integers(0, 5, size=shape)
    parts[kind == 1] = 0.0
    parts[kind == 2] = -0.0
    denormal = rng.uniform(-2.2e-308, 2.2e-308, size=shape)
    parts[kind == 3] = denormal[kind == 3]
    waves = np.empty(shape[1:], dtype=complex)
    waves.real, waves.imag = parts  # not parts[0] + 1j * parts[1], which loses -0.0
    return waves


@settings(max_examples=100, deadline=None, database=None)
@given(
    amps=arrays(complex, st.tuples(st.integers(0, 10), st.just(4)), elements=_ENTRY),
    freq=st.floats(1e3, 1e11),
)
def test_excitation_csv_matches_entry_by_entry_rows(amps, freq):
    frequencies = np.float64(freq) * (1 + np.arange(len(amps)))
    s = np.zeros((len(amps), 8, 8), dtype=complex)
    s[:, 4:, 0] = amps
    rows = [("1R", f, _OUTPUTS[k], a) for f, row in zip(frequencies, amps) for k, a in enumerate(row)]
    buf = io.StringIO()
    excitation_csv((frequencies, s), buf, ("1R",))
    assert buf.getvalue() == oracles.excitation_csv_text(rows)


@settings(max_examples=100, deadline=None, database=None)
@given(
    n_freqs=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    ports=st.permutations(("1R", "2L", "2R", "1L")).flatmap(
        lambda order: st.integers(1, 4).map(lambda k: tuple(order[:k]))
    ),
    f_first=st.floats(1e3, 1e11),
)
def test_excitation_csv_matches_rows_restated_from_the_stack(n_freqs, seed, ports, f_first):
    frequencies = f_first * (1.0 + 0.01 * np.arange(n_freqs))
    s = np.full((n_freqs, 8, 8), np.nan, dtype=complex)  # only S[A1..A4, inputs] is read
    s[:, 4:, :4] = _waves(n_freqs, seed)
    rows = [
        (port, f, out, m[4 + k, ("1R", "2L", "2R", "1L").index(port)])
        for f, m in zip(frequencies, s)
        for port in ports
        for k, out in enumerate(_OUTPUTS)
    ]
    buf = io.StringIO()
    excitation_csv((frequencies, s), buf, ports)
    assert buf.getvalue() == oracles.excitation_csv_text(rows)


# --- the slab reader -----------------------------------------------------------
#
# A document as wide as the whole text has a ``#`` option line, so its one
# slab is read line by line: the reader the slabs must reproduce.

_BREAKS = ("\n", "\r", "\r\n", "\f")


@st.composite
def _document(draw):
    """(lines, port count, slab size) of a well-formed document laid out oddly."""
    n = draw(st.sampled_from([1, 2]))
    fmt = draw(st.sampled_from(["RI", "MA", "DB"]))
    field = st.floats(-300.0, 300.0) | st.sampled_from([0.0, -0.0, 5e-324])
    tokens = []
    for k in range(draw(st.integers(1, 12))):
        tokens.append(repr(1.0 + k))
        tokens += map(repr, draw(st.lists(field, min_size=2 * n * n, max_size=2 * n * n)))
    option = draw(st.sampled_from(
        ["# GHz S {} R 50", "  # MHz S {} R 75", "#GHz S {} R 50", "\t#hz s {} r 33.3 ! options"]
    ))
    lines = draw(st.lists(st.sampled_from(["", " ", "! header"]), max_size=3))
    lines.append(option.format(fmt))
    while tokens:
        take = draw(st.integers(1, 4))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        tail = draw(st.sampled_from(["", " ", " ! note", "!note"]))
        lines.append(lead + " ".join(tokens[:take]) + tail)
        del tokens[:take]
        lines += draw(st.lists(st.sampled_from(["", "   ", "! note"]), max_size=1))
    return lines, n, draw(st.integers(1, 6))


def _join(draw, lines):
    return "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), doc=_document())
def test_slab_reader_matches_entry_by_entry_reader(data, doc):
    lines, n, slab = doc
    text = _join(data.draw, lines)
    want = oracles.touchstone_values(text, n)
    with mock.patch.object(touchstone, "SLAB", slab):
        got = touchstone_read(io.StringIO(text), n_ports=n)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
    assert got[2] == want[2]


@settings(max_examples=150, deadline=None, database=None)
@given(
    data=st.data(),
    doc=_document(),
    fault=st.sampled_from(["zero", "nan", "#x", "# GHz", "1 0 0 0", "! note", "1_0"]),
    edge=st.integers(0, 4),
    offset=st.sampled_from([-1, 0, 1]),
)
def test_slab_reader_fails_as_the_line_by_line_reader(data, doc, fault, edge, offset):
    lines, n, slab = doc
    at = min(max(edge * slab + offset, 0), len(lines))  # a line at or next to a slab edge
    lines.insert(at, fault)
    text = _join(data.draw, lines)

    def read(size):
        with mock.patch.object(touchstone, "SLAB", size):
            try:
                return [a.tobytes() for a in touchstone_read(io.StringIO(text), n_ports=n)[:2]]
            except TouchstoneParseError as e:
                return str(e)

    assert read(slab) == read(len(text) + 1)


H = "# GHz S RI R 50\n"


def _records(first, stop):
    return "".join(f"{k} 0.5 -0.25\n" for k in range(first, stop))


# each message and line number as the line by line reader gives them
MALFORMED = [
    (H + "1 zero 0\n", 1, "line 2: non-numeric token 'zero'"),
    ("! a\n" + H + _records(1, 3) + "# MHz S RI R 50\n", 1, "line 5: second option line"),
    ("# GHz S QQ R 50\n1 0 0\n", 1, "line 1: bad option token 'QQ'"),
    ("# GHz Y RI R 50\n1 0 0\n", 1, "line 1: unsupported parameter type Y"),
    ("# GHz S RI R\n1 0 0\n", 1, "line 1: R with no impedance"),
    ("# GHz S RI R fifty\n1 0 0\n", 1, "line 1: bad impedance 'fifty'"),
    (H + _records(1, 4) + "4 nan 0\n", 1, "line 5: non-finite value 'nan'"),
    (H + "1 0 0\n2 0 0\n0.5 0 0\n", 1, "line 4: frequency not ascending (arity mismatch?)"),
    (H + "0 0 0\n", 1, "line 2: frequency 0.0 is not positive"),
    (H + "1 0 0 0 0 0\n", 2, "token count 6 is not a multiple of 9 expected for 2 ports"),
    ("# GHz S DB R 50\n1 1e4 0\n", 1,
     "line 2: entry overflows in the record starting on this line"),
    (H + "1 0 0\n1e300 0 0\n", 1, "line 3: frequency 1e+300 overflows once scaled to Hz"),
    (H + "1 0 0 ! ok\n2 0 0 0\n", 1, "token count 7 is not a multiple of 3 expected for 1 ports"),
    (H + _records(1, 127) + "127 0.5 x\n", 1, "line 128: non-numeric token 'x'"),
    (H + _records(1, 128) + "128 0.5 x\n", 1, "line 129: non-numeric token 'x'"),
    (H + _records(1, 129) + "129 0.5 x\n", 1, "line 130: non-numeric token 'x'"),
    (H + _records(1, 255) + "255 0.5 -0.25 ! c\n256 zero 0\n", 1,
     "line 257: non-numeric token 'zero'"),
    (H + _records(1, 200) + "200 inf 0\n201 zero 0\n", 1, "line 201: non-finite value 'inf'"),
    (H + _records(1, 200) + "200 0 0 oops\n201 inf 0\n", 1,
     "line 201: non-numeric token 'oops'"),
    (H + _records(1, 130) + "# MHz\n", 1, "line 131: second option line"),
    (H + _records(1, 130) + "130 0.5 #0\n", 1, "line 131: non-numeric token '#0'"),
    (H + _records(1, 300) + "1_0 0 0\n", 1, "line 301: frequency not ascending (arity mismatch?)"),
    (H + _records(1, 140) + " x 0 0\n", 1, "line 141: non-numeric token 'x'"),
    (H + _records(1, 140).replace("\n", "\r\n") + "140 0 0\r\n139 0 0\f", 1,
     "line 142: frequency not ascending (arity mismatch?)"),
    (H + _records(1, 133) + "133 0.5", 1,
     "token count 398 is not a multiple of 3 expected for 1 ports"),
]


@pytest.mark.parametrize("slab", [1, 2, 3, touchstone.SLAB])
@pytest.mark.parametrize("text, n, message", MALFORMED, ids=[m for _, _, m in MALFORMED])
def test_malformed_documents_keep_their_message_and_line(text, n, message, slab):
    with mock.patch.object(touchstone, "SLAB", slab):
        with pytest.raises(TouchstoneParseError) as e:
            touchstone_read(io.StringIO(text), n_ports=n)
    assert str(e.value) == message


def test_reading_a_long_sweep_stays_small(tmp_path):
    from butlercad import build_butler_4x4, interconnect

    frequencies = np.linspace(1e9, 10e9, 1001)
    path = tmp_path / "sweep.s8p"
    touchstone_write(frequencies, interconnect(build_butler_4x4("ideal", 5.2e9), frequencies),
                     "DB", path)
    touchstone_read(path)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        touchstone_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the line by line reader peaks at 6.72 MB on this file
    assert peak <= 6.72e6
