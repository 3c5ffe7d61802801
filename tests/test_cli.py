"""Command-line surface: outputs, determinism, scenario files, diagnostics."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butlercad.beams import array_factor, default_angle_grid, half_wave_geometry
from butlercad.butler import build_butler_4x4, excitation_table
from butlercad.cli import CliError, main, parse_frequency, parse_length
from butlercad.errors import TouchstoneError
from butlercad.touchstone import touchstone_read, touchstone_write

DESIGN_ARGS = ["design", "--freq", "5.2GHz", "--er", "4.9", "--h", "1.6mm"]


class TestUnitParsing:
    @pytest.mark.parametrize(
        "text,expect",
        [("5.2GHz", 5.2e9), ("5200MHz", 5.2e9), ("250khz", 2.5e5), ("42", 42.0), (3.3, 3.3)],
    )
    def test_frequency(self, text, expect):
        assert parse_frequency(text) == pytest.approx(expect)

    @pytest.mark.parametrize(
        "text,expect",
        [("1.6mm", 1.6e-3), ("0.0016", 1.6e-3), ("16cm", 0.16), ("1600um", 1.6e-3)],
    )
    def test_length(self, text, expect):
        assert parse_length(text) == pytest.approx(expect)

    @pytest.mark.parametrize("text", ["1e999", "1e999GHz", "1e308GHz", float("nan")])
    def test_non_finite_is_rejected(self, text):
        with pytest.raises(CliError, match="not finite"):
            parse_frequency(text)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        text=st.one_of(
            st.text("0123456789+-.eE \tGHzkMmcuil", max_size=14),
            st.builds(
                "{}{}".format,
                st.floats(),
                st.sampled_from(["", "Hz", "kHz", "MHz", "GHz", "m", "cm", "mm", "um", "mil"]),
            ),
        ),
        flag=st.sampled_from(["design --freq", "design --h", "pattern --f0", "pattern --spacing"]),
    )
    def test_unit_string_fuzz_is_success_or_one_line(self, text, flag):
        command, name = flag.split()
        base = {
            "design": {"--freq": "5.2GHz", "--er": "4.9", "--h": "1.6mm"},
            "pattern": {"--port": "1R", "--f0": "5.2GHz", "--step": "1"},
        }[command]
        argv = [command] + [f"{key}={value}" for key, value in {**base, name: text}.items()]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        if rc == 0:
            assert err.getvalue() == ""
        else:
            assert rc == 2
            assert err.getvalue().count("\n") == 1, err.getvalue()

    def test_bad_unit_is_one_line_error(self, capsys):
        rc = main(["design", "--freq", "5.2parsec", "--er", "4.9", "--h", "1.6mm"])
        captured = capsys.readouterr()
        assert rc != 0
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("butlercad: error:")


class TestDesignCommand:
    def test_table_contains_reference_dimensions(self, capsys):
        assert main(DESIGN_ARGS) == 0
        out = capsys.readouterr().out
        assert "2.820 mm" in out      # 50 ohm width
        assert "4.861 mm" in out      # series arm width
        assert "16.783 mm" in out     # patch width
        assert "-45.00 deg" in out    # progression column

    def test_json_report_values(self, tmp_path, capsys):
        rc = main(DESIGN_ARGS + ["--json-out", str(tmp_path / "rep.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "rep.json").read_text())
        lines = {entry["role"]: entry for entry in doc["microstrip_lines"]}
        w50 = lines["feed / hybrid shunt arm, quarter-wave"]["width_m"]
        assert w50 == pytest.approx(2.8e-3, rel=0.05)
        assert doc["patch"]["width_m"] == pytest.approx(16.8e-3, rel=0.01)
        assert doc["beam_table"]["1R"]["beam_angle_deg"] == pytest.approx(14.48, abs=0.01)

    def test_air_substrate_has_unit_permittivity_everywhere(self, tmp_path):
        rc = main(
            ["design", "--freq", "5.2GHz", "--er", "1.0", "--h", "1.6mm",
             "--json-out", str(tmp_path / "air.json")]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "air.json").read_text())
        for entry in doc["microstrip_lines"]:
            assert entry["eps_reff"] == pytest.approx(1.0, abs=1e-12)
        assert doc["patch"]["eps_reff"] == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(DESIGN_ARGS + ["--json-out", str(a)]) == 0
        assert main(DESIGN_ARGS + ["--json-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_flag_is_single_diagnostic(self, capsys):
        rc = main(["design", "--er", "4.9", "--h", "1.6mm"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "butlercad: error: missing required option --freq\n"

    def test_design_range_failure_names_component(self, capsys):
        # patch synthesis has no valid length this far out of band
        rc = main(["design", "--freq", "100GHz", "--er", "10", "--h", "5mm"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("\n") == 1
        assert "patch" in captured.err

    def test_height_overflowing_the_fringing_formula_is_one_line(self, tmp_path, capsys):
        rc = main(["design", "--freq", "5.2GHz", "--er", "4.9", "--h", "5e-324",
                   "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "butlercad: error: patch fringing extension dL/h = 0.412 (eps + 0.3)(W/h + 0.264)"
            " / [(eps - 0.258)(W/h + 0.8)] is not finite at h = 5e-324 m\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestScenario:
    def test_scenario_supplies_flags(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"freq": "5.2GHz", "er": 4.9, "h": "1.6mm"}))
        assert main(["design", "--scenario", str(scen)]) == 0
        assert "16.783 mm" in capsys.readouterr().out

    def test_flags_override_scenario(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"freq": "5.2GHz", "er": 4.9, "h": "1.6mm"}))
        assert main(["design", "--scenario", str(scen), "--er", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "er=1" in out

    def test_format_key_reaches_the_touchstone_writer(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(
            {"format": "DB", "fidelity": "ideal", "f0": "5.2GHz", "f-start": "5GHz",
             "f-stop": "5.4GHz", "n-points": 3}
        ))
        assert main(["butler", "--scenario", str(scen), "--outdir", str(tmp_path)]) == 0
        text = (tmp_path / "butler_ideal.s8p").read_text()
        assert "# GHz S DB R 50" in text.splitlines()

    @pytest.mark.parametrize("doc", [{"fstart": "1GHz"}, {"freq": "5.2GHz"}])
    def test_unknown_key_names_key_and_subcommand(self, tmp_path, capsys, doc):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        rc = main(
            ["butler", "--scenario", str(scen), "--f0", "5.2GHz", "--f-start", "5GHz",
             "--f-stop", "5.4GHz", "--n-points", "3", "--outdir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("butlercad: error:")
        assert repr(next(iter(doc))) in err and "butler" in err
        assert not (tmp_path / "butler_ideal.s8p").exists()

    @pytest.mark.parametrize(
        "doc", [{"er": [4.9]}, {"er": {"value": 4.9}}, {"er": True}, {"er": False}]
    )
    def test_value_of_wrong_type_is_one_line(self, tmp_path, capsys, doc):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"freq": "5.2GHz", "h": "1.6mm", **doc}))
        rc = main(["design", "--scenario", str(scen)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("butlercad: error: --er")

    @pytest.mark.parametrize("argv, message", [
        (["butler", "--fidelity", "ideal", "--f0", "5.2GHz", "--f-start", "5GHz",
          "--f-stop", "5.4GHz", "--n-points", "3", "--er", "nan"],
         "--er: must be a finite number, got 'nan'"),
        (DESIGN_ARGS + ["--er=-inf"], "--er: must be a finite number, got '-inf'"),
        (DESIGN_ARGS + ["--edge-resistance", "inf"],
         "--edge-resistance: must be a finite number, got 'inf'"),
    ], ids=["unused-er", "er", "edge-resistance"])
    def test_non_finite_number_is_one_line(self, tmp_path, capsys, argv, message):
        rc = main(argv + ["--outdir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"butlercad: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_malformed_scenario(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text("[1, 2]")
        rc = main(["design", "--scenario", str(scen)])
        assert rc == 2
        assert "scenario" in capsys.readouterr().err


class TestButlerCommand:
    def test_writes_three_artifacts(self, tmp_path, capsys):
        rc = main(
            ["butler", "--fidelity", "ideal", "--f0", "5.2GHz",
             "--f-start", "4.7GHz", "--f-stop", "5.7GHz", "--n-points", "5",
             "--outdir", str(tmp_path)]
        )
        assert rc == 0
        s8p = tmp_path / "butler_ideal.s8p"
        exc = tmp_path / "butler_ideal_excitations.csv"
        beams_csv = tmp_path / "butler_ideal_beams.csv"
        assert s8p.exists() and exc.exists() and beams_csv.exists()

        s = touchstone_read(s8p)[1]
        assert s.shape == (5, 8, 8)
        coupling_db = 20 * np.log10(np.abs(s[2, 4:, :4]))
        assert np.max(np.abs(coupling_db + 6.0206)) < 0.01

        rows = exc.read_text().splitlines()
        assert rows[0] == "input_port,frequency_hz,output_port,magnitude_db,phase_deg"
        assert len(rows) == 1 + 5 * 4 * 4

        beam_rows = beams_csv.read_text().splitlines()
        assert beam_rows[0] == "input_port,progression_deg,beam_angle_deg"
        table = {r.split(",")[0]: r.split(",")[1:] for r in beam_rows[1:]}
        assert float(table["1R"][0]) == pytest.approx(-45.0, abs=1e-6)
        assert float(table["1R"][1]) == pytest.approx(14.4775, abs=1e-3)
        assert float(table["2L"][1]) == pytest.approx(-48.5904, abs=1e-3)

    def test_port_selection(self, tmp_path):
        rc = main(
            ["butler", "--fidelity", "ideal", "--f0", "5.2GHz",
             "--f-start", "5GHz", "--f-stop", "5.4GHz", "--n-points", "2",
             "--ports", "1R,2L", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "butler_ideal_excitations.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 4

    @pytest.mark.parametrize("ports, message", [
        ("", "--ports: no input port given"),
        (" , ", "--ports: no input port given"),
        ("1R,1R", "--ports: input port 1R given twice"),
        ("2L,1R,2l", "--ports: input port 2L given twice"),
    ], ids=["empty", "only-commas", "repeated", "repeated-other-case"])
    def test_empty_or_repeated_ports_are_one_line(self, tmp_path, capsys, ports, message):
        rc = main(
            ["butler", "--fidelity", "ideal", "--f0", "5.2GHz",
             "--f-start", "5GHz", "--f-stop", "5.4GHz", "--n-points", "2",
             "--ports", ports, "--outdir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"butlercad: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_circuit_fidelity_run(self, tmp_path):
        rc = main(
            ["butler", "--fidelity", "circuit", "--er", "4.9", "--h", "1.6mm",
             "--f0", "5.2GHz", "--f-start", "5.1GHz", "--f-stop", "5.3GHz",
             "--n-points", "3", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        s = touchstone_read(tmp_path / "butler_circuit.s8p")[1]
        coupling_db = 20 * np.log10(np.abs(s[1, 4:, :4]))  # exactly f0
        assert np.max(np.abs(coupling_db + 6.0206)) < 0.5

    def test_outputs_are_deterministic(self, tmp_path):
        args = ["butler", "--fidelity", "ideal", "--f0", "5.2GHz",
                "--f-start", "5GHz", "--f-stop", "5.4GHz", "--n-points", "3"]
        for sub in ("one", "two"):
            assert main(args + ["--outdir", str(tmp_path / sub)]) == 0
        for name in ("butler_ideal.s8p", "butler_ideal_excitations.csv",
                     "butler_ideal_beams.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name

    def test_nested_resonance_names_device_and_frequency(self, tmp_path, capsys):
        # the branch-line rings of HA..HD resonate at twice the design frequency
        rc = main(
            ["butler", "--fidelity", "circuit", "--er", "4.9", "--h", "1.6mm",
             "--f0", "5.2GHz", "--f-start", "10GHz", "--f-stop", "10.8GHz",
             "--n-points", "3", "--outdir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert err.startswith("butlercad: error: HA: ")
        assert "resonant loop at 10.4 GHz" in err

    def test_sweep_finer_than_nine_digits_is_one_line(self, tmp_path, capsys):
        # 5 Hz steps print as repeated 9-digit GHz frequencies
        rc = main(
            ["butler", "--fidelity", "ideal", "--f0", "5GHz", "--f-start", "5GHz",
             "--f-stop", "5.0000001GHz", "--n-points", "21", "--outdir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "strictly ascending at 9 digits in GHz" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message", [
        "Unable to allocate 745. GiB for an array with shape (100000000000,) "
        "and data type float64",
        "",
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch, message):
        def allocate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(np, "linspace", allocate)  # nothing is allocated for real
        rc = main(
            ["butler", "--fidelity", "ideal", "--f0", "5.2GHz", "--f-start", "5GHz",
             "--f-stop", "5.4GHz", "--n-points", "100000000000", "--outdir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"butlercad: error: {message or 'MemoryError'}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_points, message", [
        ("9223372036854775808", "a sweep of 9.22337e+18 points is beyond any array's size"),
        (1e300, "a sweep of 1e+300 points is beyond any array's size"),
        (4.9, "--n-points: must be a whole number, got 4.9"),
        (True, "--n-points: scenario value True is not a number or a string"),
    ], ids=["past-int64", "json-1e300", "json-fraction", "json-bool"])
    def test_point_count_no_array_holds_is_one_line(self, tmp_path, capsys, n_points, message):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"n-points": n_points}))
        rc = main(
            ["butler", "--fidelity", "ideal", "--f0", "5.2GHz", "--f-start", "5GHz",
             "--f-stop", "5.4GHz", "--scenario", str(scen), "--outdir", str(tmp_path / "out")]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"butlercad: error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_sweep_rejected(self, capsys):
        rc = main(
            ["butler", "--fidelity", "ideal", "--f0", "5.2GHz",
             "--f-start", "5.7GHz", "--f-stop", "4.7GHz", "--n-points", "5"]
        )
        assert rc == 2
        assert "f_start" in capsys.readouterr().err


class TestNonFiniteValues:
    @pytest.mark.filterwarnings("error")  # a leaked numpy warning fails the test
    @pytest.mark.parametrize(
        "argv",
        [
            ["pattern", "--port", "1R", "--f0", "1e-320"],
            ["pattern", "--port", "1R", "--f0", "5.2GHz", "--spacing", "1e999mm"],
            ["butler", "--fidelity", "ideal", "--f0", "5.2GHz", "--f-start", "1GHz",
             "--f-stop", "1e999", "--n-points", "3"],
            ["butler", "--fidelity", "circuit", "--er", "4.9", "--h", "1.6mm",
             "--f0", "5.2GHz", "--f-start", "1e-320", "--f-stop", "1GHz",
             "--n-points", "3"],
            ["pattern", "--port", "1R", "--f0", "0"],
            ["pattern", "--port", "1R", "--f0", "1.5e308"],
        ],
        ids=["tiny-f0", "infinite-spacing", "infinite-f-stop", "denormal-f-start",
             "zero-f0", "overflowing-wavenumber"],
    )
    def test_is_one_line(self, tmp_path, capsys, argv):
        rc = main(argv + ["--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fidelity", ["ideal", "circuit"])
    def test_denormal_design_frequency_is_named(self, tmp_path, capsys, fidelity):
        rc = main(
            ["butler", "--fidelity", fidelity, "--er", "4.9", "--h", "1.6mm",
             "--f0", "1e-320", "--f-start", "1GHz", "--f-stop", "2GHz",
             "--n-points", "3", "--outdir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "1e-320 Hz" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["butler", "--fidelity", "circuit", "--er", "4.9", "--h", "1.6mm",
              "--f0", "5.2GHz", "--f-start", "1e300", "--f-stop", "1e301",
              "--n-points", "3"], "frequency 1e+300 Hz gives electrical length"),
            (["butler", "--fidelity", "ideal", "--f0", "5.2GHz", "--f-start", "1e300",
              "--f-stop", "1e301", "--n-points", "3"], "frequency 1e+300 Hz gives phase"),
            (["pattern", "--port", "1R", "--f0", "5.2GHz", "--spacing", "1e300"],
             "angle grid aliases the array factor"),
        ],
        ids=["circuit-line-phase", "ideal-shifter-phase", "aliased-pattern-grid"],
    )
    def test_float_noise_is_refused_in_one_line(self, tmp_path, capsys, argv, named):
        rc = main(argv + ["--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert named in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_scenario_number_is_one_line(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text('{"freq": 1e999, "er": 4.9, "h": "1.6mm"}')  # loads as inf
        rc = main(["design", "--scenario", str(scen)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "butlercad: error: --freq: frequency inf is not finite\n"


class TestPatternCommand:
    def test_matches_library_pipeline(self, tmp_path):
        out = tmp_path / "cut.csv"
        rc = main(
            ["pattern", "--port", "1R", "--f0", "5.2GHz", "--step", "0.5",
             "--out", str(out)]
        )
        assert rc == 0
        net = build_butler_4x4("ideal", 5.2e9)
        amps = excitation_table(net, 5.2e9)["1R"]
        cut = array_factor(
            amps, half_wave_geometry(5.2e9), angles=default_angle_grid(0.5),
            normalize=True,
        )
        buf = io.StringIO()
        cut.to_csv(buf)
        assert out.read_text() == buf.getvalue()

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
    def test_non_positive_or_non_finite_step_is_one_line(self, capsys, step):
        rc = main(["pattern", "--port", "1R", "--f0", "5.2GHz", "--step", step])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("butlercad: error: --step")

    @pytest.mark.parametrize("step", ["0.7", "200"])
    def test_step_not_dividing_180_is_one_line(self, capsys, step):
        rc = main(["pattern", "--port", "1R", "--f0", "5.2GHz", "--step", step])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"step {step} deg" in captured.err

    def test_unknown_port(self, capsys):
        rc = main(["pattern", "--port", "9Z", "--f0", "5.2GHz"])
        assert rc == 2
        assert "9Z" in capsys.readouterr().err


_NUMBER = st.one_of(
    st.builds(
        "{}e{}".format,
        st.integers(-9, 9),
        st.sampled_from([4, 300, 305, 308]) | st.integers(-12, 12),
    ),
    st.sampled_from(["0", "1", "2.5", "1.7e308", "-1.7e308"]),
)
_JUNK = st.sampled_from(["zero", "x1", "--", "1e", "nan", "inf", "1e309", "#", "GHz", "0x10"])
_OPTION = st.tuples(
    st.sampled_from(["GHz", "Hz", "kHz", "MHz", ""]),
    st.sampled_from(["DB", "RI", "MA", ""]),
    st.sampled_from(["S", ""]),
    st.sampled_from(["R 50", "R 75", ""]),
    st.sampled_from(["", "", "Y", "THz", "R 0", "R"]),  # mostly no bad word
).flatmap(st.permutations).map(lambda words: " ".join(["#", *filter(None, words)]))


@st.composite
def _touchstone_file(draw):
    """(suffix, text): an option line, records of 1 + 2n^2 numbers, comments and junk."""
    n = draw(st.sampled_from([1, 2]))
    record = st.lists(_NUMBER, min_size=1 + 2 * n * n, max_size=1 + 2 * n * n).map(" ".join)
    line = st.one_of(
        record,
        _OPTION,
        st.lists(_NUMBER | _JUNK, max_size=6).map(" ".join),
        st.text("ab !#1", max_size=6).map("! {}".format),
    )
    lines = [draw(_OPTION), draw(record)] + draw(st.lists(line, max_size=3))
    return f".s{n}p", "\n".join(lines) + "\n"


class TestTouchstoneConvert:
    def test_convert_round_trip(self, tmp_path, capsys):
        src = tmp_path / "in.s1p"
        src.write_text("# GHz S RI R 50\n1 0.25 -0.5\n2 0.125 0.25\n")
        dst = tmp_path / "out.s1p"
        rc = main(["touchstone", "convert", str(src), str(dst), "--format", "DB",
                   "--unit", "MHz", "--outdir", str(tmp_path)])
        assert rc == 0
        freqs, s, _ = touchstone_read(dst)
        assert freqs[0] == pytest.approx(1e9)
        assert s[0, 0, 0] == pytest.approx(0.25 - 0.5j, abs=1e-9)

    def test_destination_naming_another_port_count_is_one_line(self, tmp_path, capsys):
        src = tmp_path / "in.s8p"
        frequencies = np.array([5e9, 5.2e9])
        touchstone_write(frequencies, np.zeros((2, 8, 8)), "RI", src)
        rc = main(["touchstone", "convert", str(src), "out.s4p", "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "butlercad: error: extension says 4 ports but the sweep has 8\n"
        )
        assert not (tmp_path / "out.s4p").exists()

    @pytest.mark.parametrize(
        "name, ports, count", [("w.txt", "-1", -1), ("w.txt", "0", 0), ("w.s0p", None, 0)]
    )
    def test_a_port_count_below_one_is_one_line(self, tmp_path, capsys, name, ports, count):
        src = tmp_path / name
        src.write_text("# GHz S RI R 50\n1 0 0\n")
        argv = ["touchstone", "convert", str(src), str(tmp_path / "o.txt")]
        rc = main(argv + ([f"--ports={ports}"] if ports else []))
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"butlercad: error: port count must be at least 1, got {count}\n"
        assert not (tmp_path / "o.txt").exists()

    def test_missing_file_single_line(self, capsys, tmp_path):
        rc = main(["touchstone", "convert", str(tmp_path / "no.s1p"),
                   str(tmp_path / "out.s1p")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("\n") == 1

    def test_overflowing_db_entry_names_its_line(self, tmp_path, capsys):
        src = tmp_path / "in.s1p"
        src.write_text("# GHz S DB R 50\n1 1e4 0\n")
        rc = main(["touchstone", "convert", str(src), str(tmp_path / "out.s1p")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("butlercad: error: line 2: ") and err.count("\n") == 1, err

    def test_non_positive_frequency_names_its_line(self, tmp_path, capsys):
        src = tmp_path / "in.s1p"
        src.write_text("# GHz S RI R 50\n-1 0.5 0\n0 0.5 0\n")
        rc = main(["touchstone", "convert", str(src), str(tmp_path / "out.s1p")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("butlercad: error: line 2: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out.s1p").exists()

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        file=_touchstone_file(),
        fmt=st.sampled_from(["RI", "MA", "DB"]),
        unit=st.sampled_from(["Hz", "kHz", "MHz", "GHz"]),
    )
    def test_reader_fuzz_is_touchstone_error_or_one_line(self, file, fmt, unit):
        suffix, text = file
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            src = Path(tmp) / f"in{suffix}"
            src.write_text(text, encoding="ascii")
            try:
                frequencies, s, _ = touchstone_read(src)
                assert np.isfinite(frequencies).all() and np.isfinite(s).all()
            except TouchstoneError:
                pass
            dst = Path(tmp) / f"out{suffix}"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["touchstone", "convert", str(src), str(dst),
                           "--format", fmt, "--unit", unit])
            if rc == 0:
                touchstone_read(dst)  # what convert writes reads back
        if rc == 0:
            assert err.getvalue() == ""
        else:
            assert rc == 2
            assert err.getvalue().count("\n") == 1, err.getvalue()


# design, a request argparse refuses, a sweep, and a pattern cut to stdout
SESSION = [
    DESIGN_ARGS + ["--json-out", "report.json"],
    ["pattern", "--port", "1R", "--f0", "5.2GHz", "--stepp", "1"],
    ["butler", "--fidelity", "ideal", "--f0", "5.2GHz", "--f-start", "5GHz",
     "--f-stop", "5.4GHz", "--n-points", "5"],
    ["pattern", "--port", "2L", "--f0", "5.2GHz", "--step", "0.5"],
]


def _run_in(outdir, argv):
    """Return code, stdout, stderr and the files written, of one call of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--outdir", outdir])
    written = sorted(Path(outdir).glob("*"))
    return rc, out.getvalue(), err.getvalue(), {p.name: p.read_bytes() for p in written}


def test_one_process_serves_a_session_like_separate_first_calls(tmp_path, monkeypatch):
    from butlercad.cli import _build_parser

    # each side runs in its own directory, so the paths printed read the same
    (tmp_path / "first").mkdir()
    (tmp_path / "session").mkdir()
    monkeypatch.chdir(tmp_path / "first")
    first = []
    for k, argv in enumerate(SESSION):
        _build_parser.cache_clear()
        first.append(_run_in(f"call{k}", argv))
    monkeypatch.chdir(tmp_path / "session")
    _build_parser.cache_clear()
    session = [_run_in(f"call{k}", argv) for k, argv in enumerate(SESSION)]
    assert _build_parser() is _build_parser()
    assert [(r[0], len(r[3])) for r in first] == [(0, 1), (2, 0), (0, 3), (0, 0)]
    assert session == first


class TestOutdirEnv:
    def test_env_var_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BUTLERCAD_OUTDIR", str(tmp_path))
        rc = main(DESIGN_ARGS + ["--json-out", "rep.json"])
        assert rc == 0
        assert (tmp_path / "rep.json").exists()
