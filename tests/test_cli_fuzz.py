"""Every subcommand of the flag table, every flag drawn from good and bad values.

A draw gives each flag of ``cli.COMMANDS`` a valid value, a value with a
unit, one of the edge numbers below, a JSON value of the wrong type through
``--scenario``, or nothing.  Whatever comes, ``main`` exits 0, or 2 with one
stderr line, and raises nothing and warns nothing.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butlercad import build_butler_4x4, interconnect
from butlercad.cli import ARGUMENT, COMMANDS, main
from butlercad.touchstone import touchstone_write

EDGE_NUMBERS = ["0", "-0", "5e-324", "1e308", "nan", "inf"]
UNIT_STRINGS = ["5.2GHz", "900MHz", "1.6mm", "30mil", "2cm"]
WRONG_JSON_TYPES = [[], [4.9], {}, {"value": 4.9}, True, False]

# valid values by flag name; "ports" means input ports to butler and a port
# count to touchstone convert.  --n-points stays at or below 64 and --step at
# or above 0.05, so that no draw allocates much
VALID = {
    "freq": ["5.2GHz", "2.4GHz", "900MHz", "5.8e9"],
    "f0": ["5.2GHz", "2.4GHz", "5.8GHz"],
    "er": ["4.9", "2.2", "1", "10.2"],
    "h": ["1.6mm", "0.8mm", "62mil"],
    "edge-resistance": ["240", "150.5"],
    "json-out": ["report.json"],
    "outdir": ["out", "."],
    "fidelity": ["ideal", "circuit", "IDEAL"],
    "f-start": ["4.7GHz", "5GHz", "1GHz"],
    "f-stop": ["5.7GHz", "5.4GHz", "6GHz"],
    "n-points": [str(n) for n in (2, 3, 17, 64)],
    "butler ports": ["1R", "1R,2L", "2R,1L,1R,2L"],
    "touchstone convert ports": ["8", "2"],
    "format": ["RI", "MA", "db"],
    "unit": ["Hz", "kHz", "MHz", "GHz"],
    "prefix": ["run"],
    "port": ["1R", "2l", "2R", "1L"],
    "spacing": ["28.83mm", "0.05", "1cm"],
    "element": ["isotropic", "cos"],
    "step": ["0.05", "0.5", "1", "2.5", "90", "180"],
    "out": ["cut.csv"],
    "source": ["in.s8p", "in.s2p", "in.dat"],
    "destination": ["out.s8p", "out.s2p", "out.dat", "out.s4p"],
}


def _sweep_text(n_ports: int) -> str:
    frequencies = np.array([5.0e9, 5.2e9, 5.4e9])
    s = interconnect(build_butler_4x4("ideal", 5.2e9), frequencies)[:, :n_ports, :n_ports]
    buf = io.StringIO()
    touchstone_write(frequencies, s, "MA", buf)
    return buf.getvalue()


SOURCES = {"in.s8p": _sweep_text(8), "in.s2p": _sweep_text(2), "in.dat": _sweep_text(8)}


def _bad(name: str):
    """How a flag is given wrong: ("flag", text) or ("scenario", JSON value)."""
    edge = [v for v in EDGE_NUMBERS if not (name == "step" and v == "5e-324")]
    return st.tuples(st.just("flag"), st.sampled_from(UNIT_STRINGS + edge)) | st.tuples(
        st.just("scenario"), st.sampled_from(WRONG_JSON_TYPES)
    )


@st.composite
def _invocation(draw, command):
    """(argv, scenario) of one call of ``command``: every flag valid but up to three."""
    flags = COMMANDS[command][2]
    names = [flag.name for flag in flags]
    wrong = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    argv, scenario = command.split(), {}
    for flag in flags:
        valid = VALID.get(f"{command} {flag.name}", VALID.get(flag.name))
        if flag.name in wrong:
            how, value = draw(_bad(flag.name))
            if flag.default is ARGUMENT:  # a positional argument is never a scenario key
                how, value = "flag", str(value)
        else:
            how, value = "flag", draw(st.sampled_from(valid))
        if flag.default is ARGUMENT:
            argv.append(value)
        elif how == "flag":
            argv += [f"--{flag.name}", value]
        else:
            scenario[flag.name] = value
    return argv, scenario


@contextlib.contextmanager
def _inside(directory):
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def _run(argv, scenario):
    """Return code, stderr and the warnings of one call of ``main`` in a fresh directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        for name, text in SOURCES.items():
            Path(name).write_text(text, encoding="ascii")
        if scenario:
            Path("scenario.json").write_text(json.dumps(scenario))
            argv = argv + ["--scenario", "scenario.json"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
    return rc, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_any_flag_values_exit_0_or_one_line(command, data):
    argv, scenario = data.draw(_invocation(command), label="argv, scenario")
    rc, err, caught = _run(argv, scenario)
    assert caught == []
    if rc == 0 and not scenario:  # every scenario value drawn has a wrong type
        assert err == ""
    else:
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("butlercad: error: "), err
