"""Floating-point facts the byte-identical array code relies on, one test per rule.

Each test re-runs a small probe of a numpy or CPython behaviour that the
library's bit-for-bit contract with entry-by-entry Python arithmetic
depends on.  If a numpy release changes one of them, the failing test's
name says which rule broke; the fix then belongs in the library code.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butlercad import touchstone

_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
_PRINTED = st.builds(
    lambda spec, x: spec(x),
    st.sampled_from([lambda x: "%.9g" % x, lambda x: "%.12g" % x, lambda x: "%.17g" % x, repr]),
    _FINITE,
)


# --- the Touchstone one-parse reader: np.fromstring(text, sep=" ") ----------------


@settings(max_examples=300, deadline=None, database=None)
@given(tokens=st.lists(_PRINTED, min_size=1, max_size=40))
def test_fromstring_reads_printed_finite_doubles_as_float_does(tokens):
    got = np.fromstring(" ".join(tokens), sep=" ")
    assert got.tobytes() == np.array([float(t) for t in tokens]).tobytes()


@pytest.mark.parametrize("text", [" ", "   ", "\t", " \t  "])
def test_fromstring_reads_blanks_alone_as_minus_one(text):
    # the reader sends such text to the line by line loop
    assert np.fromstring(text, sep=" ").tolist() == [-1.0]


@pytest.mark.parametrize("text", ["1_0", "0x10", "1e", "١", "1,2", "2 1_0 3", "1.5.3"])
def test_fromstring_refuses_a_token_it_cannot_take_whole(text):
    # refused text goes to the line by line loop, which names the token
    with pytest.raises(ValueError):
        np.fromstring(text, sep=" ")


@pytest.mark.parametrize("text", ["nan(1)", "inf", "1 -inf 2", "nan"])
def test_fromstring_reads_non_finite_tokens_as_non_finite(text):
    # float refuses nan(1), so text with a non-finite value is read line by line
    assert not np.isfinite(np.fromstring(text, sep=" ")).all()


def test_fromstring_separates_numbers_only_at_str_split_whitespace():
    # the one parse reads between the numbers what the loop's str.split does;
    # today numpy takes \t \n \v \f \r and space (U+3000 is the last
    # character str.split takes as whitespace)
    between = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x only warns
        for char in map(chr, range(0x3001)):
            try:
                if np.fromstring(f"1{char}2", sep=" ").tolist() == [1.0, 2.0]:
                    between.add(char)
            except (ValueError, DeprecationWarning):
                pass
    assert " " in between
    assert all(f"1{char}2".split() == ["1", "2"] for char in between), between


def test_comment_regex_stops_where_splitlines_ends_a_line():
    # comments are cut from the whole text at once, so a comment must end
    # where the loop's str.splitlines ends its line:
    # \n \v \f \r \x1c-\x1e \x85 \u2028 \u2029 today
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    line_ends = {line[-1] for line in every.splitlines(keepends=True)[:-1]}
    # each character follows a "!": what the comments leave is where they stop
    kept = touchstone._COMMENT.sub("", "!" + "!".join(every))
    assert set(kept) == line_ends and len(kept) == len(line_ends)


# --- converting each sweep-constant entry once -----------------------------------


@settings(max_examples=200, deadline=None, database=None)
@given(
    values=st.lists(_FINITE, min_size=6, max_size=6),
    keep=st.lists(st.booleans(), min_size=3, max_size=3).map(np.array),
)
def test_elementwise_functions_give_an_entry_the_same_bits_wherever_it_sits(values, keep):
    # polar and the MA/DB decoder compute a sweep-constant column from row 0
    # alone, in a flat vector, instead of from every row of a strided view
    grid = np.array(values).reshape(2, 3)
    strided = np.stack([grid, grid[::-1]], axis=-1)[..., 0]
    z = np.empty(strided.shape, dtype=complex)
    z.real, z.imag = strided, strided[::-1]
    with np.errstate(all="ignore"):
        for f in (np.radians, np.cos, np.sin, np.degrees, lambda x: x / 20.0):
            assert f(strided[:, keep].ravel()).tobytes() == f(strided)[:, keep].ravel().tobytes()
        for f in (np.angle, lambda v: np.hypot(v.real, v.imag)):
            assert f(z[:, keep].ravel()).tobytes() == f(z)[:, keep].ravel().tobytes()


def test_equal_values_with_other_bits_convert_differently():
    # so a sweep-constant column is one whose bits repeat, not its value
    assert -0.0 == 0.0
    assert np.angle(complex(-1.0, -0.0)) != np.angle(complex(-1.0, 0.0))
    assert np.signbit(np.angle(complex(1.0, -0.0))) and not np.signbit(np.angle(1.0 + 0j))
