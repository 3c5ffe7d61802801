"""Exception types raised by the butlercad toolkit."""


class ButlerCadError(Exception):
    """Base class for all toolkit errors."""


class SynthesisRangeError(ButlerCadError):
    """Microstrip width synthesis failed: impedance outside formula validity."""


class DesignRangeError(ButlerCadError):
    """Closed-form antenna design produced a non-physical dimension."""


class NoSolutionError(ButlerCadError):
    """A requested operating point has no real solution."""


class GratingLobeError(ButlerCadError):
    """Requested phase progression steers the beam out of visible space."""


class DegeneratePatternError(ButlerCadError):
    """Pattern cut has no distinct main lobe."""


class NetlistError(ButlerCadError):
    """Netlist violates its wiring invariants (dangling or doubly used port)."""


class ResonantLoopError(ButlerCadError):
    """Port elimination hit |D| < 1e-7: a lossless loop at or near resonance."""


class TouchstoneError(ButlerCadError):
    """Touchstone file could not be written."""


class TouchstoneParseError(TouchstoneError):
    """Touchstone file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
