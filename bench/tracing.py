"""Per-layer spans around butlercad's public functions, applied from outside.

A :class:`Tracer` replaces each target function with a timing wrapper in
every ``butlercad`` module that holds it under some name (``interconnect``
is bound in ``network``, ``components`` and ``cli``), and methods on their
class (``DeviceModel.at``).  Spans nest on one stack: a span's self time
is its duration minus the durations of the spans it encloses, so ring
solves inside a device evaluation inside the top-level solve are each
counted once.  Spans are folded into per-name totals as they close; the
program is single-threaded, so no span ever waits on another and there
is no wait time to report.

A target that no longer exists is listed in ``missing`` and its layer
reads zero; installing never fails because of it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# span name -> "module:attribute" or "module:Class.method"
TARGETS = {
    "cli.main": "butlercad.cli:main",
    "microstrip.synthesize_width": "butlercad.microstrip:synthesize_width",
    "microstrip.analyze_impedance": "butlercad.microstrip:analyze_impedance",
    "microstrip.effective_permittivity": "butlercad.microstrip:effective_permittivity",
    "microstrip.quarter_wave_length": "butlercad.microstrip:quarter_wave_length",
    "microstrip.phase_shift_length": "butlercad.microstrip:phase_shift_length",
    "microstrip.design_line": "butlercad.microstrip:design_line",
    "antenna.design_patch": "butlercad.antenna:design_patch",
    "antenna.with_inset": "butlercad.antenna:with_inset",
    "antenna.element_pattern": "butlercad.antenna:element_pattern",
    "butler.build": "butlercad.butler:build_butler_4x4",
    "butler.excitation_table": "butlercad.butler:excitation_table",
    "components.eval": "butlercad.sparams:DeviceModel.at",
    "network.interconnect": "butlercad.network:interconnect",
    "beams.array_factor": "butlercad.beams:array_factor",
    "beams.beam_angle": "butlercad.beams:beam_angle",
    "beams.pattern_metrics": "butlercad.beams:pattern_metrics",
    "beams.csv": "butlercad.beams:PatternCut.to_csv",
    "report.build": "butlercad.report:build_design_report",
    "report.to_json": "butlercad.report:DesignReport.to_json",
    "report.to_text": "butlercad.report:DesignReport.to_text",
    "report.excitation_csv": "butlercad.report:excitation_csv",
    "report.beam_table_csv": "butlercad.report:beam_table_csv",
    "touchstone.write": "butlercad.touchstone:touchstone_write",
    "touchstone.read": "butlercad.touchstone:touchstone_read",
    "touchstone.convert": "butlercad.touchstone:touchstone_convert",
}

DEVICE_KINDS = (
    "ideal_hybrid", "ideal_crossover", "phase_shifter", "shunt_junction",
    "tline", "branchline_hybrid", "crossover_circuit",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _tell(stream):
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _size(path) -> int:
    if isinstance(path, (str, os.PathLike)):
        try:
            return os.path.getsize(path)
        except OSError:
            return 0
    return 0


class Tracer:
    """Span stack, per-span self times and the layer counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, child seconds]
        self._restore: list[tuple] = []
        self._net_depth = 0
        self._op_solves: set = set()
        self._evals: set = set()
        self._devices: dict[int, tuple] = {}

    # -- spans opened by the benchmark itself --------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def begin_op(self) -> None:
        """Start a request: repeat detection is per request."""
        self._op_solves = set()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "butlercad" or n.startswith("butlercad."))]
        for name, target in TARGETS.items():
            mod_name, _, qual = target.partition(":")
            mod = sys.modules.get(mod_name)
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                self.missing.append(target)
                continue
            wrapper = self._wrap(name, orig)
            if owner_name:
                self._restore.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if value is None:  # the method was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- the wrapper and its per-target counters -----------------------------

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack, clock = self._stack, time.perf_counter
        self_s, calls, count = self.self_s, self.calls, self.count

        def wrapper(*args, **kwargs):
            # a counter that no longer fits the program must not fail the request
            ctx = None
            if before is not None:
                try:
                    ctx = before(args, kwargs)
                except Exception:
                    count["hook_errors"] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                calls[name] += 1
                if after is not None:
                    try:
                        after(args, kwargs, result, ok, ctx)
                    except Exception:
                        count["hook_errors"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _before_network_interconnect(self, args, kwargs):
        net = _arg(args, kwargs, 0, "net")
        depth = self._net_depth
        self._net_depth += 1
        self.count["connections_reduced"] += len(getattr(net, "connections", ()))
        if depth:
            self.count["interconnect_nested"] += 1
            return depth
        self.count["interconnect_top"] += 1
        key = (id(net), float(_arg(args, kwargs, 1, "frequency")))
        if key in self._op_solves:
            self.count["repeat_solves"] += 1
        self._op_solves.add(key)
        return depth

    def _after_network_interconnect(self, args, kwargs, result, ok, depth):
        self._net_depth -= 1
        if not ok and depth == 0:
            self.count["interconnect_failed"] += 1

    def _before_components_eval(self, args, kwargs):
        dev = args[0]
        # the cache holds the device, so its id is not reused while cached
        held, counter, key = self._devices.get(id(dev), (None, None, None))
        if held is not dev:
            kind = getattr(dev, "kind", "") or "unnamed"
            counter = "evals." + kind
            key = (kind, tuple(sorted(getattr(dev, "params", {}).items())))
            self._devices[id(dev)] = (dev, counter, key)
        self.count[counter] += 1
        self._evals.add((key, float(_arg(args, kwargs, 1, "frequency"))))

    def _after_beams_array_factor(self, args, kwargs, result, ok, ctx):
        if ok:
            self.count["samples"] += len(getattr(result, "angles", ()))

    def _before_report_excitation_csv(self, args, kwargs):
        return _tell(_arg(args, kwargs, 1, "stream"))

    def _after_report_excitation_csv(self, args, kwargs, result, ok, start):
        end = _tell(_arg(args, kwargs, 1, "stream"))
        if start is not None and end is not None:
            self.count["report_bytes"] += end - start

    _before_report_beam_table_csv = _before_report_excitation_csv
    _after_report_beam_table_csv = _after_report_excitation_csv

    def _after_report_to_json(self, args, kwargs, result, ok, ctx):
        if ok:
            self.count["report_bytes"] += len(result)

    _after_report_to_text = _after_report_to_json

    def _after_touchstone_write(self, args, kwargs, result, ok, ctx):
        if ok:
            self.count["ts_bytes_written"] += _size(_arg(args, kwargs, 3, "destination"))

    def _before_touchstone_read(self, args, kwargs):
        self.count["ts_bytes_read"] += _size(_arg(args, kwargs, 0, "source"))

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit); times are self times."""

        def ms(*names):
            return 1e3 * sum(self.self_s[n] for n in names)

        def prefixed(prefix):
            return [n for n in TARGETS if n.startswith(prefix)]

        c = self.count
        evals = sum(v for k, v in c.items() if k.startswith("evals."))
        top = c["interconnect_top"]
        out = {
            "cli.calls": (self.calls["cli.main"], "count"),
            "cli.self_ms": (ms("cli.main"), "ms"),
            "microstrip.calls": (sum(self.calls[n] for n in prefixed("microstrip.")), "count"),
            "microstrip.busy_ms": (ms(*prefixed("microstrip.")), "ms"),
            "antenna.busy_ms": (ms(*prefixed("antenna.")), "ms"),
            "butler.build_calls": (self.calls["butler.build"], "count"),
            "butler.build_ms": (ms("butler.build"), "ms"),
            "butler.excitation_tables": (self.calls["butler.excitation_table"], "count"),
            "butler.excitation_self_ms": (ms("butler.excitation_table"), "ms"),
            "components.device_evals": (evals, "count"),
            "components.eval_self_ms": (ms("components.eval"), "ms"),
            "components.unique_eval_ratio": (len(self._evals) / evals if evals else 0.0, "ratio"),
            "network.interconnect_calls_top": (top, "count"),
            "network.interconnect_calls_nested": (c["interconnect_nested"], "count"),
            "network.interconnect_self_ms": (ms("network.interconnect"), "ms"),
            "network.connections_reduced": (c["connections_reduced"], "count"),
            "network.repeat_solve_share": (c["repeat_solves"] / top if top else 0.0, "ratio"),
            "network.failed": (c["interconnect_failed"], "count"),
            "beams.samples": (c["samples"], "count"),
            "beams.array_factor_ms": (ms("beams.array_factor"), "ms"),
            "beams.metrics_ms": (ms("beams.beam_angle", "beams.pattern_metrics"), "ms"),
            "beams.csv_ms": (ms("beams.csv"), "ms"),
            "report.busy_ms": (ms(*prefixed("report.")), "ms"),
            "report.bytes_written": (c["report_bytes"], "bytes"),
            "touchstone.write_ms": (ms("touchstone.write"), "ms"),
            "touchstone.read_ms": (ms("touchstone.read"), "ms"),
            "touchstone.convert_self_ms": (ms("touchstone.convert"), "ms"),
            "touchstone.bytes_written": (c["ts_bytes_written"], "bytes"),
            "touchstone.bytes_read": (c["ts_bytes_read"], "bytes"),
        }
        for kind in DEVICE_KINDS:
            out[f"components.device_evals.{kind}"] = (c["evals." + kind], "count")
        return out
