"""Layered benchmark of the butlercad command-line chain.

Run from the repository root:

    python3 bench/run.py --workload point_mix --seed 1 --seconds 30 --trace 0

The program is driven in-process through ``butlercad.cli.main(argv)``
only, by one client in a closed loop: each request starts after the
previous one returned.  Every request writes into its own directory under
``.bench_work/``, which is removed at exit.  After the timed loop every
request's artifacts are checked (``checks.py``) and the first requests
of every sixteenth unit are re-run to confirm byte-identical files.  Then one request
that a known defect makes fail is sent and reported apart from the
timed ones (``workloads.zero_step_probe``).  Request times are scaled to
a reference host speed (``hostspeed.py``), and import times to a
reference time of ``import numpy``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass over the same requests (``tracing.py``).  The
last line of standard output is one JSON object; the lines before it are
a readable summary.  The exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import cProfile
import io
import json
import math
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 10  # pairs of fresh interpreters; half before, half after the timed loop
# `import numpy` in a fresh interpreter on the baseline host, about; setup_s
# is the CLI's import time at the host speed where numpy takes this long
NUMPY_IMPORT_S = 0.2
RERUN_EVERY = 16
HOST_EVERY_S = 0.25  # request time between two host-speed measurements
HOST_SMOOTH_S = 2.0  # a request's factor averages the measurements this close
# fixed per workload so that a faster program is not judged at a higher
# percentile; each keeps at least 10 samples beyond it in a 30 s run on the
# baseline host in its slow state
TAIL_PERCENTILE = {"circuit_sweep": 65.0, "ideal_sweep_io": 60.0, "point_mix": 90.0}


class BenchError(Exception):
    """The benchmark cannot run here; printed as one line, exit status 2."""


@dataclass
class Result:
    op: workloads.Op
    rc: int | None
    stdout: str
    stderr: str
    escaped: str | None
    latency_s: float
    started: float = 0.0  # perf_counter at the start of the request
    factor: float = 1.0  # host speed factor around the request (hostspeed.py)
    failure: str | None = None
    incorrect: bool = False


def find_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "butlercad" / "__init__.py").is_file():
        raise BenchError(f"no butlercad package under {src}; run from the repository root")
    return src


def _interpreter(src: Path, code: str, importtime: bool = False) -> tuple[float, str]:
    """Wall seconds and stderr of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    t = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise BenchError(f"{code} failed: {proc.stderr.strip()[-300:]}")
    return wall, proc.stderr


def import_time_logs(src: Path, reps: int) -> list[str]:
    """``-X importtime`` logs of fresh interpreters importing the CLI."""
    _interpreter(src, "import butlercad.cli")  # compiles bytecode
    return [_interpreter(src, "import butlercad.cli", importtime=True)[1]
            for _ in range(reps)]


def setup_pairs(src: Path, pairs: int, compile_first: bool) -> list[tuple[float, float]]:
    """(CLI, numpy) import wall seconds of fresh interpreters run back to back."""
    if compile_first:
        _interpreter(src, "import butlercad.cli")
    return [(_interpreter(src, "import butlercad.cli")[0], _interpreter(src, "import numpy")[0])
            for _ in range(pairs)]


def import_split_ms(stderr: str) -> tuple[float, float]:
    """(numpy, butlercad without numpy) cumulative import ms from -X importtime."""
    numpy_us = total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        try:
            us = int(cumulative)
        except ValueError:  # the header line
            continue
        if name.strip() == "numpy":
            numpy_us = us
        if name.startswith(" butlercad"):  # one space: a top-level import
            total_us += us
    return numpy_us / 1e3, (total_us - numpy_us) / 1e3


def execute(cli, op: workloads.Op, tracer=None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    rc = escaped = None
    if tracer:
        tracer.begin_op()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as e:  # escaped main: counted as a failed request
        escaped = f"{type(e).__name__}: {e}"
    except SystemExit as e:
        escaped = f"SystemExit({e.code})"
    latency = time.perf_counter() - t
    return Result(op, rc, out.getvalue(), err.getvalue(), escaped, latency, started=t)


def closed_loop(cli, ops, unit_ops: int, seconds: float | None, count: int | None = None,
                tracer=None, host: hostspeed.HostSpeed | None = None
                ) -> tuple[list[Result], float]:
    """Run requests back to back until ``seconds`` passed or ``count`` ran.

    The loop stops only between units of ``unit_ops`` requests.  With
    ``host``, the host speed is measured before the first request, after
    the first request that ends ``HOST_EVERY_S`` or more after the last
    measurement, and after the last request; see ``assign_factors``.
    """
    results: list[Result] = []
    marks: list[tuple[float, float]] = []  # (perf_counter, factor)
    t0 = time.perf_counter()
    if host:
        marks.append((time.perf_counter(), host.factor()))
    while True:
        for k in range(unit_ops):
            results.append(execute(cli, next(ops), tracer))
            done = k == unit_ops - 1 and (
                len(results) >= count if count is not None
                else time.perf_counter() - t0 >= seconds)
            if host and (done or time.perf_counter() - marks[-1][0] >= HOST_EVERY_S):
                marks.append((time.perf_counter(), host.factor()))
            if done:
                wall = time.perf_counter() - t0
                if host:
                    assign_factors(results, marks)
                return results, wall


def assign_factors(results: list[Result], marks: list[tuple[float, float]]) -> None:
    """Give each request the mean factor measured around it.

    The mean runs over the measurements started within ``HOST_SMOOTH_S``
    of the request's midpoint, and always includes the last one before
    the request and the first one after it.  One measurement is noisy;
    the host's speed holds for seconds at a time.
    """
    times = [t for t, _ in marks]
    for r in results:
        end = r.started + r.latency_s
        mid = r.started + r.latency_s / 2.0
        lo = min(bisect.bisect_left(times, mid - HOST_SMOOTH_S),
                 bisect.bisect_right(times, r.started) - 1)
        hi = max(bisect.bisect_right(times, mid + HOST_SMOOTH_S),
                 bisect.bisect_left(times, end) + 1)
        r.factor = statistics.fmean(f for _, f in marks[max(lo, 0):hi])


def verify_all(cli, results: list[Result], unit_ops: int, group_ops: int) -> None:
    """Output checks after the timed region; sets failure and incorrect.

    The first ``group_ops`` requests of every ``RERUN_EVERY``-th unit are
    run again, in order, and must write byte-identical files.
    """
    for k, res in enumerate(results):
        try:
            checks.verify(res.op, res.rc, res.stdout, res.stderr, res.escaped)
            if k % (unit_ops * RERUN_EVERY) < group_ops and res.op.kind != "malformed":
                first = res.op.outdir.with_name(res.op.outdir.name + ".first")
                res.op.outdir.rename(first)
                again = execute(cli, res.op)
                checks.verify(res.op, again.rc, again.stdout, again.stderr, again.escaped)
                if checks.tree_bytes(first) != checks.tree_bytes(res.op.outdir):
                    raise checks.CheckFailed("re-running the same argv changed the files")
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as e:
            res.failure = (str(e) if isinstance(e, checks.CheckFailed)
                           else f"{type(e).__name__}: {e}")
            res.incorrect = res.op.kind != "malformed"


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def metadata() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "load": "closed loop, 1 client, 1 thread, in-process cli.main",
    }


def summarize(workload: str, results: list[Result], wall: float) -> dict:
    """Counts and statistics; rates and ``*_ms`` at reference host speed.

    Rates are medians over the units of the closed loop of what a unit
    delivered per second of its request time.
    """
    unit = workloads.UNIT_OPS[workload]
    units = [results[i:i + unit] for i in range(0, len(results), unit)]

    def rate(count, scaled: bool = True) -> float:
        return statistics.median(
            sum(count(r) for r in u) / sum(r.latency_s / (r.factor if scaled else 1.0) for r in u)
            for u in units)

    def points(r: Result) -> int:
        return 0 if r.failure else r.op.points

    lat = sorted(r.latency_s / r.factor * 1e3 for r in results)
    raw = sorted(r.latency_s * 1e3 for r in results)
    failed = [r for r in results if r.failure]
    well = [r for r in results if r.op.kind != "malformed"]
    seen, repeats = set(), 0
    for r in well:
        if r.op.design is not None:
            repeats += r.op.design in seen
            seen.add(r.op.design)
    p = TAIL_PERCENTILE[workload]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "wall_s": wall,
        "points_per_s": rate(points),
        "ops_per_s": rate(lambda r: 1),
        "raw_points_per_s": rate(points, scaled=False),
        "raw_ops_per_s": rate(lambda r: 1, scaled=False),
        "p50_ms": statistics.median(lat),
        "tail_ms": nearest_rank(lat, p),
        "raw_p50_ms": statistics.median(raw),
        "raw_tail_ms": nearest_rank(raw, p),
        "factor": statistics.median(r.factor for r in results),
        "tail_percentile": p,
        "tail_beyond": sum(v > nearest_rank(lat, p) for v in lat),
        "repeat_share": repeats / len(well) if well else 0.0,
        "failures": failed,
        "incorrect": any(r.incorrect for r in results),
    }


def end_to_end(s: dict, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (s["points_per_s"], "1/s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "op_p50_ms": (s["p50_ms"], "ms"),
        "op_tail_ms": (s["tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_ratio": (1.0 - s["failed"] / s["attempted"], "ratio"),
    }


def profile_top10(cli, op: workloads.Op) -> list[str]:
    prof = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        prof.runcall(cli.main, list(op.argv))
    stats = pstats.Stats(prof).sort_stats("tottime")
    rows = []
    for func in stats.fcn_list[:10]:
        _, nc, tt, ct, _ = stats.stats[func]
        rows.append(f"{tt * 1e3:9.1f} ms self {ct * 1e3:9.1f} ms cum {nc:8d} calls  "
                    f"{Path(func[0]).name}:{func[1]}({func[2]})")
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        src: Path, setup_reps: int = SETUP_REPS) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the summary lines."""
    import butlercad.cli as cli

    gen = workloads.GENERATORS[workload]
    unit = workloads.UNIT_OPS[workload]
    lines = [f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}",
             f"metadata {json.dumps(metadata(), sort_keys=True)}"]

    # import time follows the host's state, which holds for seconds at a
    # time: each CLI import is paired with an `import numpy` next to it, and
    # half of the pairs run before the timed loop, half after
    t_setup = time.perf_counter()
    if trace:
        split = [import_split_ms(e) for e in import_time_logs(src, setup_reps)]
    else:
        pairs = setup_pairs(src, setup_reps // 2, compile_first=True)

    # untimed requests from another seed load what first requests load lazily
    t_warm = time.perf_counter()
    closed_loop(cli, gen(seed + 1_000_003, work / "warmup"), 1, None,
                count=workloads.GROUP_OPS[workload])

    t_loop = time.perf_counter()
    host = hostspeed.HostSpeed()
    results, wall = closed_loop(cli, gen(seed, work / "run"), unit, seconds, host=host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_setup2 = time.perf_counter()
    if not trace:
        pairs += setup_pairs(src, setup_reps - setup_reps // 2, compile_first=False)
        setup_s = NUMPY_IMPORT_S * statistics.median(c / n for c, n in pairs)
    t_check = time.perf_counter()
    verify_all(cli, results, unit, workloads.GROUP_OPS[workload])
    s = summarize(workload, results, wall)
    probe = execute(cli, workloads.zero_step_probe(work / "probe"))
    verify_all(cli, [probe], 1, 1)
    lines.append(f"phases: setup {t_warm - t_setup + t_check - t_setup2:.1f} s, "
                 f"warm-up {t_loop - t_warm:.1f} s, timed {wall:.1f} s, "
                 f"checks {time.perf_counter() - t_check:.1f} s")

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin("bench.loop")
            traced, traced_wall = closed_loop(cli, gen(seed, work / "traced"), unit, None,
                                              count=len(results), tracer=tracer)
            tracer.end()
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        self_sum_ms = 1e3 * sum(tracer.self_s.values())
        untraced_ms = 1e3 * sum(r.latency_s for r in results)
        overhead_ms = 1e3 * sum(r.latency_s for r in traced) - untraced_ms
        metrics.update({
            "setup.numpy_import_ms": (statistics.median(a for a, _ in split), "ms"),
            "setup.butlercad_import_ms": (statistics.median(b for _, b in split), "ms"),
            "bench.loop_self_ms": (1e3 * tracer.self_s["bench.loop"], "ms"),
            "trace.wall_ms": (1e3 * traced_wall, "ms"),
            "trace.self_sum_ms": (self_sum_ms, "ms"),
            "trace.overhead_ms": (overhead_ms, "ms"),
            "trace.overhead_share": (overhead_ms / untraced_ms, "ratio"),
            "trace.missing_targets": (len(tracer.missing), "count"),
            "cli.defect_probe_failures": (int(probe.failure is not None), "count"),
        })
        lines.append(f"traced {len(traced)} requests in {traced_wall:.3f} s; the same requests "
                     f"took {untraced_ms / 1e3:.3f} s untraced; self times sum to "
                     f"{self_sum_ms:.1f} ms")
        lines.append("single-threaded program: spans never wait, so no wait time is reported")
        for target in tracer.missing:
            lines.append(f"missing layer target {target}: its metrics read 0")
        if tracer.count["hook_errors"]:
            lines.append(f"trace counter errors: {int(tracer.count['hook_errors'])}")
        if workload == "circuit_sweep":
            first = next(gen(seed, work / "profile"))
            lines.append(f"cProfile top-10 by self time, one request ({first.points} points):")
            lines += ["  " + row for row in profile_top10(cli, first)]
    else:
        metrics = end_to_end(s, setup_s, peak_rss_mb)

    for name, (value, unit_name) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit_name}")
    lines.append(f"fail_ratio {s['failed'] / s['attempted']:.6g} "
                 f"({s['failed']} of {s['attempted']} requests failed)")
    lines.append(f"known-defect probe, run once after the timed loop and not counted "
                 f"above: {' '.join(probe.op.argv[:7])}: "
                 f"{probe.failure or 'exits 2 with one stderr line, fixed'}")
    lines.append(f"op_tail_ms is p{s['tail_percentile']:g}: {s['tail_beyond']} of "
                 f"{s['attempted']} samples beyond it")
    lines.append(f"design repeat share {s['repeat_share']:.4f} of well-formed requests")
    lines.append(f"host speed factor {s['factor']:.4f} (median); unscaled values: "
                 f"points_per_s {s['raw_points_per_s']:.6g}, ops_per_s "
                 f"{s['raw_ops_per_s']:.6g}, op_p50_ms {s['raw_p50_ms']:.6g}, "
                 f"op_tail_ms {s['raw_tail_ms']:.6g}")
    if not trace:
        lines.append(f"setup_s at the numpy import time {NUMPY_IMPORT_S:g} s; unscaled "
                     f"medians over {len(pairs)} pairs: CLI import "
                     f"{statistics.median(c for c, _ in pairs):.6g} s, numpy import "
                     f"{statistics.median(n for _, n in pairs):.6g} s")
    for r in s["failures"][:8]:
        lines.append(f"failed {r.op.outdir.name} {r.op.kind}: {r.failure}")

    result = {
        "correct": not s["incorrect"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        src = find_source(root)
        sys.path.insert(0, str(src))
        workroot = root / ".bench_work"
        workroot.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
        try:
            result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                work, src)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                workroot.rmdir()
    except (BenchError, ImportError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
