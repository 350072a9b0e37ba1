"""The traced pass: per-layer times and counts for one workload's jobs.

The jobs run three times, one after another:

1. as fresh processes, exactly as in the untraced benchmark (job wall time);
2. in this process through ``pairsum.cli.main(argv)`` with stdout captured,
   with only a root ``cli.main`` span per job (``cli.main_s``);
3. in this process again with the public functions of ``charpoly``,
   ``central`` and ``oracle`` and the ``TruncatedSeries`` mul/exp/log
   wrapped in spans.

All three must print the same stdout.  The ``graphcounts`` functions are then
timed by calling them directly at each job's caps, outside any job.

A span records (name, start, end, parent, job).  Span names are the
per-layer metric names without the ``_s`` suffix, and a ``*_s`` metric is
the summed self time of its spans: the span's duration minus the durations
of its child spans.  Series spans are a second view of the same work: a
stage span (``charpoly``, ``central``, ``oracle``) keeps the series time of
the calls it makes, so the stage spans of a job partition its run, while a
``series.exp`` or ``series.log`` span loses the time of its ``series.mul``
children.  Counting done by the tracer itself runs on a paused clock, so it
appears in no span; it is reported as ``trace.bookkeeping_s`` and is part of
the tracing overhead (traced minus untraced in-process time).
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from math import comb

import numpy as np

import checks
import launch
import workloads

TIME_METRICS = [
    "series.mul_s", "series.exp_s", "series.log_s",
    "graphcounts.bicolored_s", "graphcounts.connected_bipartite_s",
    "graphcounts.connected_s", "graphcounts.no_isolated_s",
    "graphcounts.bipartite_no_isolated_s",
    "central.gamma0_s", "central.gamma1_corrected_s", "central.gamma1_paper_s",
    "central.gamma2_s", "central.gamma3_s", "central.product_s", "central.extract_s",
    "charpoly.assemble_s", "charpoly.chi_table_s",
    "oracle.whitney_w1_s", "oracle.whitney_w2_s", "oracle.ffield_s",
    "oracle.interpolate_s", "oracle.census_s",
]
COUNT_METRICS = {
    "series.mul_calls": "count",
    "series.mul_pairs": "count",
    "series.max_terms": "count",
    "series.max_coeff_bits": "bits",
    "central.product_terms": "count",
    "central.product_max_bits": "bits",
    "oracle.whitney_central_subsets": "count",
    "oracle.ffield_points": "count",
    "oracle.census_graphs": "count",
}
STAGE_PREFIXES = ("central.", "charpoly.")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str


class Tracer:
    """Spans and counters kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.job = ""
        self.paused_s = 0.0
        self._open: list[int] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    @contextlib.contextmanager
    def span(self, name: str):
        record = Span(name, self.now(), 0.0, self._open[-1] if self._open else None, self.job)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record.end = self.now()

    @contextlib.contextmanager
    def bookkeeping(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is None:
                continue
            parent = self.spans[s.parent]
            if not _is_series(s.name) or _is_series(parent.name):
                own[s.parent] -= s.end - s.start
        return own


def _is_series(name: str) -> bool:
    return name.startswith("series.")


def _max_bits(series) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for _, c in series.items()),
        default=0,
    )


def _kept_pairs(a, b) -> int:
    """Term pairs of a*b whose degree sum lies inside the product's caps."""
    caps = a.caps.meet(b.caps)
    box = np.array([caps.dx, caps.dy, caps.dz])
    keys_a = np.array([k for k, _ in a.items()], dtype=np.int64).reshape(-1, 3)
    keys_b = np.array([k for k, _ in b.items()], dtype=np.int64).reshape(-1, 3)
    keys_b = keys_b[(keys_b <= box).all(axis=1)]
    grid = np.zeros(box + 1, dtype=np.int64)
    np.add.at(grid, tuple(keys_b.T), 1)
    below = grid.cumsum(0).cumsum(1).cumsum(2)  # b terms with every degree <= index
    room = box - keys_a
    room = room[(room >= 0).all(axis=1)]
    return int(below[tuple(room.T)].sum())


def _observe_series(tracer: Tracer, result) -> None:
    tracer.peak("series.max_terms", len(result))
    tracer.peak("series.max_coeff_bits", _max_bits(result))


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layers' public functions in spans; restore them on exit."""
    from pairsum import central, charpoly, oracle
    from pairsum.central import Mode
    from pairsum.series import TruncatedSeries

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pairsum"]
    restore: list[tuple[object, str, object]] = []

    def replace(owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        for holder in [owner, *modules]:
            for name, value in list(vars(holder).items()):
                if value is old:
                    restore.append((holder, name, old))
                    setattr(holder, name, new)

    def wrap(owner, attr: str, name_of, after=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:  # a layer this commit no longer has: its metrics read 0
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name_of(*args, **kwargs)):
                result = fn(*args, **kwargs)
            if after is not None:
                with tracer.bookkeeping():
                    after(result, *args, **kwargs)
            return result

        replace(owner, attr, wrapper)

    def fixed(name: str):
        return lambda *args, **kwargs: name

    mul = TruncatedSeries.__mul__

    def traced_mul(self, other):
        if not isinstance(other, TruncatedSeries):
            return mul(self, other)  # scalar scaling stays in its caller's time
        with tracer.span("series.mul"):
            result = mul(self, other)
        with tracer.bookkeeping():
            tracer.add("series.mul_calls", 1)
            tracer.add("series.mul_pairs", len(self) * len(other))
            tracer.add("series.mul_pairs_kept", _kept_pairs(self, other))
            _observe_series(tracer, result)
        return result

    def product_done(result, *args, **kwargs) -> None:
        tracer.peak("central.product_terms", len(result))
        tracer.peak("central.product_max_bits", _max_bits(result))

    try:
        replace(TruncatedSeries, "__mul__", traced_mul)
        for attr in ("exp", "log"):
            wrap(TruncatedSeries, attr, fixed(f"series.{attr}"),
                 lambda result, *a, **k: _observe_series(tracer, result))
        wrap(charpoly, "chi", fixed("charpoly.assemble"))
        wrap(charpoly, "chi_table", fixed("charpoly.chi_table"))
        wrap(central, "gamma_product", fixed("central.product"), product_done)
        wrap(central, "extract_counts", fixed("central.extract"))
        for factor in ("gamma0", "gamma2", "gamma3"):
            wrap(central, factor, fixed(f"central.{factor}"))
        wrap(central, "gamma1",
             lambda caps, mode=Mode.CORRECTED: f"central.gamma1_{Mode(mode).value}")
        wrap(oracle, "whitney_chi",
             lambda n, workers=1, **_: f"oracle.whitney_w{workers}")
        wrap(oracle, "finite_field_count", fixed("oracle.ffield"),
             lambda result, n, q, **_: tracer.add("oracle.ffield_points", q**n))
        wrap(oracle, "interpolate_counts", fixed("oracle.interpolate"))
        wrap(oracle, "enumerate_graphs", fixed("oracle.census"),
             lambda result, n, **_: tracer.add("oracle.census_graphs", 2 ** comb(n, 2)))
        yield
    finally:
        for holder, name, old in reversed(restore):
            setattr(holder, name, old)


def _call_main(main, argv: list[str], tracer: Tracer) -> tuple[float, int, bytes]:
    """(real seconds, exit code, stdout) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.span("cli.main"):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashing job fails; the pass goes on
                traceback.print_exc()
                code = 1
    return time.perf_counter() - start, code, out.getvalue().encode()


def _import_times(launches: int) -> tuple[float, float]:
    """Medians of the cumulative import time of pairsum.cli and of numpy."""
    cli_s, numpy_s = [], []
    for _ in range(launches):
        _, code, _, err, _ = launch.run_process(
            [sys.executable, "-X", "importtime", "-c", "import pairsum.cli"], 60
        )
        if code != 0:
            raise RuntimeError(f"importing pairsum.cli failed: {err.decode()[-500:]}")
        cumulative = {}
        for line in err.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        cli_s.append(cumulative["pairsum.cli"])
        numpy_s.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli_s), statistics.median(numpy_s)


def _probe_graphcounts(tracer: Tracer, sizes: list[int]) -> None:
    from pairsum import graphcounts as g

    probes = {
        "bicolored": g.bicolored_series,
        "connected_bipartite": g.connected_bipartite_series,
        "connected": g.connected_graph_counts,
        "no_isolated": g.graphs_no_isolated_series,
        "bipartite_no_isolated": g.bipartite_no_isolated_series,
    }
    for n in sizes:
        tracer.job = f"probe-n{n}"
        caps = g.default_caps(n)
        for name, fn in probes.items():
            with tracer.span(f"graphcounts.{name}"):
                fn(caps)


def _central_subsets(jobs: list[list[str]]) -> int:
    """Total of central_census over the distinct n of verify jobs that run the
    subset scan."""
    from pairsum.oracle import central_census

    sizes = {
        workloads.job_size(argv)
        for argv in jobs
        if argv[0] == "verify"
        and "whitney" in workloads.option(argv, "--oracles", "whitney")
        and workloads.job_size(argv) <= 5
    }
    return sum(sum(v for _, v in central_census(n).items()) for n in sorted(sizes))


def traced_run(workload: str, seed: int) -> dict:
    """Run the traced pass; returns metrics (name -> (value, unit)), counts of
    attempted and failed jobs, per-job details and the spans."""
    if str(launch.SRC) not in sys.path:
        sys.path.insert(0, str(launch.SRC))
    from pairsum import cli

    jobs = workloads.job_list(workload, seed)
    digests = checks.load_digests()
    timeout = workloads.TIMEOUT_S[workload]
    import_s, import_numpy_s = _import_times(5)  # also writes bytecode caches

    processes = [launch.run_job(argv, timeout) for argv in jobs]
    untraced, traced = Tracer(), Tracer()
    plain, spanned = [], []
    for i, argv in enumerate(jobs):
        untraced.job = f"j{i}"
        plain.append(_call_main(cli.main, argv, untraced))
    with instrumented(traced):
        for i, argv in enumerate(jobs):
            traced.job = f"j{i}"
            spanned.append(_call_main(cli.main, argv, traced))

    failures = {}
    for i, (proc, (_, code_a, out_a), (_, code_b, out_b)) in enumerate(zip(processes, plain, spanned)):
        reason = checks.check_job(proc.argv, proc.returncode, proc.stdout, digests)
        if reason is None and (code_a, code_b) != (proc.returncode, proc.returncode):
            reason = f"in-process exit codes {code_a}/{code_b}, process {proc.returncode}"
        if reason is None and not out_a == out_b == proc.stdout:
            reason = "in-process stdout differs from the process stdout"
        if reason is not None:
            failures[f"j{i}"] = reason

    _probe_graphcounts(traced, sorted({workloads.job_size(argv) for argv in jobs}))
    traced.counts["oracle.whitney_central_subsets"] = _central_subsets(jobs)

    seconds: dict[str, float] = {}
    stage: dict[str, float] = {}  # per job: self time of central.* and charpoly.* spans
    traced_main: dict[str, float] = {}
    for span, own in zip(traced.spans, traced.self_times()):
        if span.name == "cli.main":
            traced_main[span.job] = span.end - span.start
            continue
        seconds[span.name + "_s"] = seconds.get(span.name + "_s", 0.0) + own
        if span.name.startswith(STAGE_PREFIXES):
            stage[span.job] = stage.get(span.job, 0.0) + own
    main_s = [s.end - s.start for s in untraced.spans]
    pairs = traced.counts.get("series.mul_pairs", 0)
    metrics: dict[str, tuple[float, str]] = {
        **{name: (seconds.get(name, 0.0), "s") for name in TIME_METRICS},
        **{name: (traced.counts.get(name, 0), unit) for name, unit in COUNT_METRICS.items()},
        "series.mul_pairs_kept_frac": (
            traced.counts.get("series.mul_pairs_kept", 0) / pairs if pairs else 0.0, "ratio"
        ),
        "cli.import_s": (import_s, "s"),
        "cli.import_numpy_s": (import_numpy_s, "s"),
        "cli.main_s": (sum(main_s), "s"),
        "cli.process_overhead_s": (sum(p.wall_s for p in processes) - sum(main_s), "s"),
        "trace.overhead_s": (sum(w for w, _, _ in spanned) - sum(w for w, _, _ in plain), "s"),
        "trace.bookkeeping_s": (traced.paused_s, "s"),
    }
    details = []
    for i, (argv, proc) in enumerate(zip(jobs, processes)):
        job = f"j{i}"
        details.append({
            "job": job,
            "argv": argv,
            "process_wall_s": proc.wall_s,
            "main_s": main_s[i],
            "traced_main_s": traced_main[job],
            "stage_spans_s": stage.get(job, 0.0),
            "failure": failures.get(job),
        })
    return {
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": metrics,
        "jobs": details,
        "spans": [asdict(s) for s in traced.spans],
    }

