"""Benchmark for finitype: three workloads, end-to-end metrics, per-layer spans.

Run from the repository root, standard library only:

    python3 bench/run.py --workload small-batch --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one caller, run in this process on
inputs generated from ``--seed``:

  large-cli          run_command(["decide", FILE, "--json"]) on seven dense
                     documents (n = 500, one n = 1000), report to a file
  small-batch        decide_matrix on 2000 parsed matrices with n = 2..16
  oracle-crosscheck  decide_matrix, explore_mutation_class and
                     brute_force_positive_companion on n = 3..6; all agree

Whole passes over the input set repeat until the timed ops add up to
``--seconds``.  Every output is checked outside the timed region by
``verify.py``, which shares no code with finitype.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` instead runs passes in which each op
is traced, with a span around every public call (``spans.py``), next to
the same op untraced, and reports per-layer metrics.  The last line of
stdout is one JSON object with the metrics; the line before it is one JSON
object ``{"details": ...}`` with figures that are not metrics: each time
figure as measured, the tail and the failed share, or the counts fixed by
the inputs and each large op's stage coverage.

End-to-end time figures are scaled to one nominal machine speed: a fixed
piece of pure-Python work (``reference_work``) is timed after about every
half second of timed work, and each op's time is multiplied by
REF_NOMINAL_S over the mean reference time just before and just after it.
On a shared host whose speed changes by a third within seconds this keeps
runs made at different times comparable; the details line keeps every
figure as measured as well.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"

# finitype comes from this checkout's src/ and nowhere else
if not (SRC / "finitype" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'finitype'} not found; run from the root of a finitype checkout")
sys.path.insert(0, str(SRC))

import finitype  # noqa: E402
from finitype import (  # noqa: E402
    CompanionNotPositive,
    SquareIntMatrix,
    brute_force_positive_companion,
    compute_skew_symmetrizer,
    decide_matrix,
    explore_mutation_class,
    parse_matrix,
    run_command,
)

import inputs  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

if Path(finitype.__file__).resolve().parent != (SRC / "finitype").resolve():
    sys.exit(f"error: imported finitype from {finitype.__file__}, not from {SRC}")

SETUP_PROBES = 7
LARGE_N = 500  # large-cli document size, even
LARGEST_N = 1000  # large-cli relabeled path
SMALL_BATCH_SIZE = 2000
ORACLE_ROUNDS = 12
TAIL_PERCENTILES = (90, 95, 99, 99.9, 99.99)
STAGE_TOLERANCE = 0.03  # largest share of decide_matrix allowed outside the traced stages
STAGE_MIN_SAMPLES = 50  # an op with fewer CPU-time samples gets no coverage check of its own
REF_NOMINAL_S = 0.035  # time of reference_work at the nominal machine speed
REF_EVERY_S = 0.5  # timed work between two samples of reference_work

# one fresh interpreter: import the CLI and decide a 2x2 document
PROBE = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from finitype.cli import run_command\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = run_command(['decide', sys.argv[2], '--json'])\n"
    "sys.exit(code)\n"
)


@dataclass
class Item:
    """One program input, with the generator's own copy of the matrix."""

    name: str
    n: int
    b: dict
    expected: verify.Expected
    matrix: object = None  # SquareIntMatrix for the library workloads
    path: Optional[Path] = None  # matrix document for large-cli


@dataclass
class Workload:
    items: list[Item]
    op: Callable  # (item, out_path) -> output
    traced_op: Callable  # (rec, item, out_path, decisions) -> output
    check: Callable  # (item, output) -> problem or None
    defer_checks: bool  # check after the peak-RSS reading (large outputs)


# ---------------------------------------------------------------------------
# workloads


def large_cli(rng: random.Random, work: Path) -> Workload:
    """The CLI user deciding one big matrix: dense parse, quadratic stages, 11 MB JSON."""
    n, finite = LARGE_N, verify.Expected(verify.FINITE)
    specs = [
        ("a-path", inputs.dynkin("A", n, rng), finite),
        ("a-path-relabeled", inputs.relabel(*inputs.dynkin("A", LARGEST_N, rng), rng), finite),
        ("d-walk", inputs.mutation_walk(*inputs.dynkin("D", n, rng), 4 * n, rng), finite),
        ("b-path", inputs.dynkin("B", n, rng), finite),
        ("affine-d", inputs.affine("D", n, rng),
         verify.Expected(verify.NOT_FINITE, "companion_not_positive", (n, 0))),
        ("alternating-cycle", inputs.alternating_cycle(n),
         verify.Expected(verify.NOT_FINITE, "non_cyclic_cycle")),
        ("ear-adversary", inputs.ear_adversary(n // 2, n - n // 2 - 2),
         verify.Expected(verify.NOT_FINITE, "structural_failure")),
    ]
    items = []
    for name, (size, b), expected in specs:
        path = work / f"{name}.mat"
        path.write_text(inputs.document(size, b, name), encoding="ascii")
        items.append(Item(name, size, b, expected, path=path))

    def op(item, out_path):
        with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            code = run_command(["decide", str(item.path), "--json"])
        return code, out_path

    def traced_op(rec, item, out_path, decisions):
        with spans.traced_cli(rec, decisions):
            output = op(item, out_path)
        rec.counts["cli.report_bytes"] += out_path.stat().st_size
        return output

    def check(item, output):
        code, out_path = output
        text = Path(out_path).read_text(encoding="utf-8")
        Path(out_path).unlink()
        out = verify.from_report(text)
        if code != (0 if out.verdict == verify.FINITE else 1):
            return f"exit code {code} for verdict {out.verdict}"
        return verify.check(item.n, item.b, out, item.expected)

    return Workload(items, op, traced_op, check, defer_checks=True)


# (smallest, largest) n per type in small-batch
DYNKIN_SIZES = {"A": (2, 16), "B": (2, 16), "C": (2, 16), "D": (4, 16), "E": (6, 8),
                "F": (4, 4), "G": (2, 2)}
AFFINE_SIZES = {"B": (4, 16), "C": (3, 16), "D": (5, 16), "E": (7, 9), "F": (5, 5),
                "G": (3, 3)}


def _seed_item(rng: random.Random, kind: str, n: int, b: dict, finite: bool) -> Item:
    """A Dynkin or affine seed, relabeled and, half the time, mutated."""
    n, b = inputs.relabel(n, b, rng)
    walk = rng.randint(1, 2 * n) if rng.random() < 0.5 else 0
    n, b = inputs.mutation_walk(n, b, walk, rng)
    if finite:
        expected = verify.Expected(verify.FINITE)
    elif walk == 0:  # every proper leading block is Dynkin, the whole one singular
        expected = verify.Expected(verify.NOT_FINITE, "companion_not_positive", (n, 0))
    else:
        expected = verify.Expected(verify.NOT_FINITE)
    label = ("" if finite else "affine-") + f"{kind}{n}" + (f"-walk{walk}" if walk else "")
    return Item(label, n, b, expected)


def _with_matrices(items: list[Item]) -> list[Item]:
    for item in items:
        item.matrix = SquareIntMatrix.from_rows(inputs.dense_rows(item.n, item.b))
    return items


def small_batch(rng: random.Random, work: Path) -> Workload:
    """The library user classifying many small quivers: per-call overhead dominates."""
    items = []
    for idx in range(SMALL_BATCH_SIZE):
        slot = idx % 10
        if slot < 3:
            n, b = inputs.glued_cycles(rng.randint(3, 16), rng)
            items.append(Item(f"glued{n}", n, b, verify.Expected()))
        elif slot < 6:
            n, b = inputs.random_skew(rng.randint(2, 16), rng)
            items.append(Item(f"random{n}", n, b, verify.Expected()))
        elif slot < 9:
            kind = rng.choice("AABCDDEFG")
            n, b = inputs.dynkin(kind, rng.randint(*DYNKIN_SIZES[kind]), rng)
            items.append(_seed_item(rng, kind, n, b, finite=True))
        else:
            kind = rng.choice("BCDDEFG")
            n, b = inputs.affine(kind, rng.randint(*AFFINE_SIZES[kind]), rng)
            items.append(_seed_item(rng, kind, n, b, finite=False))

    def op(item, out_path):
        return decide_matrix(item.matrix)

    def traced_op(rec, item, out_path, decisions):
        return spans.decide(rec, item.matrix, decisions)

    def check(item, decision):
        return verify.check(item.n, item.b, verify.from_decision(decision), item.expected)

    return Workload(_with_matrices(items), op, traced_op, check, defer_checks=False)


# mutation classes of these finish well inside the default oracle limit; the
# affine ones at n = 6 other than D~5 vary too much in search length by seed
ORACLE_DYNKIN = (("A", 3), ("A", 4), ("A", 5), ("B", 3), ("B", 4), ("C", 4), ("C", 5),
                 ("D", 4), ("D", 5), ("F", 4))
ORACLE_AFFINE = (("G", 3), ("C", 3), ("C", 4), ("B", 4), ("B", 5), ("C", 5), ("D", 5),
                 ("F", 5), ("D", 6))


def oracle_crosscheck(rng: random.Random, work: Path) -> Workload:
    """The cross-validation user: what ``compare`` does, through the library."""
    items = []
    for _ in range(ORACLE_ROUNDS):
        for kind, n in ORACLE_DYNKIN:
            items.append(_seed_item(rng, kind, *inputs.dynkin(kind, n, rng), finite=True))
        for kind, n in ORACLE_AFFINE:
            items.append(_seed_item(rng, kind, *inputs.affine(kind, n, rng), finite=False))
        # n <= 5: a finite class at n = 6 takes seconds to exhaust.  Few of
        # these, as most stop at once on a large entry: p50 then falls among
        # the 2-3 ms class searches, not on the edge between the two groups.
        n, b = inputs.glued_cycles(rng.randint(3, 5), rng)
        items.append(Item(f"glued{n}", n, b, verify.Expected()))
        n, b = inputs.random_skew(rng.randint(3, 5), rng)
        items.append(Item(f"random{n}", n, b, verify.Expected()))

    def crosscheck(item, decide, call):
        decision = decide(item.matrix)
        form = call("exactmat.symmetrizer", compute_skew_symmetrizer, item.matrix)
        report = call("oracle.class", explore_mutation_class, form)
        found = None
        if decision.finite or isinstance(decision.reason, CompanionNotPositive):
            found = call("oracle.brute", brute_force_positive_companion, form) is not None
        return decision, report, found

    def op(item, out_path):
        return crosscheck(item, decide_matrix, lambda name, fn, *args: fn(*args))

    def traced_op(rec, item, out_path, decisions):
        decision, report, found = crosscheck(
            item, lambda matrix: spans.decide(rec, matrix, decisions), rec.call)
        rec.counts["oracle.class_visited"] += report.visited
        rec.inputs["oracle.brute_exhausted"] += found is False
        return decision, report, found

    def check(item, output):
        decision, report, found = output
        out = verify.from_decision(decision)
        return verify.check(item.n, item.b, out, item.expected) or \
            verify.crosscheck_disagreement(verify.Crosscheck(out, report.status.value, found))

    return Workload(_with_matrices(items), op, traced_op, check, defer_checks=False)


WORKLOADS = {"large-cli": large_cli, "small-batch": small_batch,
             "oracle-crosscheck": oracle_crosscheck}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def note(self, item: Item, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {item.name}: {problem}", file=sys.stderr)


def _problem(wl: Workload, item: Item, output) -> Optional[str]:
    if isinstance(output, Exception):
        return f"raised {output!r}"
    try:
        return wl.check(item, output)
    except Exception as err:  # a malformed output must count as failed, not stop the run
        return f"check raised {err!r}"


def _freeze() -> None:
    """Move the benchmark's own objects out of the collector's way before timing."""
    gc.collect()
    gc.freeze()


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # counted as a failed op by _problem
        return err


def reference_work() -> int:
    """Fixed pure-Python work, independent of finitype, whose time gauges the machine.

    Its mix follows the program's: a double loop over a dense tuple grid,
    Fraction sums and sparse rational elimination.
    """
    acc = 0
    for _ in range(3):
        n = 150
        grid = tuple(tuple((i * j) % 7 - 3 for j in range(n)) for i in range(n))
        for i in range(n):
            row = grid[i]
            for j in range(i + 1, n):
                if row[j] * grid[j][i] < 0:
                    acc += 1
        acc += sum(Fraction(1, k) for k in range(1, 200)).numerator % 997
        m = 30
        rows = [{j: v for j, v in ((i - 1, -1), (i, 3), (i + 1, -1), ((i * 7) % m, 1))
                 if 0 <= j < m} for i in range(m)]
        for i in range(m):  # symmetric pattern, as leading_minors needs
            for j in list(rows[i]):
                rows[j].setdefault(i, rows[i][j])
        acc += verify.leading_minors(rows, m)[-1] % 997
    return acc


class Gauge:
    """Machine speed, from the time of ``reference_work`` run next to the timed work.

    On a shared host the speed can change by a third within seconds.  Each
    sample runs ``reference_work`` about once per REF_EVERY_S of timed work
    since the last one, at least once, and keeps its mean time.  Work done
    between samples k and k + 1 is multiplied by REF_NOMINAL_S over the
    mean of the two, so that it reads as at one nominal speed and runs at
    different times compare.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self, timed_s: float = 0.0) -> int:
        """Take a sample after ``timed_s`` seconds of timed work; return its index."""
        reps = max(1, round(timed_s / REF_EVERY_S))
        # the collector off, so the heap the program leaves alive cannot change the gauge
        enabled = gc.isenabled()
        gc.disable()
        c0, t0 = process_time(), perf_counter()
        for _ in range(reps):
            reference_work()
        t1, c1 = perf_counter(), process_time()
        if enabled:
            gc.enable()
        self.wall.append((t1 - t0) / reps)
        self.cpu.append((c1 - c0) / reps)
        return len(self.wall) - 1

    def scales(self, k: int) -> tuple[float, float]:
        """(wall, cpu) factors for work done between samples k and k + 1."""
        return (2 * REF_NOMINAL_S / (self.wall[k] + self.wall[k + 1]),
                2 * REF_NOMINAL_S / (self.cpu[k] + self.cpu[k + 1]))


def setup_seconds(work: Path, tally: Tally) -> tuple[float, float]:
    """Median wall time of fresh processes that import the CLI and decide one 2x2 document.

    Returns (scaled to the nominal speed, as measured).
    """
    doc = work / "probe.mat"
    doc.write_text("2\n0 1\n-1 0\n", encoding="ascii")
    probe = Item("setup-probe", 2, {}, verify.Expected())
    gauge = Gauge()
    times = []
    for k in range(SETUP_PROBES):
        gauge.sample()
        start = perf_counter()
        # with pipes the parent wakes on the child's exit; waiting on the
        # process alone with a timeout polls, in steps of up to 50 ms
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(doc)],
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        times.append(perf_counter() - start)
        tally.note(probe, None if proc.returncode == 0 else f"exit {proc.returncode}")
    gauge.sample()
    scaled = [t * gauge.scales(k)[0] for k, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times)


@dataclass
class Loop:
    """Untraced closed loop: whole passes until the timed ops reach the run length.

    One entry per op in each array, which keep the benchmark's own memory
    out of the peak RSS.
    """

    passes: array  # pass of the op
    wall: array  # seconds
    cpu: array
    gauge_k: array  # the gauge sample taken last before the op
    peak_rss_mb: float
    gauge: Gauge

    def times(self, scaled: bool) -> tuple[list[float], list[float], list[float]]:
        """(wall per op, wall per pass, cpu per pass), at the nominal speed or as measured."""
        op_wall: list[float] = []
        pass_wall: dict[int, float] = defaultdict(float)
        pass_cpu: dict[int, float] = defaultdict(float)
        for p, wall, cpu, k in zip(self.passes, self.wall, self.cpu, self.gauge_k):
            wall_scale, cpu_scale = self.gauge.scales(k) if scaled else (1.0, 1.0)
            op_wall.append(wall * wall_scale)
            pass_wall[p] += wall * wall_scale
            pass_cpu[p] += cpu * cpu_scale
        return op_wall, list(pass_wall.values()), list(pass_cpu.values())


def run_loop(wl: Workload, seconds: float, work: Path, tally: Tally) -> Loop:
    loop = Loop(array("l"), array("d"), array("d"), array("l"), 0.0, Gauge())
    pending = []
    verified: dict[int, object] = {}  # an output that passed its check, per item
    k = loop.gauge.sample()
    busy = since_sample = 0.0
    passes = 0
    while busy < seconds or not passes:
        for idx, item in enumerate(wl.items):
            out_path = work / f"out-{passes}-{idx}.json"
            c0, t0 = process_time(), perf_counter()
            output = _call(wl.op, item, out_path)
            t1, c1 = perf_counter(), process_time()
            loop.passes.append(passes)
            loop.wall.append(t1 - t0)
            loop.cpu.append(c1 - c0)
            loop.gauge_k.append(k)
            busy += t1 - t0
            since_sample += t1 - t0
            if since_sample >= REF_EVERY_S:
                k = loop.gauge.sample(since_sample)
                since_sample = 0.0
            if wl.defer_checks:
                pending.append((item, output))
            elif idx in verified and output == verified[idx]:
                tally.note(item, None)
            else:
                problem = _problem(wl, item, output)
                tally.note(item, problem)
                if problem is None:
                    verified[idx] = output
        passes += 1
    loop.gauge.sample(since_sample)
    loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for item, output in pending:
        tally.note(item, _problem(wl, item, output))
    return loop


def tail(samples: list[float]) -> Optional[tuple[float, float]]:
    """(percentile, value) for the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    best = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p / 100 * len(ordered), 9))  # round off float error
        if rank >= 1 and len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def end_to_end(wl: Workload, loop: Loop, setup: tuple[float, float],
               tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, time figures scaled to the nominal machine speed; details."""
    metrics, measured = {}, {}
    for scaled, out in ((True, metrics), (False, measured)):
        op_wall, pass_wall, pass_cpu = loop.times(scaled)
        figures = {
            "setup_s": (setup[0] if scaled else setup[1], "s"),
            "ops_per_s": (len(wl.items) / statistics.median(pass_wall), "1/s"),
            "p50_ms": (1e3 * statistics.median(op_wall), "ms"),
            "cpu_s": (statistics.median(pass_cpu), "s"),
            "peak_rss_mb": (loop.peak_rss_mb, "MB"),
        }
        t = tail(op_wall)
        if t is not None:
            figures["tail_ms"] = (1e3 * t[1], "ms")
        for name, (value, unit) in figures.items():
            out[name] = {"value": value, "unit": unit}
    n_ops, passes = len(loop.wall), len(pass_wall)
    how = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "ops_per_s": f"ops per pass over the median pass time of {passes} passes",
        "p50_ms": f"median of {n_ops} ops",
        "cpu_s": f"median over {passes} passes of {len(wl.items)} ops",
        "peak_rss_mb": "getrusage, before the output checks",
    }
    print(f"  time figures scaled op by op to the nominal speed, from {len(loop.gauge.wall)} "
          f"samples of the reference work")
    t = tail(loop.times(True)[0])
    if t is not None:
        how["tail_ms"] = f"p{t[0]} of {n_ops} ops"
    for name, metric in metrics.items():
        print(f"  {name:12s} {metric['value']:14.6g} {metric['unit']:4s} as measured "
              f"{measured[name]['value']:<12.6g} {how[name]}")
    if t is None:
        print(f"  {'tail_ms':12s} {'n/a':>14s}      too few ops for a tail")
    print(f"  {'failed_frac':12s} {tally.failed / tally.attempted:14.6g}      "
          f"{tally.failed} of {tally.attempted} ops")
    details = {"as_measured": measured, "gauge_samples": len(loop.gauge.wall),
               "p50_samples": n_ops,
               "failed_frac": {"value": tally.failed / tally.attempted, "unit": "frac"}}
    if "tail_ms" in metrics:
        details["tail_ms"] = dict(metrics.pop("tail_ms"), percentile=t[0], samples=n_ops)
    return metrics, details


def _timed(fn, *args):
    start = perf_counter()
    output = _call(fn, *args)
    return output, perf_counter() - start


def traced_passes(wl: Workload, seconds: float, work: Path, tally: Tally,
                  spans_path: Path) -> tuple[dict, dict]:
    """Traced passes until they reach the run length; per-layer metrics and details.

    Each op runs traced and untraced, in alternating order, so machine
    drift falls evenly on both sides of the overhead.  The traced op sits
    between two untraced ``decide_matrix`` calls on the same input: the
    first gives the decision the traced one must equal, and the mean of
    the two is what the traced op's stage spans are set against
    (``stage_sum``).  The CPU-time ``Sampler`` runs through all passes, as
    a timer restarted per call would not fire on calls shorter than its
    interval; it counts samples in every untraced ``decide_matrix``.  An
    op with at least STAGE_MIN_SAMPLES samples fails if more than
    STAGE_TOLERANCE of them fall outside the stages the traced run puts
    spans around.
    """
    rec, sampler = spans.Recorder(), spans.Sampler()
    per_op = {}
    traced_total = untraced_total = stage_total = decide_total = busy = 0.0
    passes = 0
    with sampler.running():
        while busy == 0.0 or busy < seconds:
            passes += 1
            for idx, item in enumerate(wl.items):
                matrix = item.matrix or parse_matrix(item.path.read_text(encoding="utf-8"))
                out_path = work / f"traced-{idx}.json"
                decisions: list = []
                rec.op += 1
                first_span, before = len(rec.spans), sampler.counts.copy()
                steps = ("decide", "traced", "decide", "untraced")
                decide_s = []
                for step in steps if (passes + idx) % 2 else steps[-1:] + steps[:-1]:
                    if step == "decide":
                        decision, elapsed = _timed(decide_matrix, matrix)
                        if not decide_s:
                            want = decision
                        decide_s.append(elapsed)
                    elif step == "traced":
                        traced, traced_s = _timed(rec.call, "op", wl.traced_op, rec, item,
                                                  out_path, decisions)
                        problem = _problem(wl, item, traced)
                    else:
                        untraced, untraced_s = _timed(wl.op, item, out_path)
                        tally.note(item, _problem(wl, item, untraced))
                del matrix
                if problem is None and decisions != [want]:
                    problem = "traced decision differs from decide_matrix"
                for decision in decisions:
                    spans.count_decision(rec, decision)
                own = spans.totals(span for span in rec.spans[first_span:] if span[2] == "decide")
                stage_s = sum(own[name] for name in spans.DECIDE_STAGES)
                stage_sum = stage_s / statistics.mean(decide_s)
                n_samples, cover = spans.coverage(sampler.counts - before)
                if n_samples >= STAGE_MIN_SAMPLES:
                    per_op[f"{rec.op}:{item.name}"] = {"samples": n_samples, "cover": cover,
                                                        "stage_sum": stage_sum}
                    print(f"  {item.name:20s} untraced decide_matrix: {n_samples} samples, "
                          f"{cover:.4f} inside the traced stages; traced stage spans "
                          f"{stage_sum:.3f} of its time (" +
                          ", ".join(f"{1e3 * t:.0f}" for t in decide_s) + f" ms around "
                          f"{1e3 * stage_s:.0f} ms)")
                    if problem is None and cover < 1 - STAGE_TOLERANCE:
                        problem = (f"decide_matrix spends {1 - cover:.3f} of its time outside "
                                   f"the traced stages")
                tally.note(item, problem)
                traced_total += traced_s
                untraced_total += untraced_s
                stage_total += stage_s
                decide_total += statistics.mean(decide_s)
                busy += traced_s + untraced_s + sum(decide_s)
    rec.write(spans_path)

    tot = spans.totals(rec.spans)
    n_ops = rec.op + 1
    op_time = tot["op"] - tot["quiver.components"]  # the extra components call is overhead
    # run_command minus its parse and decide spans: argparse, file read, JSON rendering
    report = tot["op"] - tot["cli.parse"] - tot["decide"] if "cli.parse" in tot else 0.0
    layers = {
        "cli": tot["cli.parse"] + report,
        "exactmat": tot["exactmat.symmetrizer"] + tot["exactmat.first_nonpositive"]
        + tot["exactmat.all_minors"],
        "quiver": tot["quiver.build"] + tot["quiver.cod"],
        "companion": tot["companion.signs"] + tot["companion.build"],
        "oracle": tot["oracle.class"] + tot["oracle.brute"],
    }
    metrics: dict[str, tuple[float, str]] = {}
    for layer, busy_s in layers.items():
        metrics[f"{layer}.share"] = (busy_s / op_time, "frac")
    ms = {
        "exactmat.symmetrizer_ms": tot["exactmat.symmetrizer"],
        "exactmat.first_nonpositive_ms": tot["exactmat.first_nonpositive"],
        "exactmat.all_minors_ms": tot["exactmat.all_minors"],
        "quiver.build_ms": tot["quiver.build"],
        "quiver.components_ms": tot["quiver.components"],
        "quiver.ear_peel_ms": tot["quiver.cod"] - tot["quiver.components"],
        "companion.signs_ms": tot["companion.signs"],
        "companion.build_ms": tot["companion.build"],
    }
    for name, total_s in ms.items():
        metrics[name] = (1e3 * total_s / n_ops, "ms")
    metrics["cli.parse_share"] = (tot["cli.parse"] / op_time, "frac")
    metrics["cli.report_share"] = (report / op_time, "frac")
    metrics["oracle.class_share"] = (tot["oracle.class"] / op_time, "frac")
    metrics["oracle.brute_share"] = (tot["oracle.brute"] / op_time, "frac")
    # counts are per pass
    metrics["cli.report_bytes"] = (rec.counts["cli.report_bytes"] // passes, "bytes")
    metrics["oracle.class_visited"] = (rec.counts["oracle.class_visited"] // passes, "count")
    n_samples, cover = spans.coverage(sampler.counts)
    metrics["trace.stage_cover_frac"] = (cover, "frac")
    # stage spans over the untraced decide_matrix time around them; 1 is exact
    metrics["trace.stage_sum_gap"] = (abs(stage_total / decide_total - 1), "frac")
    metrics["trace.overhead_frac"] = (traced_total / untraced_total - 1, "frac")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(f"  stage coverage from {n_samples} CPU-time samples of untraced decide_matrix; "
          f"stage spans {stage_total / decide_total:.4f} of the untraced time")
    inputs_per_pass = {name: rec.inputs[name] // passes for name in (
        "quiver.n", "quiver.m", "quiver.components", "quiver.cycles", "companion.nnz",
        "cli.doc_bytes", "oracle.brute_exhausted")}
    inputs_per_pass["exactmat.minor_bits_max"] = rec.inputs["exactmat.minor_bits_max"]
    print("  fixed by the inputs, per pass: "
          + ", ".join(f"{name} {value}" for name, value in inputs_per_pass.items()))
    details = {"inputs_per_pass": inputs_per_pass, "stage_samples": n_samples,
               "stage_sum_frac": stage_total / decide_total, "large_ops": per_op}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, \
        details


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        tally = Tally()
        setup = None if args.trace else setup_seconds(work, tally)
        wl = WORKLOADS[args.workload](random.Random(args.seed), work)
        print(f"{args.workload} seed {args.seed}: {len(wl.items)} inputs")
        _freeze()
        if args.trace:
            metrics, details = traced_passes(wl, args.seconds, work, tally,
                                             WORK / f"spans-{args.workload}.jsonl")
        else:
            metrics, details = end_to_end(wl, run_loop(wl, args.seconds, work, tally), setup,
                                          tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
