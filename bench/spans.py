"""Spans around finitype's public calls, kept in memory for the traced run.

No tracing code lives in the package.  ``traced_decide`` rebuilds
``decide_matrix`` from the same public calls in the same order, adding one
separate ``two_connected_components`` call so that ear peeling can be told
apart from the components search (ear peeling = ``chordless_cycles_cod``
minus components).  ``traced_cli`` swaps the two names ``run_command``
looks up in ``finitype.cli``, ``parse_matrix`` and ``decide_matrix``, for
traced ones while one command runs.

``Sampler`` checks the rebuild against the real ``decide_matrix``: it
samples untraced calls on process CPU time and counts each sample under
the stage call on the stack, so the share of ``decide_matrix`` spent
outside the traced stages comes from within one call, whatever the
machine's speed does between calls.
"""

from __future__ import annotations

import contextlib
import json
import signal
from collections import Counter, defaultdict
from time import perf_counter

from finitype import (
    Certificate,
    CompanionNotPositive,
    Decision,
    NotCyclicallyOrientedError,
    assign_signs,
    build_companion,
    build_quiver,
    chordless_cycles_cod,
    compute_skew_symmetrizer,
    first_nonpositive_minor,
    leading_principal_minors,
    two_connected_components,
)
import finitype.cli

# stages whose spans, under one "decide" span, add up to a decide_matrix call
STAGE_FUNCTIONS = {
    "exactmat.symmetrizer": compute_skew_symmetrizer,
    "quiver.build": build_quiver,
    "quiver.cod": chordless_cycles_cod,
    "companion.signs": assign_signs,
    "companion.build": build_companion,
    "exactmat.first_nonpositive": first_nonpositive_minor,
    "exactmat.all_minors": leading_principal_minors,
}
DECIDE_STAGES = tuple(STAGE_FUNCTIONS)
SAMPLE_INTERVAL_S = 0.001  # asked for; the kernel's tick may make it coarser
OUTSIDE = "outside stages"


class Recorder:
    """Spans (op, name, parent, start, end) and counters, in memory until written.

    ``counts`` are figures a change to the program can move; ``inputs`` are
    fixed by the inputs alone (sizes, minor bits) and only describe them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.inputs: dict[str, int] = defaultdict(int)
        self.op = -1
        self._parent = ""

    def call(self, name: str, fn, *args):
        outer, self._parent = self._parent, name
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op, name, outer, start, perf_counter()))
            self._parent = outer

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


class Sampler:
    """Process-CPU-time samples of untraced calls of one function, by stage.

    A sample taken inside ``top`` (by default ``decide_matrix``) counts
    under the outermost stage function on the stack, or under OUTSIDE when
    ``top``'s own code or a call that is not a traced stage was running.
    """

    def __init__(self, top=finitype.cli.decide_matrix) -> None:
        self.top = top.__code__
        self.stages = {fn.__code__: name for name, fn in STAGE_FUNCTIONS.items()}
        self.counts: Counter = Counter()

    def _sample(self, signum, frame) -> None:
        stage = OUTSIDE
        while frame is not None:
            if frame.f_code is self.top:
                self.counts[stage] += 1
                return
            stage = self.stages.get(frame.f_code, stage)
            frame = frame.f_back

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def coverage(samples: Counter) -> tuple[int, float]:
    """(samples, share inside a traced stage) of untraced calls; the share is 1.0 with none."""
    total = sum(samples.values())
    return total, (total - samples[OUTSIDE]) / total if total else 1.0


def totals(spans) -> dict[str, float]:
    """Seconds per span name."""
    out: dict[str, float] = defaultdict(float)
    for _, name, _, start, end in spans:
        out[name] += end - start
    return out


def traced_decide(rec: Recorder, matrix) -> Decision:
    """``decide_matrix`` rebuilt from public calls, one span per stage."""
    form = rec.call("exactmat.symmetrizer", compute_skew_symmetrizer, matrix)
    g = rec.call("quiver.build", build_quiver, form)
    rec.inputs["quiver.n"] += g.n
    rec.inputs["quiver.m"] += g.edge_count
    if not (g.edge_count > 0 and g.edge_count > 2 * g.n - 3):
        # chordless_cycles_cod runs the same search once past its global edge bound
        comps = rec.call("quiver.components", two_connected_components, g)
        rec.inputs["quiver.components"] += len(comps)
    try:
        inventory = rec.call("quiver.cod", chordless_cycles_cod, g)
    except NotCyclicallyOrientedError as err:
        return Decision(False, err.witness, None)
    rec.inputs["quiver.cycles"] += len(inventory.cycles)
    signs = rec.call("companion.signs", assign_signs, g, inventory)
    companion = rec.call("companion.build", build_companion, form, signs)
    bad = rec.call("exactmat.first_nonpositive", first_nonpositive_minor, companion.C)
    if bad is None:
        minors = tuple(rec.call("exactmat.all_minors", leading_principal_minors, companion.C))
        return Decision(True, None, Certificate(inventory, companion, minors))
    return Decision(False, CompanionNotPositive(bad[0], bad[1], companion), None)


def decide(rec: Recorder, matrix, decisions: list) -> Decision:
    """``traced_decide`` under a "decide" span; the result is appended to ``decisions``."""
    decisions.append(rec.call("decide", traced_decide, rec, matrix))
    return decisions[-1]


def count_decision(rec: Recorder, decision: Decision) -> None:
    """Counters read off a finished decision, outside every span."""
    if decision.finite:
        companion, minors = decision.certificate.companion, decision.certificate.minors
    elif isinstance(decision.reason, CompanionNotPositive):
        companion, minors = decision.reason.companion, (decision.reason.minor,)
    else:
        return
    rec.inputs["companion.nnz"] += sum(1 for row in companion.C.entries for v in row if v)
    bits = max(m.bit_length() for m in minors)
    rec.inputs["exactmat.minor_bits_max"] = max(rec.inputs["exactmat.minor_bits_max"], bits)


@contextlib.contextmanager
def traced_cli(rec: Recorder, decisions: list):
    """Route ``run_command``'s parse and decide calls through spans.

    Each traced ``Decision`` is appended to ``decisions`` so the caller can
    compare it with the untraced one.
    """
    parse, untraced = finitype.cli.parse_matrix, finitype.cli.decide_matrix

    def traced_parse(text):
        rec.inputs["cli.doc_bytes"] += len(text)
        return rec.call("cli.parse", parse, text)

    finitype.cli.parse_matrix = traced_parse
    finitype.cli.decide_matrix = lambda matrix: decide(rec, matrix, decisions)
    try:
        yield
    finally:
        finitype.cli.parse_matrix, finitype.cli.decide_matrix = parse, untraced
