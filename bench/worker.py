"""The measured process: runs one workload's ops in a closed loop.

One caller, one thread: each op starts when the previous one has
returned.  Ops go through the CLI handlers in-process, the way ``main``
calls them, with output captured in buffers.  Usage (from the repository
root, after ``run.py`` has written the inputs):

    PYTHONPATH=src python3 bench/worker.py WORKDIR SECONDS TRACE

The last line of standard output is a JSON object with the metrics.
"""

from __future__ import annotations

import bisect
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import answers
import reference


class Runner:
    """Executes ops and judges each result against its known answer."""

    def __init__(self) -> None:
        from freezeml import cli
        from freezeml.prelude import build_prelude

        self.cli = cli
        self.golden_gamma = build_prelude()  # cmd_golden builds it once per run
        self.captured: dict[str, object] = {}
        self._hook("render_fterm", "freezeml.systemf")
        self._hook("render_term", "freezeml.parser")

    def _hook(self, name: str, home: str) -> None:
        """Keep the last term the CLI prints, to count its nodes later.

        The hook calls through the defining module, so a traced wrapper
        installed there later still sees the call.
        """
        module = sys.modules[home]
        captured = self.captured

        def hook(term, *args, **kwargs):
            captured[name] = term
            return getattr(module, name)(term, *args, **kwargs)

        setattr(self.cli, name, hook)

    def cli_call(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        args = self.cli.build_arg_parser().parse_args(argv)
        code = args.handler(args, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def run(self, op: dict):
        """Run one op; returns what the judge needs.  Raises on failure."""
        self.captured.clear()
        kind = op["kind"]
        if kind == "golden":
            row = op["corpus_row"]
            corpus_row = self.cli.CorpusRow(
                row["label"], row["source"], row["expected"],
                tuple(tuple(extra) for extra in row["extras"]), row["line"],
            )
            return self.cli.run_corpus_row(corpus_row, self.golden_gamma)
        if kind == "cli":
            return self.cli_call(op["argv"])
        if kind == "roundtrip":
            code, out, err = self.cli_call(["import", op["source"]])
            encoding = self.captured.get("render_term")
            if code != 0:
                return ("import", code, out, err, None)
            with open(op["encoding"], "w", encoding="utf-8") as handle:
                handle.write(out)
            code, out, err = self.cli_call(["infer", op["encoding"]])
            return ("infer", code, out, err, encoding)
        raise ValueError(kind)


def judge(op: dict, result) -> tuple[bool, str, bool]:
    """(ok, cause of failure, wrong): `wrong` marks a wrong answer, as
    opposed to an op that raised or refused its input."""
    expect = op["expect"]
    if op["kind"] == "golden":
        ok, detail = result
        if expect["type"] is None:
            if ok and detail.startswith("rejected"):
                return True, "", False
            return False, "golden accepted a FAIL row", True
        if ok and answers.matches(detail, expect["type"]):
            return True, "", False
        return False, "golden row: wrong type or rejected", True
    if op["kind"] == "roundtrip":
        step, code, out, err, _ = result
        if code == 2:
            return False, f"{step} exit 2: {_message(err)}", False
        if code != 0:
            return False, f"{step} exit {code}", True
        return _typed(out.splitlines()[0] if out else "", "first", expect["type"], step)
    code, out, err = result
    command = op["argv"][0]
    if code == 2:
        return False, f"{command} exit 2: {_message(err)}", False
    if code != expect["exit"]:
        return False, f"{command} exit {code}, expected {expect['exit']}", True
    if expect["type"] is None:
        if code == 0 and out:
            return False, f"{command} printed output", True
        return True, "", False
    lines = out.splitlines()
    line = lines[0] if expect["where"] == "first" else (lines[-1] if lines else "")
    return _typed(line, expect["where"], expect["type"], command)


def _typed(line: str, where: str, expected: str, command: str) -> tuple[bool, str, bool]:
    if where == "first":
        printed = line.rpartition(" : ")[2]
    else:
        printed = line[2:] if line.startswith(": ") else ""
    if answers.matches(printed, expected):
        return True, "", False
    return False, f"{command} printed a wrong type", True


def _message(err: str) -> str:
    """A diagnostic without its path and position, to group failures."""
    first = err.strip().splitlines()[0] if err.strip() else ""
    return first.partition("error: ")[2] or first


def count_nodes(term) -> int:
    """Nodes of a term, its annotations included (types, terms, F terms)."""
    from freezeml.syntax import Term, Type
    from freezeml.systemf import FTerm

    kinds = (Term, Type, FTerm)
    nodes, stack = 0, [term]
    while stack:
        item = stack.pop()
        if isinstance(item, kinds):
            nodes += 1
            stack.extend(getattr(item, f) for f in item.__dataclass_fields__ if f != "span")
        elif isinstance(item, tuple):
            stack.extend(item)
    return nodes


def deriv_nodes(derivation) -> int:
    nodes, stack = 0, [derivation]
    while stack:
        item = stack.pop()
        nodes += 1
        for field in ("body", "fn", "arg", "bound"):
            child = getattr(item, field, None)
            if child is not None and hasattr(child, "map_types"):
                stack.append(child)
    return nodes


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Speed:
    """Times the reference loop every PERIOD_S of wall time.

    A SIGALRM handler asks for a sample, so long ops are sampled while
    they run, not only around them.  The loop itself runs on a helper
    thread while the interrupted op waits: on the op's own stack, calls
    that straddle one of the interpreter's frame-stack chunks run up to
    ten times slower at some depths.  The handler's time is subtracted
    from the op it interrupted.  If the handler meets the recursion limit
    (an op nearly out of stack), it skips that sample.
    """

    PERIOD_S = 0.1

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.at: list[float] = []
        self.loop_s: list[float] = []
        self.stolen = 0.0  # seconds spent in the handler so far
        self._asked = threading.Event()
        self._answered = threading.Event()
        self._closing = False
        self._answer = 0.0
        self._helper = threading.Thread(target=self._serve, name="reference-loop", daemon=True)

    def _serve(self) -> None:
        while True:
            self._asked.wait()
            self._asked.clear()
            if self._closing:
                return
            self._answer = reference.loop_seconds()
            self._answered.set()

    def _tick(self, *_) -> None:
        start = perf_counter()
        span = self.recorder.begin(REFERENCE_SPAN) if self.recorder and self.recorder.busy() else None
        try:
            self._answered.clear()
            self._asked.set()
            self._answered.wait()
            loop_s = self._answer
        except RecursionError:
            loop_s = None
        finally:
            if span is not None:
                self.recorder.end(span)
        end = perf_counter()
        self.stolen += end - start
        if loop_s is not None:
            self.at.append(end)
            self.loop_s.append(loop_s)

    def __enter__(self) -> "Speed":
        self._helper.start()
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        self._closing = True
        self._asked.set()
        self._helper.join()

    def factor(self, start: float, end: float) -> float:
        """The speed factor from the loop's median time during [start, end],
        or at the samples just before and after it."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        around = self.loop_s[lo:hi] or self.loop_s[max(lo - 1, 0):hi + 1]
        return reference.factor(statistics.median(around))


REFERENCE_SPAN = "bench.reference"


@dataclass
class Sample:
    index: int  # position of the op in the op list
    raw: float  # measured seconds, the reference loop's interruptions excluded
    ok: bool
    cause: str
    wrong: bool
    nodes: Optional[int]
    factor: float = 1.0  # reference.factor of the loop's time during the op

    @property
    def time(self) -> float:
        """Seconds at the reference speed."""
        return self.raw * self.factor


def timed_passes(runner: Runner, ops: list[dict], seconds: float, recorder=None) -> list[Sample]:
    """Whole passes over `ops` until `seconds` have gone by (at least one).

    Before each pass the harness's own objects, the sample records among
    them, move to the collector's permanent generation, so the checker's
    collections do not grow with the number of samples taken.
    """
    samples: list[Sample] = []
    spans: list[tuple[float, float]] = []
    with Speed(recorder) as speed:
        start = perf_counter()
        while True:
            gc.collect()
            gc.freeze()
            for index, op in enumerate(ops):
                result, error = None, None
                stolen = speed.stolen
                t0 = perf_counter()
                try:
                    if recorder is None:
                        result = runner.run(op)
                    else:
                        result = recorder.run_op(len(samples), lambda op=op: runner.run(op))
                except Exception as exc:  # a failing op is counted, not fatal
                    error = exc
                t1 = perf_counter()
                elapsed = t1 - t0 - (speed.stolen - stolen)
                if error is not None:
                    step = op["argv"][0] if "argv" in op else op["kind"]
                    ok, cause, wrong = False, f"{step} raised {type(error).__name__}", False
                else:
                    ok, cause, wrong = judge(op, result)
                nodes = _emitted(op, runner, result) if ok else None
                samples.append(Sample(index, elapsed, ok, cause, wrong, nodes))
                spans.append((t0, t1))
            if perf_counter() - start >= seconds:
                break
    for sample, (t0, t1) in zip(samples, spans):
        sample.factor = speed.factor(t0, t1)
    return samples


def _emitted(op: dict, runner: Runner, result) -> Optional[int]:
    if op["kind"] == "roundtrip":
        return count_nodes(result[4]) if result[4] is not None else None
    if op["expect"].get("nodes"):
        term = runner.captured.get("render_fterm")
        return count_nodes(term) if term is not None else None
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (p90 stays on one op's time)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(t) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def op_medians(samples: list[Sample]) -> dict[int, float]:
    """Each op's median time over the passes, at the reference speed."""
    times = defaultdict(list)
    for s in samples:
        times[s.index].append(s.time)
    return {index: statistics.median(values) for index, values in times.items()}


def rate(samples: list[Sample], medians: dict[int, float]) -> float:
    """Successful ops per second over one pass at each op's median time."""
    passes = len(samples) / len(medians)
    return sum(1 for s in samples if s.ok) / passes / sum(medians.values())


def scaling_exponent(ops: list[dict], samples: list[Sample], medians: dict[int, float]) -> tuple[float, dict]:
    """Per family, fit successful ops' median times against n; the largest slope."""
    succeeded = {s.index for s in samples if s.ok}
    per_family = defaultdict(list)
    for index, median in medians.items():
        if index in succeeded and ops[index]["n"] > 0:
            per_family[ops[index]["family"]].append((ops[index]["n"], median))
    fits = {
        family: slope(points)
        for family, points in per_family.items()
        if len({n for n, _ in points}) >= 2
    }
    return max(fits.values()), fits


def verdicts(samples: list[Sample]) -> dict[int, str]:
    """Each op's cause of failure from its first failed run, or ''."""
    causes: dict[int, str] = {}
    for s in samples:
        if not causes.get(s.index):
            causes[s.index] = s.cause
    return causes


def end_to_end(ops: list[dict], samples: list[Sample], peak_rss_mb: float) -> tuple[dict, list[str]]:
    medians = op_medians(samples)
    latencies = [t * 1000 for t in medians.values()]
    p90 = percentile(latencies, 0.9)
    nodes = {}
    for s in samples:
        if s.nodes is not None:
            nodes.setdefault(s.index, s.nodes)
    exponent, fits = scaling_exponent(ops, samples, medians)
    good = sum(1 for s in samples if s.ok)
    succeeded = sum(1 for cause in verdicts(samples).values() if not cause)
    metrics = {
        "programs_per_s": (rate(samples, medians), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "verdict_share": (succeeded / len(ops), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "output_nodes": (sum(nodes.values()) / len(nodes), "count"),
        "scaling_exponent": (exponent, "slope"),
    }
    raw = [s.raw * 1000 for s in samples]
    notes = [
        f"passes: {len(samples) / len(ops):g} over {len(ops)} ops ({len(samples)} samples)",
        f"latency: median time of each of {len(latencies)} ops; "
        f"{sum(1 for v in latencies if v > p90)} ops lie beyond p90",
        f"as measured, before scaling to the reference speed: "
        f"programs_per_s {good / (sum(raw) / 1000):.4g}, "
        f"latency_p50_ms {percentile(raw, 0.5):.4g}, latency_p90_ms {percentile(raw, 0.9):.4g} "
        f"(over samples)",
        f"median speed factor: {statistics.median(s.factor for s in samples):.3f}",
        "scaling fits: " + ", ".join(f"{f}={v:.3f}" for f, v in sorted(fits.items())),
        f"ops emitting a term: {len(nodes)}",
    ]
    return metrics, notes


def per_layer(recorder, samples: list[Sample], untraced_rate: float) -> tuple[dict, list[str], float]:
    from spans import LAYERS, ROOT

    self_s, gap = recorder.self_times([s.factor for s in samples])
    counts = recorder.counts
    ops_run = len(samples)
    per_op = lambda value: value / ops_run  # noqa: E731
    ms = lambda layer: per_op(self_s.get(layer, 0.0) * 1000)  # noqa: E731
    deriv = sum(deriv_nodes(d) for d in recorder.derivations)
    f_nodes = sum(count_nodes(f) for f, _ in recorder.imports)
    enc_nodes = sum(count_nodes(e) for _, e in recorder.imports)
    parse_s = self_s.get("parser.parse", 0.0)
    metrics = {
        "parser.parse_ms": (ms("parser.parse"), "ms"),
        "parser.tokens_per_s": (counts["parser.tokens"] / parse_s if parse_s else 0.0, "1/s"),
        "parser.render_ms": (ms("parser.render"), "ms"),
        "syntax.desugar_ms": (ms("syntax.desugar"), "ms"),
        "statics.wellscoped_ms": (ms("statics.wellscoped"), "ms"),
        "statics.env_wf_ms": (ms("statics.env_wf"), "ms"),
        "infer.make_supply_ms": (ms("infer.make_supply"), "ms"),
        "syntax.env_lookup_depth": (per_op(counts["syntax.env_lookup_depth"]), "count"),
        "infer.infer_ms": (ms("infer.infer"), "ms"),
        "infer.deriv_nodes": (per_op(deriv), "count"),
        "infer.calls": (per_op(counts["infer.infer.calls"]), "count"),
        "unify.unify_ms": (ms("unify.unify"), "ms"),
        "unify.calls": (per_op(counts["unify.unify.calls"]), "count"),
        "unify.failures": (per_op(counts["unify.failures"]), "count"),
        "subst.compose_entries": (per_op(counts["subst.compose_entries"]), "count"),
        "subst.identity_share": (
            counts["subst.identity_entries"] / counts["subst.compose_entries"]
            if counts["subst.compose_entries"] else 0.0, "ratio"),
        "subst.apply_env_types": (per_op(counts["subst.apply_env_types"]), "count"),
        "declcheck.replay_ms": (ms("declcheck.replay"), "ms"),
        "declcheck.check_typing_ms": (ms("declcheck.check_typing"), "ms"),
        "declcheck.match_instance_ms": (ms("declcheck.match_instance"), "ms"),
        "translate.rebuild_ms": (ms("translate.rebuild"), "ms"),
        "translate.to_systemf_ms": (ms("translate.to_systemf"), "ms"),
        "translate.from_systemf_ms": (ms("translate.from_systemf"), "ms"),
        "translate.output_growth": (enc_nodes / f_nodes if f_nodes else 0.0, "ratio"),
        "systemf.f_typecheck_ms": (ms("systemf.f_typecheck"), "ms"),
        "systemf.f_typecheck_calls": (per_op(counts["systemf.f_typecheck.calls"]), "count"),
        "cli.self_ms": (ms(ROOT), "ms"),
        "prelude.build_ms": (ms("prelude.build"), "ms"),
        "trace.overhead": (rate(samples, op_medians(samples)) / untraced_rate, "ratio"),
    }
    assert set(self_s) <= set(LAYERS) | {ROOT, REFERENCE_SPAN}, set(self_s)
    notes = [
        f"traced ops: {ops_run}, spans: {len(recorder.spans)}",
        f"largest gap between an op's duration and its spans' self times: {gap:.3g} s",
    ]
    return metrics, notes, gap


def main(argv: list[str]) -> int:
    work, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    runner = Runner()
    timed_passes(runner, ops, 0.0)  # untimed warm-up pass
    # Every op has run once; later passes repeat them, and only the
    # harness's own sample records would grow the peak further.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        samples = timed_passes(runner, ops, seconds)
        metrics, notes = end_to_end(ops, samples, peak_rss_mb)
        gap = 0.0
    else:
        from spans import Recorder

        untraced = timed_passes(runner, ops, seconds / 2)
        untraced_rate = rate(untraced, op_medians(untraced))
        recorder = Recorder()
        recorder.install()
        samples = timed_passes(runner, ops, seconds / 2, recorder)
        metrics, notes, gap = per_layer(recorder, samples, untraced_rate)
        recorder.write(os.path.join(work, "spans.jsonl"))
    # An op is attempted once however many passes repeat it, so the
    # counts depend on the seed alone, not on how many passes fit in the
    # time.  An op fails if any of its runs failed; an op whose verdict
    # changes from pass to pass is a wrong answer.
    causes = verdicts(samples)
    failures = Counter(cause for cause in causes.values() if cause)
    for cause, count in sorted(failures.items()):
        examples = sorted(ops[index]["id"] for index, c in causes.items() if c == cause)
        notes.append(f"failed: {count} of {len(ops)} ops x {cause} ({', '.join(examples[:4])})")
    unsteady = {s.index for s in samples if s.ok} & {i for i, c in causes.items() if c}
    if unsteady:
        notes.append(f"verdict changed between passes on {len(unsteady)} ops")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": not any(s.wrong for s in samples) and not unsteady and gap < 1e-6,
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
