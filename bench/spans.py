"""Span recorder for the traced run.

The recorder wraps public functions of ``freezeml`` from outside: since
modules import functions by name, each function is replaced wherever a
``freezeml`` module binds it.  A call opens a span unless a span of the
same layer is already open (recursion such as ``replay``, ``to_systemf``
or ``f_typecheck`` calling itself); such a re-entrant call is counted
but gets no span.  A few hot methods get count-only wrappers.  Spans are
kept in memory; self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# layer name -> (module, function) pairs it times.
LAYERS = {
    "parser.parse": [
        ("freezeml.parser", "parse_program"),
        ("freezeml.parser", "parse_term"),
        ("freezeml.parser", "parse_type"),
        ("freezeml.systemf", "parse_fterm"),
    ],
    "parser.render": [
        ("freezeml.parser", "render_term"),
        ("freezeml.parser", "render_type"),
        ("freezeml.parser", "normalize_type_names"),
        ("freezeml.systemf", "render_fterm"),
    ],
    "syntax.desugar": [("freezeml.syntax", "desugar")],
    "statics.wellscoped": [("freezeml.statics", "wellscoped")],
    "statics.env_wf": [("freezeml.statics", "env_wf")],
    "infer.make_supply": [("freezeml.infer", "make_supply")],
    "infer.infer": [("freezeml.infer", "infer")],
    "unify.unify": [("freezeml.unify", "unify")],
    "declcheck.replay": [("freezeml.declcheck", "replay")],
    "declcheck.check_typing": [("freezeml.declcheck", "check_typing")],
    "declcheck.match_instance": [("freezeml.declcheck", "match_instance")],
    "translate.rebuild": [("freezeml.translate", "rebuild_derivation")],
    "translate.to_systemf": [("freezeml.translate", "to_systemf")],
    "translate.from_systemf": [("freezeml.translate", "from_systemf")],
    "systemf.f_typecheck": [("freezeml.systemf", "f_typecheck")],
    "prelude.build": [("freezeml.prelude", "build_prelude")],
}

ROOT = "cli"


class Recorder:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, op sequence number].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.derivations: list = []  # infer results, counted after each op
        self.imports: list = []  # (F term, encoding) pairs of from_systemf
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._op = -1

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(index)
        self._open[name] += 1
        self.spans[index][1] = perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()
        self._open[self.spans[index][0]] -= 1

    def busy(self) -> bool:
        """Is an op running?"""
        return bool(self._stack)

    def run_op(self, seq: int, fn):
        """Run one op under a root span; returns fn's result."""
        self._op = seq
        index = self.begin(ROOT)
        try:
            return fn()
        finally:
            self.end(index)

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            self.counts[f"{layer}.calls"] += 1
            if self._open[layer]:
                return fn(*args, **kwargs)
            index = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer == "unify.unify":
                    self.counts["unify.failures"] += 1
                raise
            finally:
                self.end(index)
            if layer == "infer.infer":
                self.derivations.append(result.derivation)
            elif layer == "translate.from_systemf":
                self.imports.append((args[2], result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of the listed functions in freezeml modules."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "freezeml"]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
        self._install_counters()

    def _install_counters(self) -> None:
        from freezeml import parser
        from freezeml.subst import Subst
        from freezeml.syntax import TVar, TypeEnv

        counts = self.counts
        compose, apply_env, lookup = Subst.compose, Subst.apply_env, TypeEnv.lookup
        tokenize = parser.tokenize

        def counted_compose(self_, inner):
            result = compose(self_, inner)
            counts["subst.compose_entries"] += len(result)
            counts["subst.identity_entries"] += sum(
                1 for name, image in result.items()
                if type(image) is TVar and image.name == name
            )
            return result

        def counted_apply_env(self_, gamma):
            counts["subst.apply_env_types"] += len(gamma)
            return apply_env(self_, gamma)

        def counted_lookup(self_, name):
            counts["syntax.env_lookup_depth"] += len(self_)
            return lookup(self_, name)

        def counted_tokenize(text):
            result = tokenize(text)
            counts["parser.tokens"] += len(result)
            return result

        Subst.compose = counted_compose
        Subst.apply_env = counted_apply_env
        TypeEnv.lookup = counted_lookup
        parser.tokenize = counted_tokenize

    # -- analysis -------------------------------------------------------------

    def self_times(self, factors: list[float]) -> tuple[dict[str, float], float]:
        """Summed self time per layer, each op's scaled by its factor, and
        the largest per-op gap between the op's duration and the sum of
        its spans' self times (unscaled)."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        per_layer: Counter = Counter()
        per_op_self: Counter = Counter()
        per_op_root: dict[int, float] = {}
        for span, value in zip(self.spans, own):
            per_layer[span[0]] += value * factors[span[4]]
            per_op_self[span[4]] += value
            if span[3] < 0:
                per_op_root[span[4]] = span[2] - span[1]
        gap = max(
            (abs(per_op_self[op] - root) for op, root in per_op_root.items()),
            default=0.0,
        )
        return dict(per_layer), gap

    def write(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
