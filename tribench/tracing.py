"""Spans around calls into tribkit's layers, recorded from outside.

A traced run replaces each public function named in ``LAYERS`` by a
wrapper wherever a tribkit module holds a reference to it (module
attributes, and module-level dicts such as the CLI's strategy table), so
calls made inside the program are seen too.  Each span records a name,
start, end, parent span and op id; spans stay in memory and are written
when the run ends.  A layer's self time is its spans' duration minus the
time covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from math import ceil

#: (span name, module, function): the layer boundaries that are traced.
LAYERS = (
    ("dsl.parse", "tribkit.dsl", "parse"),
    ("dsl.render", "tribkit.dsl", "render"),
    ("certify.certify", "tribkit.certify", "certify"),
    ("certify.mutants", "tribkit.certify", "single_coefficient_mutants"),
    ("derive.derive", "tribkit.derive", "derive_tribonacci_basis"),
    ("derive.derive", "tribkit.derive", "derive_lucas_basis"),
    ("derive.template_to_ast", "tribkit.derive", "template_to_ast"),
    ("derive.swap_roles", "tribkit.derive", "swap_roles"),
    ("fasteval.fast_term", "tribkit.fasteval", "fast_term"),
    ("corpus.load_corpus", "tribkit.corpus", "load_corpus"),
    ("cli.main", "tribkit.cli", "main"),
)

CLI_COMMANDS = ("eval", "derive", "certify", "corpus", "bench")


class Tracer:
    def __init__(self):
        #: [name, start_ns, end_ns, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _on_result(self, name: str, result) -> None:
        if name == "certify.certify":
            evaluations = result.evaluations
            self.counts["certify.evaluations"] += evaluations
            grid = result.windows["r"] * result.windows["s"]
            self.counts["certify.seed_points"] += ceil(evaluations / grid) if grid else 0
            if result.verdict == "refuted":
                self.counts["certify.refutations"] += 1
                self.counts["certify.refutation_evaluations"] += evaluations
        elif name == "fasteval.fast_term":
            self.counts["fasteval.result_bits"] += abs(result).bit_length()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "certify.mutants":

            def generator(*args, **kwargs):
                tracer.counts[f"{name}.calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            span = f"{name}.{args[0][0]}" if name == "cli.main" else name
            tracer.counts[f"{span}.calls"] += 1
            index = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(index)
                if type(exc).__name__ == "DegenerateOffsets":
                    tracer.counts["derive.degenerate"] += 1
                raise
            tracer._close(index)
            tracer._on_result(name, result)
            return result

        return wrapper

    def install(self) -> None:
        """Put wrappers in place of the traced functions in every tribkit module."""
        modules = [m for n, m in sys.modules.items() if n == "tribkit" or n.startswith("tribkit.")]
        for name, module, attr in LAYERS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod.__dict__, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._undo.append((value, k, original))

    def uninstall(self) -> None:
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the duration of child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - covered) / 1e9
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, muls: int, stdout_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    self_s = tracer.self_seconds()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def layer(span: str) -> dict:
        return {
            f"{span}.calls": (counts[f"{span}.calls"], "count"),
            f"{span}.self_s": (self_s.get(span, 0.0), "s"),
        }

    m: dict[str, tuple[float, str]] = {
        "corpus.load_corpus.s": (
            ratio(self_s.get("corpus.load_corpus", 0.0), counts["corpus.load_corpus.calls"]), "s"),
        **layer("dsl.parse"),
        **layer("dsl.render"),
        **layer("certify.certify"),
        "certify.evaluations": (counts["certify.evaluations"], "count"),
        "certify.seed_points": (counts["certify.seed_points"], "count"),
        "certify.evals_per_s": (
            ratio(counts["certify.evaluations"], self_s.get("certify.certify", 0.0)), "1/s"),
        "certify.evals_per_refutation": (
            ratio(counts["certify.refutation_evaluations"], counts["certify.refutations"]), "count"),
        "certify.mutants.self_s": (self_s.get("certify.mutants", 0.0), "s"),
        **layer("derive.derive"),
        "derive.degenerate_ratio": (
            ratio(counts["derive.degenerate"], counts["derive.derive.calls"]), "ratio"),
        "derive.template_to_ast.self_s": (self_s.get("derive.template_to_ast", 0.0), "s"),
        "derive.swap_roles.self_s": (self_s.get("derive.swap_roles", 0.0), "s"),
        **layer("fasteval.fast_term"),
        "fasteval.muls": (muls, "count"),
        "fasteval.muls_per_call": (ratio(muls, counts["fasteval.fast_term.calls"]), "count"),
        "fasteval.result_bits": (counts["fasteval.result_bits"], "bits"),
    }
    for command in CLI_COMMANDS:
        m.update(layer(f"cli.main.{command}"))
    m["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    return m
