"""Spans around the program's public functions, installed from outside.

The tracer replaces each traced function, in every torogram module that
binds it, by a wrapper that records a span (name, start, end, parent span,
item id).  Modules call each other through those bindings, so a nested call
such as ``minimal_refinement`` under ``reconstruct`` becomes a child span
and a layer's self time is its own: the span's length minus its children's.
Spans stay in memory until the run ends.  The wrappers also count what the
calls returned (verdicts, markings, letters, slices) and the exceptions that
left each layer.
"""
from __future__ import annotations

import json
import sys
import time

TRACED = {
    "diagrams": ("parse_diagram", "canonical_serialize"),
    "slices": (
        "parse_sliceword",
        "extract_tdiagram",
        "validate_sliceword",
        "represent_tdiagram",
        "serialize_sliceword",
    ),
    "admit": ("check_admissible", "level_decomposition"),
    "refine": ("positive_refinement", "non_negative_refinement", "minimal_refinement"),
    "braid": ("synthesize_braid", "serialize_braid"),
    "rebuild": ("reconstruct", "to_sliceword", "whitney_index", "find_section", "render_svg"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
LAYERS = tuple(TRACED) + ("cli",)
COUNTS = (
    "admit.verdict.admissible",
    "admit.verdict.weakly_only",
    "admit.verdict.not_weakly",
    "refine.markings",
    "braid.letters",
    "braid.virtual_letters",
    "slices.represent.slices",
    "slices.represent.virtual_letters",
    "rebuild.slices",
    "rebuild.section_crossings",
) + tuple(f"{layer}.errors" for layer in LAYERS)


def _tally(name: str, result) -> list[tuple[str, int]]:
    """Counters read off one call's return value."""
    if name == "admit.check_admissible":
        return [(f"admit.verdict.{result.verdict}", 1)]
    if name.startswith("refine."):
        return [("refine.markings", result.marking_count)]
    if name == "braid.synthesize_braid":
        virtual = sum(1 for letter in result.letters if letter.kind == "v")
        return [("braid.letters", len(result.letters)), ("braid.virtual_letters", virtual)]
    if name == "slices.represent_tdiagram":
        from torogram.slices import VirtualCross

        virtual = sum(1 for s in result.slices if isinstance(s, VirtualCross))
        return [("slices.represent.slices", len(result.slices)), ("slices.represent.virtual_letters", virtual)]
    if name == "rebuild.to_sliceword":
        return [("rebuild.slices", len(result.slices))]
    if name == "rebuild.find_section":
        return [("rebuild.section_crossings", len(result[1]))]
    return []


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.item = None
        self._stack: list[int] = []
        self._last_error = None
        self._patched: list[tuple[dict, str, object]] = []
        self._merged_self: dict[str, float] = {}
        self._merged_calls: dict[str, int] = {}
        self.child_ms: list[float] = []  # whole traced time of each merged child

    # -- recording

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if e is not tracer._last_error:  # count it once, where it started
                    tracer._last_error = e
                    tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer.close(idx)
            for key, inc in _tally(name, result):
                tracer.counts[key] += inc
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap the traced functions in every loaded torogram module, and in
        the module-level tables that hold them (such as the CLI's refiners)."""
        wrappers = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"torogram.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(original, f"{mod}.{fn}"))
        for modname, module in list(sys.modules.items()):
            if modname != "torogram" and not modname.startswith("torogram."):
                continue
            namespace = vars(module)
            tables = [namespace] + [v for v in namespace.values() if type(v) is dict]
            for table in tables:
                for key, value in list(table.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((table, key, value))
                        table[key] = hit[1]

    def uninstall(self) -> None:
        for table, key, value in reversed(self._patched):
            table[key] = value
        self._patched.clear()

    # -- summaries

    def merge(self, summary: dict) -> None:
        """Fold in the summary of a traced child process."""
        self.child_ms.append(sum(summary["self_ms"].values()))
        for name, ms in summary["self_ms"].items():
            self._merged_self[name] = self._merged_self.get(name, 0.0) + ms
        for name, n in summary["calls"].items():
            self._merged_calls[name] = self._merged_calls.get(name, 0) + n
        for key, n in summary["counts"].items():
            self.counts[key] += n

    def summary(self) -> dict:
        """Self time and call count per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = dict(self._merged_self)
        calls = dict(self._merged_calls)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        return {"self_ms": self_ms, "calls": calls, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "summary": self.summary()}, fh)
