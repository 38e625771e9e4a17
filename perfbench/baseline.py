"""The ROADMAP baseline table, timed once per traced run.

Each case that finishes in seconds on the current code is timed once, on
inputs fixed here (not by the run's seed), so the figures compare across
runs and commits.  The table's cases that take over a minute are listed as
not run.
"""
from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

from torogram import admit, diagrams, rebuild, refine, slices

from gen import braid_closure
from oracle import Code, read, write_gd, write_sw

TREFOIL = """circle 2
arrows 3
seq H1 T2 H3 T1 H2 T3
arrow 1 sign + val 1
arrow 2 sign + val 1
arrow 3 sign + val 1
"""

# (metric, layer, size, ROADMAP figure)
TABLE = (
    ("baseline.parse_diagram_ms", "parse_diagram", "braid closure n = 400", "~380 ms"),
    ("baseline.canonical_serialize_ms", "canonical_serialize(T)", "braid closure n = 400", "~530 ms"),
    ("baseline.extract_tdiagram_ms", "extract_tdiagram", "braid closure n = 400", "~400 ms"),
    ("baseline.positive_refinement_ms", "positive_refinement", "braid closure n = 400", "~520 ms"),
    ("baseline.check_admissible_ms", "check_admissible", "braid closure n = 400", "~7 ms"),
    ("baseline.minimal_refinement_ms", "minimal_refinement", "random_dgd n = 8", "1.3 s"),
    ("baseline.reconstruct_ms", "reconstruct", "5-strand 16-crossing positive", "5.7 s"),
    ("baseline.cli_trefoil_ms", "CLI start + braid", "trefoil", "~0.28 s"),
)
NOT_RUN = (
    ("minimal_refinement", "random_dgd n = 10 / 12", "58 s / 138 s"),
    ("reconstruct", "3-strand 80-crossing positive", ">60 s"),
)


def _random_dgd(rng: random.Random, n: int) -> str:
    """A ``.gd`` text like the test suite's ``random_dgd``: arrow endpoints in
    random order, random signs, valuations in [-3, 3]."""
    order = list(range(2 * n))
    rng.shuffle(order)
    events = [None] * (2 * n)
    for k in range(1, n + 1):
        events[order[2 * k - 2]] = ("H", k)
        events[order[2 * k - 1]] = ("T", k)
    signs = {k: rng.choice((1, -1)) for k in range(1, n + 1)}
    vals = {k: rng.randint(-3, 3) for k in range(1, n + 1)}
    return write_gd(Code(events, signs, vals, rng.randint(-3, 3), marked=False), False)


def _ms(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return 1e3 * (time.perf_counter() - t0)


def measure(root: Path, env: dict) -> dict[str, float]:
    rng = random.Random(2012)
    bottom, word = braid_closure(rng, 3, 400, mixed=False)
    sw_text = write_sw(bottom, word)
    gd_text = write_gd(read(bottom, word), with_markings=False)

    def fresh():
        return diagrams.parse_diagram(gd_text)

    out = {
        "baseline.parse_diagram_ms": _ms(diagrams.parse_diagram, gd_text),
        "baseline.canonical_serialize_ms": _ms(
            diagrams.canonical_serialize, slices.extract_tdiagram(slices.parse_sliceword(sw_text))
        ),
        "baseline.extract_tdiagram_ms": _ms(slices.extract_tdiagram, slices.parse_sliceword(sw_text)),
        "baseline.positive_refinement_ms": _ms(refine.positive_refinement, fresh()),
        "baseline.check_admissible_ms": _ms(admit.check_admissible, fresh()),
        "baseline.minimal_refinement_ms": _ms(
            refine.minimal_refinement, diagrams.parse_diagram(_random_dgd(rng, 8))
        ),
    }
    closure = read(*braid_closure(rng, 5, 16, mixed=False))
    out["baseline.reconstruct_ms"] = _ms(
        rebuild.reconstruct, diagrams.parse_diagram(write_gd(closure, with_markings=False))
    )
    trefoil = root / ".perfbench-work" / "trefoil.gd"
    trefoil.parent.mkdir(parents=True, exist_ok=True)
    trefoil.write_text(TREFOIL)
    argv = [sys.executable, "-m", "torogram.cli", "braid", str(trefoil)]
    out["baseline.cli_trefoil_ms"] = _ms(
        lambda: subprocess.run(argv, capture_output=True, env=env, cwd=root, timeout=60, check=True)
    )
    trefoil.unlink()
    return out


def table(measured: dict[str, float]) -> str:
    lines = ["ROADMAP baseline, timed once each:", f"  {'layer':26} {'size':32} {'ROADMAP':>12} {'now':>10}"]
    for metric, layer, size, then in TABLE:
        lines.append(f"  {layer:26} {size:32} {then:>12} {measured[metric]:>8.0f} ms")
    for layer, size, then in NOT_RUN:
        lines.append(f"  {layer:26} {size:32} {then:>12} {'not run':>10}")
    return "\n".join(lines)
