"""The three workloads: their inputs, their timed item, and its checks.

Every workload is a closed loop over its pool of seeded items: one caller
issues the next item when the previous one returns.  ``run`` makes the
item's user-facing calls and is the only timed part; ``check`` then
verifies the outputs against the oracle and returns the problems found.
The calls go through the module objects (``slices.extract_tdiagram``, ...),
so spans installed by the tracer see every one of them.
"""
from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

from torogram import admit, braid, diagrams, rebuild, refine, slices

from gen import (
    braid_closure,
    knot_length,
    log_size,
    real_drawing,
    scrambled_decorations,
    sparse_markings,
    strata,
)
from oracle import (
    parse_gd,
    parse_sw,
    read,
    read_sw,
    read_vb,
    same_diagram,
    same_refinement,
    valid_levels,
    validates,
    turning_number,
    write_gd,
    write_sw,
)

POOL = 100  # items in a pass at least: p90 then has ten samples beyond it


def src_env(root: Path) -> dict:
    """The environment of a child process that imports the program from src/."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _levels_text(levels: dict) -> str:
    return "".join(f"arrow {k}: level {v}\n" for k, v in sorted(levels.items()))


def _is_refinement(code, positive: bool) -> bool:
    marks = [s for kind, s in code.events if kind == "M"]
    return validates(code) and all(s == 1 for s in marks) and (bool(marks) or not positive)


class Workload:
    name = ""
    pool = POOL  # distinct items of a timed run
    warmup = 0  # the item run once during set-up; the smallest, so set-up time is steady

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self, count: int) -> None:
        """Generate ``count`` items' inputs and their expected answers."""

    def run(self, idx: int, tracer=None) -> tuple[list[str], object]:
        """The timed calls of item ``idx``: its payloads and what the checks need."""
        raise NotImplementedError

    def check(self, idx: int, out) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class BraidLadder(Workload):
    """Braid-closure slice words on 3-5 strands with 20-200 crossings,
    log-uniform, half positive and half mixed-sign: read, refined, braided
    and drawn again."""

    name = "braid-ladder"
    # Item costs climb steeply with size, so few items sit near any one
    # percentile; a larger pool keeps p50 and p90 from hinging on the words
    # a seed draws there.
    pool = 3 * POOL

    def setup(self, count):
        rng = random.Random(self.seed)
        self.items = []
        for i, u in enumerate(strata(rng, count, classes=6)):
            strands = 3 + i % 3
            n = knot_length(log_size(u, 20, 200), strands, 200)
            bottom, word = braid_closure(rng, strands, n, mixed=i % 6 >= 3)
            self.items.append((write_sw(bottom, word), read(bottom, word)))
        self.warmup = min(range(count), key=lambda i: self.items[i][1].n)

    def run(self, idx, tracer=None):
        t = slices.extract_tdiagram(slices.parse_sliceword(self.items[idx][0]))
        extracted = diagrams.canonical_serialize(t)
        verdict = admit.check_admissible(t.base).verdict
        p = refine.positive_refinement(t.base)
        refined = diagrams.canonical_serialize(p)
        levels = admit.level_decomposition(p)
        braid_text = braid.serialize_braid(braid.synthesize_braid(p))
        drawn = slices.serialize_sliceword(slices.represent_tdiagram(p))
        return [extracted, refined, braid_text, drawn, _levels_text(levels)], (verdict, levels)

    def check(self, idx, out):
        (extracted, refined, braid_text, drawn, _), (verdict, levels) = out
        want = self.items[idx][1]
        p = parse_gd(refined)
        problems = []
        if verdict != "admissible":
            problems.append(f"a braid closure was judged {verdict}")
        if not same_refinement(parse_gd(extracted), want):
            problems.append("extract does not give the drawn refinement")
        if not (_is_refinement(p, positive=True) and same_diagram(p, want)):
            problems.append("the positive refinement is not one of the input diagram")
        if not valid_levels(levels, want.n):
            problems.append("the levels do not cover every arrow")
        if not same_refinement(read_vb(braid_text), p):
            problems.append("the braid's closure does not read back to the refinement")
        if not same_refinement(read_sw(drawn), p):
            problems.append("the represented drawing does not read back to the refinement")
        return problems


# Crossings per strand count.  The search behind reconstruct is exponential
# and its cost varies widely between words of one size: at 20/15/10 crossings
# single items took 1-5 s, and a run's throughput hinged on the words a seed
# happened to draw.  Under these caps no item found took more than ~0.3 s.
REBUILD_CAPS = {2: 41, 3: 14, 4: 11, 5: 8}


class RebuildSmall(Workload):
    """Full diagrams rebuilt into real drawings: braid closures on 2-5 strands
    under REBUILD_CAPS crossings, and every fourth item a cap/cup drawing
    of at most 14 crossings with circle valuation +1 or -1."""

    name = "rebuild-small"
    pool = 8 * POOL  # its item costs have a long tail; more of them steady the mean

    def setup(self, count):
        rng = random.Random(self.seed)
        self.items = []
        for i, u in enumerate(strata(rng, count, classes=16)):
            if i % 4 == 3:
                bottom, word = real_drawing(rng, max_crossings=14)
            else:
                strands = 2 + (i // 4) % 4
                cap = REBUILD_CAPS[strands]
                n = knot_length(log_size(u, max(3, cap // 3), cap), strands, cap)
                bottom, word = braid_closure(rng, strands, n, mixed=i % 2 == 0)
            code = read(bottom, word)
            self.items.append((write_gd(code, with_markings=False), code, turning_number(bottom, word)))
        self.warmup = min(range(count), key=lambda i: self.items[i][1].n)

    def run(self, idx, tracer=None):
        g = diagrams.parse_diagram(self.items[idx][0])
        a = rebuild.reconstruct(g)
        drawn = slices.serialize_sliceword(rebuild.to_sliceword(a))
        whitney = rebuild.whitney_index(g)
        svg = rebuild.render_svg(a)
        word = slices.parse_sliceword(drawn)
        back = slices.extract_tdiagram(word)
        kept, crossings = rebuild.find_section(word, back)
        kept_text = diagrams.canonical_serialize(kept)
        section = "".join(f"{e} {i} {s}\n" for e, i, s in crossings)
        return [drawn, f"{whitney}\n", svg, kept_text, section], (whitney, len(crossings))

    def check(self, idx, out):
        (drawn, _, svg, kept_text, _), (whitney, crossings) = out
        _, want, turning = self.items[idx]
        bottom, word = parse_sw(drawn)
        code, drawn_turning = read(bottom, word), turning_number(bottom, word)
        kept = parse_gd(kept_text)
        problems = []
        if "virtual" in drawn:
            problems.append("the rebuilt drawing has virtual crossings")
        if not same_diagram(code, want):
            problems.append("the rebuilt drawing does not read back to the input diagram")
        if whitney != drawn_turning or whitney != turning:
            problems.append(
                f"whitney index {whitney}, turning of the rebuilt drawing {drawn_turning}, "
                f"of the input drawing {turning}"
            )
        if not (validates(kept) and same_diagram(kept, want)):
            problems.append("the section's kept refinement does not validate")
        if kept.marking_count() != crossings:
            problems.append("the section crossing list and the kept markings disagree")
        if not ET.fromstring(svg).tag.endswith("svg"):
            problems.append("the rendering is not an svg document")
        return problems


CLI_COMMANDS = (
    ("admissible",),
    ("levels",),
    ("braid",),
    ("refine", "--mode", "nonneg"),
    ("refine", "--mode", "positive"),
    ("represent",),
)
# Prime to len(CLI_COMMANDS): item i runs command i % 6 on file i % 25, so
# a pool of 25 x 6 items runs every command on every file, and the largest
# child (peak_rss_mb) does not hinge on which commands met the largest file.
CLI_FILES = 25
KINDS = ("admissible", "weakly_only", "not_weakly")


def expected_exit(verdict: str, command: tuple) -> int:
    if command[0] == "represent":
        return 0
    if command == ("refine", "--mode", "nonneg"):
        return 1 if verdict == "not_weakly" else 0
    return 0 if verdict == "admissible" else 1


class CliMixed(Workload):
    """One ``python -m torogram.cli <command> FILE --json`` process per item,
    over .gd files of 8-150 crossings in equal thirds: admissible braid
    closures (five of nine marked as their positive refinement), weakly-only
    diagrams and not-weakly diagrams, every command on every file."""

    name = "cli-mixed"
    pool = CLI_FILES * len(CLI_COMMANDS)  # p90 lies among its fifteen slowest items

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.workdir = root / ".perfbench-work" / f"{self.name}-seed{seed}"
        self.env = src_env(root)

    def setup(self, count):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rng = random.Random(self.seed)
        self.files = []
        for j, u in enumerate(strata(rng, CLI_FILES, classes=9)):
            kind = KINDS[j % 3]
            strands = 3 + (j // 3) % 3
            n = knot_length(log_size(u, 8, 150), strands, 150)
            code = read(*braid_closure(rng, strands, n, mixed=(j // 3) % 2 == 1))
            marked = kind == "admissible" and (j // 6) % 2 == 0
            if kind == "weakly_only":
                code = sparse_markings(rng, code)
            elif kind == "not_weakly":
                code = scrambled_decorations(rng, code)
            path = self.workdir / f"{j:02d}.gd"
            path.write_text(write_gd(code, with_markings=marked))
            d = diagrams.parse_diagram(path.read_text())
            base = d.base if marked else d
            verdict = admit.check_admissible(base).verdict
            self.files.append((path, kind, verdict, code, marked, base))
        self.warmup = min(range(count), key=lambda i: self.files[i % CLI_FILES][3].n)

    def _argv(self, idx, summary=None):
        path = self.files[idx % CLI_FILES][0]
        command = CLI_COMMANDS[idx % len(CLI_COMMANDS)]
        tail = [command[0], str(path), "--json", *command[1:]]
        if summary is None:
            return [sys.executable, "-m", "torogram.cli", *tail]
        return [sys.executable, str(self.root / "perfbench" / "cli_child.py"), str(summary), *tail]

    def run(self, idx, tracer=None):
        summary = None
        if tracer is not None:
            summary = self.workdir / "summary.json"
            summary.unlink(missing_ok=True)
        proc = subprocess.run(
            self._argv(idx, summary),
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=120,
        )
        if tracer is not None:
            tracer.merge(json.loads(summary.read_text()))
            tracer.counts["cli.errors"] += proc.returncode not in (0, 1)
        return [proc.stdout], (proc.returncode, proc.stderr)

    def check(self, idx, out):
        from torogram.diagrams import loop_from_json, loop_homology

        (stdout,), (code, stderr) = out
        _, kind, verdict, want, marked, base = self.files[idx % CLI_FILES]
        command = CLI_COMMANDS[idx % len(CLI_COMMANDS)]
        problems = []
        if verdict != kind:
            problems.append(f"library verdict {verdict} on a {kind} input")
        if code != expected_exit(verdict, command):
            problems.append(f"exit {code} for {' '.join(command)} on a {verdict} input: {stderr[-300:]}")
            return problems
        data = json.loads(stdout)
        if code == 1:
            cls = loop_homology(base, loop_from_json(data["loop"]))
            if cls != data["class"] or (cls < 0) != (verdict == "not_weakly") or cls > 0:
                problems.append(f"certificate of class {data['class']} re-checks as {cls}")
            return problems
        same = same_refinement if marked else same_diagram
        if command[0] == "admissible":
            ok = data["verdict"] == "admissible"
        elif command[0] == "levels":
            ok = valid_levels({int(k): v for k, v in data["levels"].items()}, want.n)
        elif command[0] == "braid":
            ok = same(read_vb(data["braid"]), want)
        elif command[0] == "refine":
            got = parse_gd(data["diagram"])
            ok = _is_refinement(got, positive=command[-1] == "positive") and same_diagram(got, want)
        else:
            ok = same(read_sw(data["word"]), want)
        if not ok:
            problems.append(f"wrong {' '.join(command)} output")
        return problems

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (BraidLadder, RebuildSmall, CliMixed)}
