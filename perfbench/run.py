"""The torogram benchmark: run one workload for one seed, print one JSON line.

    python3 perfbench/run.py --workload braid-ladder --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
Workloads and their checks are in ``workloads.py``.

With ``--trace 0`` the workload runs the items of its pool in turn, round
and round, for ``--seconds`` seconds of wall time (one whole pass at
least) and prints the end-to-end metrics.  With ``--trace 1`` every item
of the pool runs twice, once plain and once with spans installed, and the
run prints the per-layer metrics, the tracing overhead and the ROADMAP
baseline table.
Either way an earlier line gives the sha256 of all outputs of the pool,
which repeats exactly for a seed as long as the program's outputs do, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("braid-ladder", "rebuild-small", "cli-mixed")
SETUP_REPEATS = 5
CALIBRATION_RUNS = 5


def _timed(w, idx, tracer=None):
    t0 = time.perf_counter()
    try:
        out = w.run(idx, tracer)
    except Exception as e:  # an unexpected raise is a failed item, not a crash
        out = e
    return out, time.perf_counter() - t0


def _problems(w, idx, out) -> list[str]:
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    try:
        return w.check(idx, out)
    except Exception as e:  # output the oracle cannot read is wrong output
        return [f"check raised {type(e).__name__}: {e}"]


def _payloads(out) -> list[str]:
    return [f"raised {type(out).__name__}"] if isinstance(out, Exception) else out[0]


def _feed(digest, out) -> None:
    for text in _payloads(out):
        digest.update(text.encode())
        digest.update(b"\0")


def _digest_of(item_digests: list[bytes]) -> str:
    return hashlib.sha256(b"".join(item_digests)).hexdigest()


def _report(idx, problems) -> None:
    print(f"item {idx} failed: {'; '.join(problems)}", file=sys.stderr)


def _setup_once(w, count: int) -> float:
    t0 = time.perf_counter()
    w.setup(count)
    out, _ = _timed(w, w.warmup)
    _problems(w, w.warmup, out)
    gc.collect()
    elapsed = time.perf_counter() - t0
    gc.freeze()  # the pool lives all run; keep it out of every later collection
    return elapsed


def untraced(w, seconds: float, setup_s: float) -> dict:
    """Items of the workload's pool, in turn and round again, until a whole
    pass is done and ``seconds`` of wall time have gone by.

    The first pass is checked; later runs of an item must repeat its first
    outputs exactly.  Each item's latency is the median of its runs, and
    the run's figures are taken over all items, so a burst of load from
    another process moves only the samples it hits.
    """
    times: list[list[float]] = [[] for _ in range(w.pool)]
    digests: list[bytes] = []
    failed = attempted = 0
    started = time.perf_counter()
    while attempted < w.pool or time.perf_counter() - started < seconds:
        idx = attempted % w.pool
        out, dt = _timed(w, idx)
        times[idx].append(dt)
        attempted += 1
        item_digest = hashlib.sha256()
        _feed(item_digest, out)
        if len(digests) < w.pool:
            digests.append(item_digest.digest())
            problems = _problems(w, idx, out)
        elif item_digest.digest() != digests[idx]:
            problems = ["the output differs from the item's first run"]
        else:
            problems = []
        if problems:
            failed += 1
            _report(idx, problems)
        gc.collect()
    latency = [statistics.median(t) for t in times]
    print(f"{w.name} seed {w.seed}: {w.pool} items, {attempted} runs, {failed} failed")
    print(f"output digest of all {w.pool} items: sha256:{_digest_of(digests)}")
    metrics = {
        "items_per_s": (w.pool / sum(latency), "1/s"),
        "item_ms.p50": (1e3 * statistics.median(latency), "ms"),
        "item_ms.p90": (1e3 * statistics.quantiles(latency, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (w.peak_rss_mb(), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _spawn_ms(argv, env) -> float:
    runs = []
    for _ in range(CALIBRATION_RUNS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        runs.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(runs)


def traced(w) -> dict:
    import baseline
    from spans import COUNTS, SPAN_NAMES, Tracer
    from workloads import src_env

    tracer = Tracer()
    plain: list[float] = []
    with_spans: list[float] = []
    failed = 0
    digests = []
    for idx in range(w.pool):
        outs = {}
        for spans_on in (False, True) if idx % 2 == 0 else (True, False):
            if not spans_on:
                outs[False], dt = _timed(w, idx)
                plain.append(dt)
                continue
            tracer.item = idx
            tracer.install()
            root = tracer.open("item")
            try:
                outs[True], dt = _timed(w, idx, tracer)
            finally:
                tracer.close(root)
                tracer.uninstall()
            with_spans.append(dt)
        problems = _problems(w, idx, outs[True])
        if _payloads(outs[True]) != _payloads(outs[False]):
            problems.append("the traced and the plain call gave different outputs")
        if problems:
            failed += 1
            _report(idx, problems)
        item_digest = hashlib.sha256()
        _feed(item_digest, outs[True])
        digests.append(item_digest.digest())
        gc.collect()
    summary = tracer.summary()
    spans_path = ROOT / ".perfbench-work" / f"spans-{w.name}-seed{w.seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(str(spans_path))
    item_ms = 1e3 * sum(end - start for name, start, end, _, _ in tracer.spans if name == "item")
    layer_ms = sum(summary["self_ms"].get(name, 0.0) for name in SPAN_NAMES)
    print(f"{w.name} seed {w.seed}: {w.pool} items traced, {failed} failed")
    print(f"output digest of all {w.pool} items: sha256:{_digest_of(digests)}")
    print(f"layer self times cover {100 * layer_ms / item_ms:.1f}% of the traced item time")

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = (summary["self_ms"].get(name, 0.0), "ms")
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
    cli = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0}
    if w.name == "cli-mixed":
        interpreter = _spawn_ms([sys.executable, "-c", "pass"], w.env)
        imported = _spawn_ms([sys.executable, "-c", "import torogram.cli"], w.env)
        cli["cli.interpreter_ms"] = interpreter
        cli["cli.import_ms"] = imported - interpreter
        cli["cli.command_ms"] = statistics.median(tracer.child_ms)
    metrics.update((k, (v, "ms")) for k, v in cli.items())
    metrics.update((k, (summary["counts"][k], "count")) for k in COUNTS)
    untraced_rate = w.pool / sum(plain)
    traced_rate = w.pool / sum(with_spans)
    metrics["trace.overhead"] = (traced_rate / untraced_rate, "ratio")
    metrics["trace.traced_items_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
    metrics["fail_ratio"] = (failed / w.pool, "ratio")
    measured = baseline.measure(ROOT, src_env(ROOT))
    print(baseline.table(measured))
    metrics.update((k, (v, "ms")) for k, v in measured.items())
    return {"attempted": w.pool, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import torogram
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if Path(torogram.__file__).resolve().parent != ROOT / "src" / "torogram":
        print(f"torogram imported from {torogram.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        if args.trace:
            _setup_once(w, w.pool)
            result = traced(w)
        else:
            imports_s = time.perf_counter() - _STARTED  # from the script's start
            setups = [_setup_once(w, w.pool) for _ in range(SETUP_REPEATS)]
            result = untraced(w, args.seconds, imports_s + statistics.median(setups))
    finally:
        w.close()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
