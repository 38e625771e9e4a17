"""Command line over the whole toolkit, one subcommand per operation.

Every subcommand reads files and follows one exit-code contract: 0 for
success or an affirmative verdict, 1 for a well-formed negative verdict
with its certificate on stdout, 2 for unreadable or out-of-domain input,
3 for an internal fault of the program itself.
Output is plain text unless ``--json`` asks for the machine form; ``--out``
redirects the payload into a file.  A directory instead of a file runs the
command over every matching file inside, optionally across ``--parallel``
worker processes, and exits with the worst per-file code.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .admit import ADMISSIBLE, check_admissible, level_decomposition
from .braid import represent_as_closed_braid, serialize_braid, synthesize_braid
from .diagrams import (
    DecoratedGaussDiagram,
    TDiagram,
    canonical_serialize,
    loop_to_json,
    parse_diagram,
    require_valid,
    validate,
)
from .errors import (
    InvalidDiagram,
    NoLevels,
    NotAdmissible,
    NotFull,
    NotPositive,
    NotRealRealizable,
    NotWeaklyAdmissible,
    ParseError,
)
from .rebuild import (
    annular_to_json,
    find_section,
    reconstruct,
    render_svg,
    to_sliceword,
    whitney_index,
)
from .refine import (
    connect_refinements,
    find_refinement,
    minimal_refinement,
    move_to_json,
    non_negative_refinement,
    positive_refinement,
)
from .slices import (
    extract_tdiagram,
    parse_sliceword,
    represent_dgd,
    represent_tdiagram,
    serialize_sliceword,
    validate_sliceword,
)

Result = tuple[int, str, dict]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not text: {e.reason}") from None


def _load(path: str):
    """A slice word for ``.sw`` files, a diagram for everything else."""
    if path.endswith(".sw"):
        return parse_sliceword(_read(path))
    return parse_diagram(_read(path))


def _diagram(path: str) -> DecoratedGaussDiagram | TDiagram:
    """A diagram; a marked one must realize every valuation it declares."""
    d = _load(path)
    if isinstance(d, TDiagram):
        require_valid(d)
    elif not isinstance(d, DecoratedGaussDiagram):
        raise InvalidDiagram(f"{path} does not hold a diagram")
    return d


def _base_of(path: str) -> DecoratedGaussDiagram:
    """The diagram under a file; its markings, if any, must validate first."""
    d = _diagram(path)
    return d.base if isinstance(d, TDiagram) else d


def _marked(path: str) -> TDiagram:
    d = _load(path)
    if not isinstance(d, TDiagram):
        raise InvalidDiagram(f"{path} has no markings")
    return d


def _word(path: str):
    d = _load(path)
    if isinstance(d, (DecoratedGaussDiagram, TDiagram)):
        raise InvalidDiagram(f"{path} is not a slice word file")
    return d


def _cmd_validate(ns) -> Result:
    d = _load(ns.inputs[0])
    if isinstance(d, TDiagram):
        report = validate(d)
        if report.ok:
            return 0, "ok", {"ok": True}
        return 1, "\n".join(report.problems), report.to_json()
    if isinstance(d, DecoratedGaussDiagram):
        # a plain diagram that parses is structurally sound already
        return 0, "ok", {"ok": True}
    report = validate_sliceword(d)
    if report.ok:
        return 0, "ok", {"ok": True}
    return 1, "\n".join(report.problems), report.to_json()


def _cmd_extract(ns) -> Result:
    t = extract_tdiagram(_word(ns.inputs[0]))
    text = canonical_serialize(t)
    return 0, text, {"diagram": text}


def _cmd_represent(ns) -> Result:
    d = _diagram(ns.inputs[0])
    word = represent_tdiagram(d) if isinstance(d, TDiagram) else represent_dgd(d)
    text = serialize_sliceword(word)
    return 0, text, {"word": text}


_REFINERS = {
    "find": find_refinement,
    "minimal": minimal_refinement,
    "nonneg": non_negative_refinement,
    "positive": positive_refinement,
}


def _cmd_refine(ns) -> Result:
    t = _REFINERS[ns.mode](_base_of(ns.inputs[0]))
    text = canonical_serialize(t)
    return 0, text, {"diagram": text}


def _cmd_connect(ns) -> Result:
    t1, t2 = _marked(ns.inputs[0]), _marked(ns.inputs[1])
    moves = [move_to_json(m) for m in connect_refinements(t1, t2)]
    lines = [" ".join(f"{k}={v}" for k, v in m.items()) for m in moves]
    return 0, "\n".join(lines) if lines else "already equal", {"moves": moves}


def _cmd_admissible(ns) -> Result:
    report = check_admissible(_base_of(ns.inputs[0]))
    data = report.to_json()
    if report.verdict == ADMISSIBLE:
        return 0, "admissible", data
    text = f"{report.verdict}: loop of class {report.homology}\n" + json.dumps(
        loop_to_json(report.certificate)
    )
    return 1, text, data


def _cmd_levels(ns) -> Result:
    d = _diagram(ns.inputs[0])
    levels = level_decomposition(d if isinstance(d, TDiagram) else positive_refinement(d))
    lines = [f"arrow {k}: level {v}" for k, v in sorted(levels.items())]
    return 0, "\n".join(lines), {"levels": {str(k): v for k, v in sorted(levels.items())}}


def _cmd_braid(ns) -> Result:
    d = _diagram(ns.inputs[0])
    word = synthesize_braid(d) if isinstance(d, TDiagram) else represent_as_closed_braid(d)
    text = serialize_braid(word)
    return 0, text, {"braid": text}


def _cmd_reconstruct(ns) -> Result:
    # the text form is the drawn slice word, so --out feeds section/render
    a = reconstruct(_base_of(ns.inputs[0]))
    return 0, serialize_sliceword(to_sliceword(a)), annular_to_json(a)


def _cmd_whitney(ns) -> Result:
    n = whitney_index(_base_of(ns.inputs[0]))
    return 0, str(n), {"whitney": n}


def _cmd_section(ns) -> Result:
    word = _word(ns.inputs[0])
    kept, seq = find_section(word, _marked(ns.inputs[1]))
    text = canonical_serialize(kept)
    human = text + "crossings: " + (
        " ".join(f"{e}.{i}{'+' if s > 0 else '-'}" for e, i, s in seq) or "none"
    )
    data = {
        "kept": text,
        "crossings": [{"edge": e, "index": i, "sign": s} for e, i, s in seq],
    }
    return 0, human, data


def _cmd_render(ns) -> Result:
    svg = render_svg(reconstruct(_base_of(ns.inputs[0])))
    return 0, svg, {"svg": svg}


_COMMANDS = {
    "validate": (_cmd_validate, (".gd", ".sw")),
    "extract": (_cmd_extract, (".sw",)),
    "represent": (_cmd_represent, (".gd",)),
    "refine": (_cmd_refine, (".gd",)),
    "connect": (_cmd_connect, None),
    "admissible": (_cmd_admissible, (".gd",)),
    "levels": (_cmd_levels, (".gd",)),
    "braid": (_cmd_braid, (".gd",)),
    "reconstruct": (_cmd_reconstruct, (".gd",)),
    "whitney": (_cmd_whitney, (".gd",)),
    "section": (_cmd_section, None),
    "render": (_cmd_render, (".gd",)),
}


def _execute(ns) -> Result:
    """Run one command, folding every failure into the exit-code contract."""
    handler = _COMMANDS[ns.command][0]
    try:
        return handler(ns)
    except (ParseError, OSError, InvalidDiagram, NotPositive) as e:
        return 2, "", {"error": str(e)}
    except (NotWeaklyAdmissible, NotAdmissible) as e:
        data = {
            "error": str(e),
            "class": e.homology,
            "loop": loop_to_json(e.certificate),
        }
        return 1, str(e) + "\n" + json.dumps(data["loop"]), data
    except NoLevels as e:
        data = {"error": str(e), "loop": loop_to_json(e.certificate)}
        return 1, str(e) + "\n" + json.dumps(data["loop"]), data
    except NotFull as e:
        msg = str(e) or "every decoration is zero"
        return 1, msg, {"error": msg}
    except NotRealRealizable as e:
        return 1, e.reason, {"error": e.reason}
    except Exception as e:  # a bug, never a verdict: exit 1 stays certified
        import traceback

        traceback.print_exc(file=sys.stderr)
        msg = f"internal error: {type(e).__name__}: {e}"
        return 3, "", {"error": msg, "kind": "internal"}


def _worker(payload: dict) -> tuple[str, int, str, dict]:
    ns = argparse.Namespace(**payload)
    code, text, data = _execute(ns)
    return ns.inputs[0], code, text, data


def _run_batch(ns, directory: Path) -> int:
    suffixes = _COMMANDS[ns.command][1]
    if suffixes is None:
        _fail(ns, {"error": f"{ns.command} takes explicit files, not a directory"})
        return 2
    if ns.out:
        _fail(ns, {"error": "--out does not combine with a directory input"})
        return 2
    files = sorted(p for p in directory.iterdir() if p.suffix in suffixes)
    if not files:
        _fail(ns, {"error": f"no {'/'.join(suffixes)} files in {directory}"})
        return 2
    payloads = []
    for p in files:
        d = dict(vars(ns))
        d["inputs"] = [str(p)]
        payloads.append(d)
    if ns.parallel and ns.parallel > 1:
        from multiprocessing import Pool  # only here: ~10 ms of every start-up
        with Pool(ns.parallel) as pool:
            results = pool.map(_worker, payloads)
    else:
        results = [_worker(p) for p in payloads]
    if ns.json:
        out = [
            {"file": name, "exit": code, "result": data}
            for name, code, text, data in results
        ]
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
    else:
        for name, code, text, data in results:
            body = text if text else data.get("error", "")
            sys.stdout.write(f"== {name} (exit {code}) ==\n{body}".rstrip() + "\n")
    return max(code for _, code, _, _ in results)


def _fail(ns, data: dict) -> None:
    if ns.json:
        sys.stdout.write(json.dumps(data) + "\n")
    else:
        sys.stderr.write(f"error: {data['error']}\n")


def _emit(ns, result: Result) -> int:
    code, text, data = result
    if code >= 2:
        _fail(ns, data)
        return code
    payload = json.dumps(data, indent=2) + "\n" if ns.json else text.rstrip("\n") + "\n"
    if ns.out:
        try:
            Path(ns.out).write_text(payload)
        except OSError as e:  # not a verdict: exit 1 would certify a negative
            _fail(ns, {"error": str(e)})
            return 2
    else:
        sys.stdout.write(payload)
    return code


_HELP = {
    "validate": "check a diagram or slice word file",
    "extract": "read the marked diagram off a slice word",
    "represent": "draw a diagram as a slice word",
    "refine": "decorate a diagram with markings",
    "connect": "move sequence turning one refinement into another",
    "admissible": "classify a diagram, certifying negative verdicts",
    "levels": "level of every arrow of a positive refinement",
    "braid": "present a diagram as a closed virtual braid",
    "reconstruct": "rebuild the real annular picture of a full diagram",
    "whitney": "Whitney index of the rebuilt picture",
    "section": "sub-refinement of a drawing cut by one section path",
    "render": "SVG picture of the rebuilt diagram",
}


def _worker_count(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"needs a whole number of workers >= 1, got {text!r}")
    return k


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--out", metavar="PATH", help="write the payload to a file")
    common.add_argument(
        "--parallel",
        type=_worker_count,
        metavar="K",
        help="worker processes for directory inputs",
    )
    parser = argparse.ArgumentParser(prog="torogram", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, suffixes) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=_HELP[name])
        nargs = 2 if name in ("connect", "section") else 1
        p.add_argument("inputs", nargs=nargs, metavar="FILE")
        if name == "refine":
            p.add_argument(
                "--mode",
                choices=sorted(_REFINERS),
                default="find",
                help="which refinement to produce",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    target = Path(ns.inputs[0])
    if target.is_dir():
        return _run_batch(ns, target)
    return _emit(ns, _execute(ns))


if __name__ == "__main__":
    sys.exit(main())
