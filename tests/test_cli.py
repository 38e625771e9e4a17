import ast
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torogram.cli

from torogram import (
    canonical_serialize,
    check_loop,
    loop_from_json,
    loop_homology,
    move_from_json,
    parse_diagram,
    validate,
)
from torogram.braid import braid_to_sliceword, parse_braid, serialize_braid
from torogram.cli import main
from torogram.diagrams import TDiagram
from torogram.errors import InvalidDiagram, ParseError
from torogram.rebuild import reconstruct, to_sliceword
from torogram.refine import MAX_MARKINGS, positive_refinement
from torogram.slices import extract_tdiagram, parse_sliceword, serialize_sliceword

TREFOIL = """\
circle 2
arrows 3
seq H1 T2 H3 T1 H2 T3
arrow 1 sign + val 1
arrow 2 sign + val 1
arrow 3 sign + val 1
"""

ONE_ARROW_VAL0 = """\
circle 0
arrows 1
seq H1 T1
arrow 1 sign + val 0
"""

NEGATIVE_CIRCLE = "circle -1\narrows 0\nseq\n"

# one marking where the trefoil's valuations ask for two
BROKEN_TREFOIL = TREFOIL.replace("seq H1", "seq M+ H1")

# a refinement of the trefoil with a cancelling pair of markings: it is not
# positive, so represent draws it with parked strands and virtual crossings
PADDED_TREFOIL = TREFOIL.replace("seq H1 T2 H3 T1", "seq M+ M- M+ H1 T2 H3 M+ T1")


@pytest.fixture
def trefoil(tmp_path):
    p = tmp_path / "trefoil.gd"
    p.write_text(TREFOIL)
    return str(p)


@pytest.fixture
def val0(tmp_path):
    p = tmp_path / "one-arrow-val0.gd"
    p.write_text(ONE_ARROW_VAL0)
    return str(p)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_admissible_trefoil_is_affirmative(capsys, trefoil):
    code, out, _ = run(capsys, "admissible", trefoil)
    assert code == 0
    assert out.strip() == "admissible"


def test_braid_of_a_zero_valuation_arrow_fails_with_a_loop(capsys, val0, trefoil):
    code, out, _ = run(capsys, "braid", val0)
    assert code == 1
    loop = loop_from_json(json.loads(out.splitlines()[-1]))
    check_loop(parse_diagram(ONE_ARROW_VAL0), loop)


def test_validate_malformed_file_exits_two(capsys, tmp_path):
    p = tmp_path / "malformed.gd"
    p.write_text("circle zero\narrows 1\n")
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "error" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.gd")
    assert code == 2
    assert "error" in err


def test_validate_accepts_the_trefoil(capsys, trefoil):
    code, out, _ = run(capsys, "validate", trefoil)
    assert (code, out.strip()) == (0, "ok")


def test_validate_flags_a_broken_refinement(capsys, tmp_path):
    p = tmp_path / "bad.gd"
    p.write_text(BROKEN_TREFOIL)
    code, out, _ = run(capsys, "validate", str(p), "--json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_validate_flags_a_broken_sliceword(capsys, tmp_path):
    p = tmp_path / "bad.sw"
    p.write_text("bottom +\ncup 1\n")
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    assert out.strip()


def test_represent_then_extract_round_trips(capsys, trefoil, tmp_path):
    sw = tmp_path / "t.sw"
    code, _, _ = run(capsys, "represent", trefoil, "--out", str(sw))
    assert code == 0
    code, out, _ = run(capsys, "extract", str(sw))
    assert code == 0
    t = parse_diagram(out)
    assert isinstance(t, TDiagram)
    assert canonical_serialize(t.base) == canonical_serialize(parse_diagram(TREFOIL))


@pytest.mark.parametrize("mode", ["find", "minimal", "nonneg", "positive"])
def test_refine_outputs_a_valid_refinement(capsys, trefoil, mode):
    code, out, _ = run(capsys, "refine", trefoil, "--mode", mode)
    assert code == 0
    assert validate(parse_diagram(out)).ok


def test_refine_nonneg_fails_on_a_negative_circle(capsys, tmp_path):
    p = tmp_path / "neg.gd"
    p.write_text(NEGATIVE_CIRCLE)
    code, out, _ = run(capsys, "refine", str(p), "--mode", "nonneg", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["class"] < 0
    check_loop(parse_diagram(NEGATIVE_CIRCLE), loop_from_json(data["loop"]))


def test_connect_relates_two_refinements(capsys, trefoil, tmp_path):
    ref = tmp_path / "ref.gd"
    fat = tmp_path / "fat.gd"
    run(capsys, "refine", trefoil, "--mode", "minimal", "--out", str(ref))
    t = parse_diagram(ref.read_text())
    padded = list(t.markings)
    padded[0] = (1, -1) + padded[0]
    fat.write_text(canonical_serialize(TDiagram(t.base, tuple(padded))))
    code, out, _ = run(capsys, "connect", str(ref), str(fat), "--json")
    assert code == 0
    moves = [move_from_json(m) for m in json.loads(out)["moves"]]
    assert moves


def test_connect_rejects_different_bases(capsys, trefoil, val0, tmp_path):
    a = tmp_path / "a.gd"
    b = tmp_path / "b.gd"
    run(capsys, "refine", trefoil, "--out", str(a))
    run(capsys, "refine", val0, "--mode", "minimal", "--out", str(b))
    code, _, err = run(capsys, "connect", str(a), str(b))
    assert code == 2
    assert "different" in err


def test_levels_of_the_trefoil(capsys, trefoil):
    code, out, _ = run(capsys, "levels", trefoil, "--json")
    assert code == 0
    assert json.loads(out)["levels"] == {"1": 1, "2": 2, "3": 3}


def test_levels_fail_without_admissibility(capsys, val0):
    code, out, _ = run(capsys, "levels", val0)
    assert code == 1


def test_braid_of_the_trefoil_is_three_positive_letters(capsys, trefoil):
    code, out, _ = run(capsys, "braid", trefoil)
    assert code == 0
    word = parse_braid(out)
    assert word.strands == 2
    assert serialize_braid(word) == "strands 2\ns 1\ns 1\ns 1\n"


def test_reconstruct_emits_the_real_drawing(capsys, trefoil):
    code, out, _ = run(capsys, "reconstruct", trefoil)
    assert code == 0
    word = parse_sliceword(out)
    base = extract_tdiagram(word).base
    assert canonical_serialize(base) == canonical_serialize(parse_diagram(TREFOIL))


def test_reconstruct_reports_unfull_input(capsys, val0):
    code, out, _ = run(capsys, "reconstruct", val0)
    assert code == 1
    assert "nonzero" in out


def test_reconstruct_reports_unreal_input(capsys, tmp_path):
    p = tmp_path / "double.gd"
    p.write_text("circle 2\narrows 0\nseq\n")
    code, out, _ = run(capsys, "reconstruct", str(p))
    assert code == 1
    assert "wind" in out


def test_whitney_of_the_trefoil(capsys, trefoil):
    code, out, _ = run(capsys, "whitney", trefoil)
    assert (code, out.strip()) == (0, "0")


def test_section_pipeline(capsys, trefoil, tmp_path):
    sw = tmp_path / "t.sw"
    marked = tmp_path / "marked.gd"
    run(capsys, "reconstruct", trefoil, "--out", str(sw))
    run(capsys, "extract", str(sw), "--out", str(marked))
    code, out, _ = run(capsys, "section", str(sw), str(marked), "--json")
    assert code == 0
    data = json.loads(out)
    kept = parse_diagram(data["kept"])
    assert validate(kept).ok
    assert data["crossings"] == [
        {"edge": 5, "index": 0, "sign": 1},
        {"edge": 2, "index": 0, "sign": 1},
    ]


def test_section_rejects_virtual_words(capsys, tmp_path):
    padded = tmp_path / "padded.gd"
    padded.write_text(PADDED_TREFOIL)
    sw = tmp_path / "virt.sw"
    marked = tmp_path / "marked.gd"
    run(capsys, "represent", str(padded), "--out", str(sw))
    run(capsys, "extract", str(sw), "--out", str(marked))
    code, _, err = run(capsys, "section", str(sw), str(marked))
    assert code == 2
    assert "virtual" in err


def test_section_rejects_contradictory_markings(capsys, trefoil, tmp_path):
    sw = tmp_path / "t.sw"
    bad = tmp_path / "bad.gd"
    bad.write_text(BROKEN_TREFOIL)
    run(capsys, "reconstruct", trefoil, "--out", str(sw))
    code, out, _ = run(capsys, "section", str(sw), str(bad), "--json")
    assert code == 2
    assert "circle: expected 2, marked 1" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "command",
    ["braid", "levels", "represent", "refine", "admissible", "reconstruct", "whitney", "render"],
)
def test_contradictory_markings_are_rejected_as_input(capsys, tmp_path, command):
    p = tmp_path / "bad.gd"
    p.write_text(BROKEN_TREFOIL)
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert "not a refinement" in err


def test_render_writes_an_svg(capsys, trefoil, tmp_path):
    svg = tmp_path / "t.svg"
    code, out, _ = run(capsys, "render", trefoil, "--out", str(svg))
    assert code == 0
    assert out == ""
    assert svg.read_text().startswith("<svg")


def test_seed_flag_is_an_unknown_argument(capsys, trefoil):
    code, _, err = run(capsys, "whitney", trefoil, "--seed", "7")
    assert code == 2
    assert "unrecognized arguments: --seed 7" in err


def _break_nonneg_on_three_arrows(monkeypatch):
    """A nonnegative refiner that fails its own postcondition on the trefoil."""
    refiner = torogram.cli._REFINERS["nonneg"]

    def broken(g):
        if g.n == 3:
            raise RuntimeError("refinement core broke its postcondition")
        return refiner(g)

    monkeypatch.setitem(torogram.cli._REFINERS, "nonneg", broken)


def test_internal_fault_exits_three(capsys, monkeypatch, trefoil):
    _break_nonneg_on_three_arrows(monkeypatch)
    code, out, err = run(capsys, "refine", trefoil, "--mode", "nonneg")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback")
    assert err.endswith("\nerror: internal error: RuntimeError: refinement core broke its postcondition\n")
    code, out, _ = run(capsys, "refine", trefoil, "--mode", "nonneg", "--json")
    assert code == 3
    assert json.loads(out) == {
        "error": "internal error: RuntimeError: refinement core broke its postcondition",
        "kind": "internal",
    }


def test_internal_fault_keeps_a_batch_going(capsys, monkeypatch, tmp_path):
    _break_nonneg_on_three_arrows(monkeypatch)
    (tmp_path / "a-trefoil.gd").write_text(TREFOIL)
    (tmp_path / "b-val0.gd").write_text(ONE_ARROW_VAL0)
    code, out, _ = run(capsys, "refine", str(tmp_path), "--mode", "nonneg", "--json")
    assert code == 3
    rows = json.loads(out)
    assert [r["exit"] for r in rows] == [3, 0]
    assert rows[0]["result"]["kind"] == "internal"
    assert parse_diagram(rows[1]["result"]["diagram"]).n == 1


def test_no_assert_guards_the_program():
    # python -O strips assert statements; every check must be a real raise
    src = Path(torogram.cli.__file__).parent
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{path.name} asserts at lines {found}"


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports to re-export; every other import binds
    # a name the module reads
    src = Path(torogram.cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(bound - read) == [], f"{path.name} imports names it never uses"


def test_batch_directory_reports_every_file(capsys, tmp_path):
    (tmp_path / "a-trefoil.gd").write_text(TREFOIL)
    (tmp_path / "b-val0.gd").write_text(ONE_ARROW_VAL0)
    (tmp_path / "c-broken.gd").write_text("circle zero\n")
    code, out, _ = run(capsys, "admissible", str(tmp_path))
    assert code == 2
    assert out.count("==") == 6
    assert "a-trefoil.gd (exit 0)" in out
    assert "b-val0.gd (exit 1)" in out
    assert "c-broken.gd (exit 2)" in out


def test_batch_parallel_json_collects_results(capsys, tmp_path):
    (tmp_path / "a.gd").write_text(TREFOIL)
    (tmp_path / "b.gd").write_text(ONE_ARROW_VAL0)
    code, out, _ = run(capsys, "whitney", str(tmp_path), "--parallel", "2", "--json")
    assert code == 1
    rows = json.loads(out)
    assert [r["exit"] for r in rows] == [0, 1]
    assert rows[0]["result"]["whitney"] == 0


def test_cli_start_up_leaves_multiprocessing_unloaded():
    # only --parallel needs a pool, and the value records are built without
    # dataclasses (which loads inspect); every library module still loads,
    # since the benchmark's spans install into each of them
    probe = (
        "import sys, torogram.cli; "
        "print([m for m in ('multiprocessing', 'dataclasses', 'inspect') if m in sys.modules], "
        "sorted(m for m in sys.modules if m.startswith('torogram.')))"
    )
    src = str(Path(torogram.cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    loaded, modules = done.stdout.split("] ", 1)
    assert loaded == "["
    for name in ("admit", "braid", "diagrams", "rebuild", "refine", "slices"):
        assert f"'torogram.{name}'" in modules


@pytest.mark.parametrize("json_flag", [False, True])
def test_out_write_failure_exits_two(capsys, trefoil, tmp_path, json_flag):
    # exit 1 is a certified negative verdict; a payload that cannot be
    # written is an input error
    flags = ["--json"] if json_flag else []
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        code, out, err = run(capsys, "admissible", trefoil, "--out", str(target), *flags)
        assert code == 2
        if json_flag:
            assert str(target) in json.loads(out)["error"]
        else:
            assert out == ""
            assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("k", ["0", "-3"])
def test_parallel_below_one_is_a_usage_error(capsys, tmp_path, k):
    (tmp_path / "a.gd").write_text(TREFOIL)
    code, out, err = run(capsys, "admissible", str(tmp_path), "--parallel", k)
    assert (code, out) == (2, "")
    assert "--parallel" in err


def test_batch_rejects_two_input_commands(capsys, tmp_path):
    (tmp_path / "a.gd").write_text(TREFOIL)
    code, _, err = run(capsys, "section", str(tmp_path), str(tmp_path))
    assert code == 2


def test_batch_of_an_empty_directory_is_an_error(capsys, tmp_path):
    code, _, err = run(capsys, "admissible", str(tmp_path))
    assert code == 2


def test_batch_does_not_take_out(capsys, tmp_path):
    (tmp_path / "a.gd").write_text(TREFOIL)
    code, _, err = run(capsys, "admissible", str(tmp_path), "--out", "x")
    assert code == 2


def test_no_command_is_a_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


# the trefoil scaled up: admissible, but every refinement needs ~10^12 markings
HUGE_TREFOIL = TREFOIL.replace("circle 2", "circle 2000000000000").replace(
    "val 1\n", "val 1000000000000\n"
)


@pytest.mark.parametrize("command", ["refine", "braid"])
def test_unbounded_markings_are_refused_at_once(capsys, tmp_path, command):
    p = tmp_path / "huge.gd"
    p.write_text(HUGE_TREFOIL)
    t0 = time.perf_counter()
    code, out, err = run(capsys, command, str(p))
    assert time.perf_counter() - t0 < 5.0
    assert (code, out) == (2, "")
    assert f"exceeds the limit {MAX_MARKINGS}" in err


def _seed_texts() -> tuple[str, ...]:
    g = parse_diagram(TREFOIL)
    drawing = to_sliceword(reconstruct(g))
    virtual = braid_to_sliceword(parse_braid("strands 3\ns 1\nv 2\nS 1\ns 2\n"))
    return (
        TREFOIL,
        ONE_ARROW_VAL0,
        NEGATIVE_CIRCLE,
        BROKEN_TREFOIL,
        canonical_serialize(positive_refinement(g)),
        canonical_serialize(extract_tdiagram(drawing)),
        serialize_sliceword(drawing),
        serialize_sliceword(virtual),
    )


SEED_TEXTS = _seed_texts()
_WORDS = (
    "circle", "arrows", "seq", "arrow", "sign", "val", "bottom", "cross", "virtual", "cap",
    "cup", "+", "-", "H1", "T1", "H2", "T3", "M+", "M-", "0", "1", "2", "3", "-1",
    "1000000000000", "#", "\n", "",
)


def _mutated(text: str, edits: list[tuple[int, str]]) -> str:
    parts = re.split(r"(\s+)", text)  # words at even indices
    for i, word in edits:
        parts[2 * (i % (len(parts) // 2 + 1))] = word
    return "".join(parts)


_texts = st.one_of(
    st.text(max_size=60),
    st.builds(
        _mutated,
        st.sampled_from(SEED_TEXTS),
        st.lists(st.tuples(st.integers(0, 200), st.sampled_from(_WORDS)), max_size=4),
    ),
)


def _cli(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(args + ["--json"])
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(_texts, st.binary(max_size=4))
def test_arbitrary_text_keeps_the_exit_code_contract(text, junk):
    for parse in (parse_diagram, parse_sliceword):
        try:
            parse(text)
        except (ParseError, InvalidDiagram):
            pass
    with tempfile.TemporaryDirectory() as tmp:
        gd, sw, raw = Path(tmp, "x.gd"), Path(tmp, "x.sw"), Path(tmp, "raw.gd")
        gd.write_bytes(text.encode("utf-8", "surrogatepass"))
        sw.write_bytes(text.encode("utf-8", "surrogatepass"))
        raw.write_bytes(junk + b"\xff")  # never UTF-8
        good_gd, good_sw = Path(tmp, "good.gd"), Path(tmp, "good.sw")
        good_gd.write_text(SEED_TEXTS[5])
        good_sw.write_text(SEED_TEXTS[6])
        runs = [[name, str(gd)] for name, (_, suffixes) in torogram.cli._COMMANDS.items() if suffixes]
        runs += [["refine", str(gd), "--mode", mode] for mode in torogram.cli._REFINERS]
        runs += [
            ["validate", str(sw)], ["extract", str(sw)], ["admissible", str(raw)],
            ["connect", str(gd), str(good_gd)], ["connect", str(good_gd), str(gd)],
            ["section", str(sw), str(good_gd)], ["section", str(good_sw), str(gd)],
        ]
        for args in runs:
            code, out = _cli(args)
            assert code in (0, 1, 2), (args, text)
            if code != 1 or args[0] not in ("admissible", "levels", "braid", "refine"):
                continue  # elsewhere exit 1 is a refuted claim or an undrawable input
            data = json.loads(out)
            parsed = parse_diagram(text)
            g = parsed.base if isinstance(parsed, TDiagram) else parsed
            loop = loop_from_json(data["loop"])
            check_loop(g, loop)
            assert loop_homology(g, loop) == data.get("class", 0), (args, text)
