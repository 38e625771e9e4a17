import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings

from torogram import (
    Arrow,
    ArrowJump,
    CircleForward,
    DecoratedGaussDiagram,
    DiagramLoop,
    InvalidDiagram,
    ParseError,
    TDiagram,
    Token,
    assemble_tdiagram,
    canonical_serialize,
    check_loop,
    forget_markings,
    is_full,
    is_reduced,
    loop_from_json,
    loop_homology,
    loop_to_json,
    parse_diagram,
    validate,
)
from torogram.braid import braid_to_sliceword, parse_braid
from torogram.slices import extract_tdiagram

from torogram.diagrams import _least_rotation, _least_rotations

from gen import (
    dgd_diagrams,
    periodic_tdiagram,
    random_dgd,
    random_tdiagram,
    scrambled_copy,
    scrambled_tdiagram,
    t_diagrams,
)
from oracles import brute_least_rotation, brute_least_rotations, checked_tokens

MARKED_THREE = """\
circle 2
arrows 3
seq M+ H1 T2 H3 M+ T1 H2 T3
arrow 1 sign + val 1
arrow 2 sign + val 1
arrow 3 sign + val 1
"""


def test_fixture_parses_to_marked_diagram():
    t = parse_diagram(MARKED_THREE)
    assert isinstance(t, TDiagram)
    assert t.base.n == 3
    assert t.marking_count == 2
    assert t.is_positive
    assert validate(t).ok


def test_fixture_serializes_byte_identically():
    t = parse_diagram(MARKED_THREE)
    assert canonical_serialize(t) == MARKED_THREE
    # and stays stable through another parse/serialize cycle
    assert canonical_serialize(parse_diagram(canonical_serialize(t))) == MARKED_THREE


def test_serialization_forgets_rotation_and_labels():
    rotated = """\
circle 2
arrows 3
seq M+ T3 H2 T1 M+ H3 T2 H1
arrow 3 sign + val 1
arrow 2 sign + val 1
arrow 1 sign + val 1
"""
    assert canonical_serialize(parse_diagram(rotated)) == MARKED_THREE


def test_unmarked_parse_returns_plain_diagram():
    g = parse_diagram("circle 1\narrows 1\nseq H1 T1\narrow 1 sign - val 1\n")
    assert isinstance(g, DecoratedGaussDiagram)
    assert g.arrow_map[1].sign == -1
    assert is_full(g)


def test_wrap_edge_merges_trailing_then_leading_markings():
    t = parse_diagram("circle 0\narrows 1\nseq M- H1 T1 M+\narrow 1 sign + val 0\n")
    assert isinstance(t, TDiagram)
    # edge 1 runs from the underpass back to the overpass through the seam
    assert t.markings == ((), (1, -1))
    assert canonical_serialize(t) == canonical_serialize(
        parse_diagram("circle 0\narrows 1\nseq M+ M- H1 T1\narrow 1 sign + val 0\n")
    )


def test_bare_circle_markings_are_cyclic():
    a = parse_diagram("circle 0\narrows 0\nseq M+ M-\n")
    b = parse_diagram("circle 0\narrows 0\nseq M- M+\n")
    assert canonical_serialize(a) == canonical_serialize(b)
    assert validate(a).ok


def test_comments_and_blank_lines_are_ignored():
    text = "# a knot\ncircle 2\n\narrows 0\nseq   # nothing here\n"
    g = parse_diagram(text)
    assert g.n == 0
    assert g.circle_valuation == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("arrows 0\nseq\n", "missing 'circle'"),
        ("circle 1\nseq\n", "missing 'arrows'"),
        ("circle 1\narrows 0\n", "missing 'seq'"),
        ("circle 1\ncircle 2\narrows 0\nseq\n", "duplicate"),
        ("circle x\narrows 0\nseq\n", "integer"),
        ("circle 1\narrows 1\nseq H1 T1 H1\narrow 1 sign + val 0\n", "needs 2"),
        ("circle 1\narrows 1\nseq H1 H1\narrow 1 sign + val 0\n", "duplicate endpoint H1"),
        ("circle 1\narrows 1\nseq H1 T2\narrow 1 sign + val 0\n", "missing endpoint T1"),
        ("circle 1\narrows 1\nseq H1 T1\n", "missing 'arrow 1'"),
        ("circle 1\narrows 1\nseq H1 T1\narrow 1 sign ? val 0\n", "sign"),
        ("circle 1\narrows 1\nseq H1 T1\narrow 2 sign + val 0\n", "out of range"),
        ("circle 1\narrows 1\nseq Q1 T1 H1\narrow 1 sign + val 0\n", "unknown token"),
        ("circle 1\narrows 0\nseq\nbogus line\n", "unexpected line"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_diagram(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_diagram("circle 1\narrows 1\nseq H1 T1\narrow 1 sign + val x\n")
    assert exc.value.line == 4


def test_constructor_rejects_malformed_input():
    with pytest.raises(InvalidDiagram):
        DecoratedGaussDiagram((Token("H", 1), Token("H", 1)), (Arrow(1, 1, 0),), 0)
    with pytest.raises(InvalidDiagram):
        DecoratedGaussDiagram((Token("H", 1),), (Arrow(1, 1, 0),), 0)
    with pytest.raises(InvalidDiagram):
        DecoratedGaussDiagram((Token("H", 2), Token("T", 2)), (Arrow(2, 1, 0),), 0)
    with pytest.raises(InvalidDiagram):
        Arrow(1, 2, 0)
    g = DecoratedGaussDiagram((Token("H", 1), Token("T", 1)), (Arrow(1, 1, 0),), 0)
    with pytest.raises(InvalidDiagram):
        TDiagram(g, ((), (2,)))
    with pytest.raises(InvalidDiagram):
        TDiagram(g, ((),))
    # the first fault in sequence order is named, whatever else is wrong
    one, two = (Arrow(1, 1, 0),), (Arrow(1, 1, 0), Arrow(2, -1, 1))
    for tokens, arrows, message in (
        ((("X", 1), ("T", 1)), one, "unknown token kind 'X'"),
        ((("H", 1), (1, 1)), one, "unknown token kind 1"),
        (((1, 1), ("H", 1)), one, "unknown token kind 1"),
        ((("H", 1), ("T", 3)), one, "token for undeclared arrow 3"),
        ((("H", 1), ("T", 1), ("H", 1), ("H", 2), ("T", 2)), two, "duplicate token H1"),
        ((("H", 1),), one, "expected 2 tokens for 1 arrows, got 1"),
        ((("H", 1), ("T", 1), ("H", 2)), two, "expected 4 tokens for 2 arrows, got 3"),
        ((("H", 1), ("H", 1), ("X", 2)), two, "duplicate token H1"),
        ((("H", 1), ("X", 2), ("H", 1)), two, "unknown token kind 'X'"),
        ((("T", 2), ("H", 5), (1, 1), ("T", 2)), two, "token for undeclared arrow 5"),
    ):
        for given in (tokens, tuple(Token(*tok) for tok in tokens)):
            with pytest.raises(InvalidDiagram) as exc:
                DecoratedGaussDiagram(given, arrows, 0)
            assert str(exc.value) == message, given


def test_reference_counts_solve_the_defining_equations():
    rng = random.Random(20260819)
    for _ in range(300):
        g = random_dgd(rng)
        counts = g.reference_counts
        assert len(counts) == g.edge_count
        assert sum(counts) == g.circle_valuation
        for a in g.arrows:
            h, t = g.positions[a.id]
            total, e = 0, h
            while e != t:
                total += counts[e]
                e = (e + 1) % (2 * g.n)
            assert total == a.valuation, (g, a)


@settings(max_examples=150)
@given(dgd_diagrams())
def test_loop_homology_of_named_loops(g):
    for a in g.arrows:
        assert loop_homology(g, g.distinguished_loop(a.id)) == a.valuation
    assert loop_homology(g, g.circle_loop()) == g.circle_valuation


@settings(max_examples=100)
@given(dgd_diagrams(max_arrows=4))
def test_canonical_serialization_is_rotation_invariant(g):
    rng = random.Random(7)
    for _ in range(3):
        assert canonical_serialize(scrambled_copy(g, rng)) == canonical_serialize(g)


@settings(max_examples=100)
@given(t_diagrams())
def test_marked_serialization_is_rotation_invariant(t):
    assert validate(t).ok
    rng = random.Random(11)
    for _ in range(3):
        assert canonical_serialize(scrambled_tdiagram(t, rng)) == canonical_serialize(t)


def test_assemble_reindexes_markings_to_stored_rotation():
    # token order given here starts at the underpass, so construction rotates;
    # the marking sits on the arc after T1, which is stored edge 1
    tokens = [("T", 1), ("H", 1)]
    t = assemble_tdiagram(tokens, (Arrow(1, 1, 0),), 1, [[1], []])
    assert t.base.tokens == (Token("H", 1), Token("T", 1))
    assert t.markings == ((), (1,))
    assert validate(t).ok


def test_validate_reports_what_is_off():
    t = parse_diagram(MARKED_THREE)
    broken = TDiagram(t.base, (t.markings[0], (1,)) + t.markings[2:])
    report = validate(broken)
    assert not report.ok
    assert (1, 1, 2) in report.arrow_violations
    assert report.circle_violation == (2, 3)
    data = report.to_json()
    assert data["ok"] is False
    assert data["circle"] == {"expected": 2, "actual": 3}


def test_forget_markings_drops_to_base():
    t = parse_diagram(MARKED_THREE)
    g = forget_markings(t)
    assert isinstance(g, DecoratedGaussDiagram)
    assert canonical_serialize(g) == canonical_serialize(t.base)


def test_is_full_checks_all_valuations():
    assert not is_full(parse_diagram("circle 0\narrows 1\nseq H1 T1\narrow 1 sign + val 0\n"))
    assert is_full(parse_diagram("circle 0\narrows 1\nseq H1 T1\narrow 1 sign + val 2\n"))
    assert is_full(parse_diagram("circle -1\narrows 0\nseq\n"))


def test_check_loop_rejects_disconnected_steps():
    g = parse_diagram("circle 0\narrows 2\nseq H1 H2 T1 T2\narrow 1 sign + val 0\narrow 2 sign + val 0\n")
    with pytest.raises(InvalidDiagram):
        check_loop(g, DiagramLoop((CircleForward(0), CircleForward(2))))
    with pytest.raises(InvalidDiagram):
        check_loop(g, DiagramLoop(()))
    with pytest.raises(InvalidDiagram):
        check_loop(g, DiagramLoop((CircleForward(0),)))  # open path, not a loop
    check_loop(g, g.distinguished_loop(2))


def test_is_reduced_spots_a_jump_followed_by_its_reverse():
    g = parse_diagram("circle 0\narrows 1\nseq H1 T1\narrow 1 sign + val 0\n")
    silly = DiagramLoop((ArrowJump(1, "tail"), ArrowJump(1, "head")))
    check_loop(g, silly)
    assert not is_reduced(g, silly)
    assert is_reduced(g, g.distinguished_loop(1))
    assert is_reduced(g, g.circle_loop())


def test_loop_json_round_trip():
    g = parse_diagram(MARKED_THREE).base
    loop = g.distinguished_loop(2)
    data = loop_to_json(loop)
    assert data[-1] == {"step": "arrow", "arrow": 2, "to": "head"}
    assert loop_from_json(data) == loop


def test_marking_first_generator_always_validates():
    rng = random.Random(99)
    for _ in range(200):
        t = random_tdiagram(rng)
        assert validate(t).ok
        if t.base.n:
            assert loop_homology(t.base, t.base.circle_loop()) == t.base.circle_valuation


# sha256 of _golden_texts() as computed before the canonical rotation was
# cached at construction; any change to canonical text or edge order shows here
GOLDEN_SHA256 = "e4d479289956926cd6d5070da2b3b51e23823dfdff0c2393a61b8b25b879dc26"

# braid closures: their Gauss words are periodic, so rotations tie
PERIODIC_BRAIDS = (
    "strands 2\n" + "s 1\n" * 3,
    "strands 2\n" + "s 1\n" * 5,
    "strands 3\n" + "s 1\ns 2\n" * 4,
    "strands 3\n" + "s 1\nS 2\n" * 2,
    "strands 4\n" + "s 1\ns 2\ns 3\n" * 5,
    "strands 2\ns 1\nS 1\ns 1\n",
)


def _raw_text(t: TDiagram) -> str:
    """``.gd`` text of the stored word as is, arrow labels and rotation kept."""
    items = []
    for tok, edge in zip(t.base.tokens, t.markings):
        items.append(f"{tok.kind}{tok.arrow}")
        items.extend("M+" if s == 1 else "M-" for s in edge)
    lines = [f"circle {t.base.circle_valuation}", f"arrows {t.base.n}", "seq " + " ".join(items)]
    for a in t.base.arrows:
        lines.append(f"arrow {a.id} sign {'+' if a.sign == 1 else '-'} val {a.valuation}")
    return "\n".join(lines) + "\n"


def _golden_texts() -> list[str]:
    rng = random.Random(20261018)
    out = []
    for n in range(9):
        for _ in range(10):
            g = random_dgd(rng, n=n, val_range=1)
            t = random_tdiagram(rng, n=n, max_marks_per_edge=1)
            out += [g, scrambled_copy(g, rng), t, scrambled_tdiagram(t, rng)]
    for text in PERIODIC_BRAIDS:
        t = extract_tdiagram(braid_to_sliceword(parse_braid(text)))
        out += [t, t.base, scrambled_tdiagram(t, rng), scrambled_copy(t.base, rng)]
    texts = [canonical_serialize(d) for d in out]
    # the stored rotation fixes edge indices, which canonical text hides
    for d in out:
        layout = (d.tokens,) if isinstance(d, DecoratedGaussDiagram) else (d.base.tokens, d.markings)
        texts.append(repr(layout))
    for t in out[2::4]:
        if t.base.n:
            texts.append(canonical_serialize(parse_diagram(_raw_text(scrambled_tdiagram(t, rng)))))
    return texts


def test_canonical_text_is_byte_identical_to_the_frozen_corpus():
    texts = _golden_texts()
    assert len(texts) == 854
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == GOLDEN_SHA256


def test_tied_rotations_of_a_periodic_word_break_by_markings():
    # the sigma_1^3 trefoil word with equal decorations has three tied
    # rotations; the markings differ between them, so they decide
    tokens = [("H", 1), ("T", 2), ("H", 3), ("T", 1), ("H", 2), ("T", 3)]
    marks = [(1,), (), (1, 1, -1), (), (-1, 1, 1), ()]
    expected = """\
circle 3
arrows 3
seq H1 M- M+ M+ T2 H3 M+ T1 H2 M+ M+ M- T3
arrow 1 sign + val 2
arrow 2 sign + val 2
arrow 3 sign + val 2
"""
    for r in range(6):
        for perm in itertools.permutations((1, 2, 3)):
            relabel = dict(zip((1, 2, 3), perm))
            t = assemble_tdiagram(
                [(k, relabel[a]) for k, a in tokens[r:] + tokens[:r]],
                [Arrow(k, 1, 2) for k in perm],
                3,
                marks[r:] + marks[:r],
            )
            assert validate(t).ok
            assert t.base._tied_rotations == (0, 2, 4)
            assert canonical_serialize(t) == expected
            assert canonical_serialize(parse_diagram(_raw_text(t))) == expected


def test_least_rotation_matches_the_full_scan():
    rng = random.Random(6001)
    for _ in range(3000):
        word = tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 12)))
        periodic = word[: rng.randint(1, 4)] * rng.randint(2, 6)
        for seq in (word, periodic):
            assert _least_rotation(seq) == brute_least_rotation(seq)
    # the serializer's blocks of tied edges compare as tuples of marking rows
    blocks_tied = 0
    for _ in range(1500):
        t = periodic_tdiagram(rng, periodic=rng.random() < 0.5)
        ties = t.base._tied_rotations
        if len(ties) > 1:
            p = ties[1]
            blocks = [t.markings[b:b + p] for b in range(0, len(t.markings), p)]
            assert _least_rotation(blocks) == brute_least_rotation(blocks)
            blocks_tied += 1
    assert blocks_tied > 300


def test_least_rotations_match_the_full_key_scan():
    rng = random.Random(5150)
    cases = [random_dgd(rng, max_arrows=8, val_range=rng.choice((0, 1, 3))) for _ in range(1500)]
    cases += [random_tdiagram(rng, max_arrows=8).base for _ in range(1500)]
    cases += [periodic_tdiagram(rng, periodic=i % 2 == 0).base for i in range(3000)]
    periodic_ties = 0
    for g in cases:
        r = rng.randrange(len(g.tokens) or 1)
        tokens = g.tokens[r:] + g.tokens[:r]
        ties = brute_least_rotations(tokens, g.arrow_map)
        heads = [tokens.index(("H", a.id)) for a in g.arrows]
        tails = [tokens.index(("T", a.id)) for a in g.arrows]
        assert _least_rotations(heads, tails, g.arrows) == ties
        assert g._tied_rotations == tuple(t - ties[0] for t in ties)
        periodic_ties += len(ties) > 1
    # period collapse is exercised, not only elimination
    assert periodic_ties > 1000


def _malformed(rng: random.Random, tokens: list, n: int) -> list:
    """One to three faults put into a token list: a wrong kind, an id out of
    range or of another type (bool, float, str), a duplicate, a dropped or
    an extra token."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        q = rng.randrange(len(tokens)) if tokens else None
        fault = rng.randrange(7)
        if fault == 0 and tokens:
            tokens[q] = (rng.choice(("X", "h", "", None, 1)), tokens[q][1])
        elif fault == 1 and tokens:
            tokens[q] = (tokens[q][0], rng.choice((0, -1, n + 1, n + 2)))
        elif fault == 2 and tokens:  # equal to an int id, or not
            a = tokens[q][1] if type(tokens[q][1]) is int else 1
            tokens[q] = (tokens[q][0], rng.choice((a == 1, float(a), a + 0.5, str(a))))
        elif fault == 3 and tokens:
            tokens[q] = tokens[rng.randrange(len(tokens))]
        elif fault == 4 and tokens:
            del tokens[q]
        elif fault == 5:
            tokens.insert(rng.randint(0, len(tokens)), (rng.choice("HT"), rng.randint(1, n + 1)))
        elif tokens:  # swap two ends' kinds, which can leave the word well formed
            r = rng.randrange(len(tokens))
            tokens[q], tokens[r] = (tokens[r][0], tokens[q][1]), (tokens[q][0], tokens[r][1])
    return tokens


def test_token_check_matches_the_sorted_comparison():
    """The one-pass token check accepts and refuses what the sorted
    comparison and its fault scan did, with the same message, and stores the
    same tokens, of the same types, with positions that point at them."""
    rng = random.Random(2210)
    refused = odd_ids_accepted = 0
    for i in range(3000):
        g = random_dgd(rng, max_arrows=6)
        tokens = list(g.tokens) if i % 10 == 0 else _malformed(rng, g.tokens, g.n)
        tokens = [Token(*tok) if rng.random() < 0.5 else tuple(tok) for tok in tokens]
        try:
            want = checked_tokens(tokens, g.arrows)
        except InvalidDiagram as e:
            with pytest.raises(InvalidDiagram) as got:
                DecoratedGaussDiagram(tuple(tokens), g.arrows, 0)
            assert str(got.value) == str(e), tokens
            refused += 1
            continue
        got = DecoratedGaussDiagram(tuple(tokens), g.arrows, 0)
        assert [(*map(type, tok), *tok) for tok in got.tokens] == [
            (*map(type, tok), *tok) for tok in want
        ], tokens
        for a in g.arrows:
            h, t = got.positions[a.id]
            assert (got.tokens[h], got.tokens[t]) == (("H", a.id), ("T", a.id))
        odd_ids_accepted += any(type(tok.arrow) is not int for tok in want)
    assert 1000 < refused < 2900 and odd_ids_accepted > 20


def test_value_records_keep_dataclass_semantics():
    from torogram.braid import Letter, VirtualBraidWord
    from torogram.rebuild import reconstruct
    from torogram.refine import TypeIInsert, TypeIIMinus, TypeIIPlus
    from torogram.slices import Cap, Cup, RealCross, SliceWord, VirtualCross

    g = DecoratedGaussDiagram((("T", 1), ("H", 1)), (Arrow(1, -1, 0),), 1)
    with pytest.raises(AttributeError):
        g.circle_valuation = 2
    with pytest.raises(AttributeError):
        del RealCross(1, 1).sign
    # equality holds within one class only; equal records hash equal
    assert TypeIIPlus(1) != TypeIIMinus(1) and Cup(1) != VirtualCross(1)
    assert RealCross(position=2, sign=-1) == RealCross(2, -1)
    assert TypeIInsert(sign=1, edge=0, pos=2) == TypeIInsert(0, pos=2, sign=1)
    for bad in ((), (1, 2)):
        with pytest.raises(TypeError):
            TypeIIPlus(*bad)
    with pytest.raises(TypeError):
        TypeIIPlus(1, arrow=1)
    assert hash(RealCross(2, -1)) == hash(RealCross(2, -1)) == hash((2, -1))
    assert len({Letter("s", 1), Letter("s", 1), Letter("S", 1)}) == 2
    # the rotation caches and the swept word stay out of == and repr
    twin = DecoratedGaussDiagram((("H", 1), ("T", 1)), (Arrow(1, -1, 0),), 1)
    assert (g._rotation, twin._rotation) == (1, 0) and g == twin and hash(g) == hash(twin)
    a = reconstruct(DecoratedGaussDiagram((), (), 1))
    assert "word" not in repr(a) and "_rotation" not in repr(g)
    assert a == type(a)(a.refinement, a.column_markings, word=None)
    # repr text as the dataclasses printed it
    assert repr(g) == (
        "DecoratedGaussDiagram(tokens=(Token(kind='H', arrow=1), Token(kind='T', arrow=1)), "
        "arrows=(Arrow(id=1, sign=-1, valuation=0),), circle_valuation=1)"
    )
    assert repr(RealCross(2, -1)) == "RealCross(position=2, sign=-1)"
    assert repr(TypeIInsert(0, 1, -1)) == "TypeIInsert(edge=0, pos=1, sign=-1)"
    assert repr(DiagramLoop((CircleForward(0), ArrowJump(1, "head")))) == (
        "DiagramLoop(steps=(CircleForward(edge=0), ArrowJump(arrow=1, to='head')))"
    )
    assert repr(SliceWord((1, -1), (Cap(1, 1),))) == (
        "SliceWord(bottom=(1, -1), slices=(Cap(position=1, left_direction=1),))"
    )
    assert repr(VirtualBraidWord(2, (Letter("v", 1),))) == (
        "VirtualBraidWord(strands=2, letters=(Letter(kind='v', index=1),))"
    )
    assert repr(a) == (
        "AnnularDiagram(refinement=TDiagram(base=DecoratedGaussDiagram(tokens=(), arrows=(), "
        "circle_valuation=1), markings=((1,),)), column_markings=(0,))"
    )


def test_the_package_exports_every_imported_public_name():
    import types

    import torogram

    names = torogram.__all__
    assert len(names) == len(set(names)) and names[-1] == "__version__"
    assert {"reconstruct", "extract_tdiagram", "TDiagram", "NotFull", "Move"} <= set(names)
    assert not {"admit", "braid", "diagrams", "errors", "rebuild", "refine", "slices"} & set(names)
    for name in names[:-1]:
        assert not name.startswith("_")
        assert not isinstance(getattr(torogram, name), types.ModuleType)
