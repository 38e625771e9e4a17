import hashlib
import json
import random

import pytest

from torogram import canonical_serialize, parse_diagram, rebuild
from torogram.braid import Letter, VirtualBraidWord, braid_to_sliceword, closure_permutation_of
from torogram.diagrams import TDiagram, is_full
from torogram.errors import InvalidDiagram, NotFull, NotRealRealizable
from torogram.refine import find_refinement, minimal_refinement
from torogram.rebuild import (
    _annulus,
    _curve_faces,
    annular_to_json,
    find_section,
    reconstruct,
    render_svg,
    to_sliceword,
    whitney_index,
)
from torogram.slices import (
    Cap,
    Cup,
    RealCross,
    SliceWord,
    VirtualCross,
    _read,
    _tdiagram,
    direction_levels,
    extract_tdiagram,
    represent_dgd,
    serialize_sliceword,
)

from gen import (
    random_braid_word,
    random_dgd,
    random_real_sliceword,
    refinement_like,
    scrambled_copy,
    scrambled_tdiagram,
)
from oracles import (
    _passage_table,
    _region_classes,
    brute_section,
    glued_surface_faces,
    turning_number,
)

THREE_TWISTS = parse_diagram(
    "circle 2\n"
    "arrows 3\n"
    "seq H1 T2 H3 T1 H2 T3\n"
    "arrow 1 sign + val 1\n"
    "arrow 2 sign + val 1\n"
    "arrow 3 sign + val 1\n"
)

GLUED_REASONS = {
    "the glued surface is not an annulus",
    "the glued faces wind wrongly around the annulus",
}

TWISTED_THRICE = SliceWord((1, 1), (RealCross(1, 1), RealCross(1, 1), RealCross(1, 1)))


def test_three_twists_rebuild_as_one_piece():
    a = reconstruct(THREE_TWISTS)
    assert a.column_markings == (1, 0)
    assert len(a.components) == 1
    piece = a.components[0]
    assert piece.arcs == (0, 1)
    assert piece.crossings == (1, 2, 3)
    assert piece.bottoms == ("end1.0", "end0.0")
    assert piece.tops == ("end0.1", "end1.1")


def test_component_maps_are_built_only_when_read():
    rng = random.Random(101)
    for _ in range(20):
        g = extract_tdiagram(random_real_sliceword(rng)).base
        a = reconstruct(g)
        to_sliceword(a)
        render_svg(a)
        whitney_index(g)
        assert a._components is None
        assert annular_to_json(a)["components"][0]["crossings"] == [x.id for x in g.arrows]
        assert a._components is a.components


def test_three_twists_redraw_to_the_twist_word():
    a = reconstruct(THREE_TWISTS)
    word = to_sliceword(a)
    assert word == TWISTED_THRICE
    assert canonical_serialize(extract_tdiagram(word)) == canonical_serialize(a.refinement)


def test_core_circle_draws_one_strand():
    core = parse_diagram("circle 1\narrows 0\nseq\n")
    a = reconstruct(core)
    assert a.column_markings == (0,)
    assert to_sliceword(a) == SliceWord((1,), ())


def test_reversed_core_circle_runs_downward():
    anti = parse_diagram("circle -1\narrows 0\nseq\n")
    assert to_sliceword(reconstruct(anti)) == SliceWord((-1,), ())


def test_doubly_wound_circle_is_rejected():
    double = parse_diagram("circle 2\narrows 0\nseq\n")
    with pytest.raises(NotRealRealizable) as info:
        reconstruct(double)
    assert "wind" in info.value.reason


def test_interleaved_arrows_do_not_draw_flat():
    interleaved = parse_diagram(
        "circle 1\narrows 2\nseq H1 H2 T1 T2\n"
        "arrow 1 sign + val 1\narrow 2 sign + val 1\n"
    )
    with pytest.raises(NotRealRealizable) as info:
        reconstruct(interleaved)
    assert "annulus" in info.value.reason


def test_undecorated_diagram_has_no_real_picture():
    flat = parse_diagram("circle 0\narrows 1\nseq H1 T1\narrow 1 sign + val 0\n")
    with pytest.raises(NotFull):
        reconstruct(flat)


def test_whitney_index_fails_as_reconstruct_does():
    rng = random.Random(67)
    cases = [
        parse_diagram("circle 2\narrows 0\nseq\n"),
        parse_diagram("circle 0\narrows 1\nseq H1 T1\narrow 1 sign + val 0\n"),
        parse_diagram(
            "circle 1\narrows 2\nseq H1 H2 T1 T2\n"
            "arrow 1 sign + val 1\narrow 2 sign + val 1\n"
        ),
    ] + [random_dgd(rng, max_arrows=4, val_range=2) for _ in range(200)]
    kinds = set()
    for g in cases:
        try:
            reconstruct(g)
        except (NotFull, NotRealRealizable) as want:
            with pytest.raises(type(want)) as got:
                whitney_index(g)
            assert str(got.value) == str(want)
            kinds.add((type(want), str(want)))
    assert {kind for kind, _ in kinds} == {NotFull, NotRealRealizable}
    assert {reason for kind, reason in kinds if kind is NotRealRealizable} == GLUED_REASONS


def test_whitney_index_first_fails_as_reconstruct_then_does():
    rng = random.Random(67)
    cases = [
        parse_diagram("circle 2\narrows 0\nseq\n"),
        parse_diagram("circle 0\narrows 1\nseq H1 T1\narrow 1 sign + val 0\n"),
        parse_diagram(
            "circle 1\narrows 2\nseq H1 H2 T1 T2\n"
            "arrow 1 sign + val 1\narrow 2 sign + val 1\n"
        ),
    ] + [random_dgd(rng, max_arrows=4, val_range=2) for _ in range(200)]
    kinds = set()
    for g in cases:
        try:
            n = whitney_index(g)
        except (NotFull, NotRealRealizable) as want:
            with pytest.raises(type(want)) as got:
                reconstruct(g)
            assert str(got.value) == str(want)
            kinds.add((type(want), str(want)))
        else:
            reconstruct(g)  # draws, as whitney_index did
            assert whitney_index(g) == n
    assert {kind for kind, _ in kinds} == {NotFull, NotRealRealizable}
    assert {reason for kind, reason in kinds if kind is NotRealRealizable} == GLUED_REASONS


@pytest.fixture(scope="module")
def glued_corpus():
    """Full diagrams with their oracle faces and rebuild outcome: mixed-sign
    random diagrams of 0-7 arrows, then the diagrams of real drawings."""
    rng = random.Random(83)
    diagrams = [random_dgd(rng, max_arrows=7) for _ in range(3200)]
    diagrams += [extract_tdiagram(random_real_sliceword(rng)).base for _ in range(200)]
    cases = []
    for g in diagrams:
        if not is_full(g):
            continue
        try:
            reconstruct(g)
            outcome = None
        except NotRealRealizable as e:
            outcome = e.reason
        cases.append((g, *glued_surface_faces(g), outcome))
    return cases


def test_rebuild_succeeds_exactly_when_a_face_pair_matches(glued_corpus):
    assert len(glued_corpus) >= 3000
    for g, _, pairs, outcome in glued_corpus:
        assert (outcome is None) == bool(pairs), canonical_serialize(g)
    assert sum(outcome is None for *_, outcome in glued_corpus) >= 300


def test_rebuild_names_the_glued_surface_fault(glued_corpus):
    for g, count, pairs, outcome in glued_corpus:
        if count != g.n + 2:
            assert outcome == "the glued surface is not an annulus"
        elif not pairs:
            assert outcome == "the glued faces wind wrongly around the annulus"
    assert {outcome for *_, outcome in glued_corpus} == GLUED_REASONS | {None}


def _classes(g, counts):
    """Every face's class under per-edge net counts, computed afresh."""
    face, count = _curve_faces(g)
    winding = [0] * count
    for e, c in enumerate(counts):
        winding[face[2 * e]] += c
        winding[face[2 * e + 1]] -= c
    return winding


def test_wrong_classes_are_refused_before_any_refinement(glued_corpus, monkeypatch):
    def refuse(g):
        raise AssertionError("a refinement was computed")

    monkeypatch.setattr(rebuild, "minimal_refinement", refuse)
    wound = [canonical_serialize(g) for g, *_, outcome in glued_corpus
             if outcome and "wind" in outcome]
    assert len(wound) >= 100
    for text in wound + ["circle 2\narrows 0\nseq\n"]:
        with pytest.raises(NotRealRealizable, match="^the glued faces wind wrongly around the annulus$"):
            reconstruct(parse_diagram(text))  # a fresh copy: the verdict is stored on the diagram


def test_classes_from_the_reference_counts_match_every_refinement():
    # two refinements differ by δπ, and the dual of δ of one crossing's
    # indicator is a cycle round it, so the classes do not depend on the
    # refinement once the curve lies on a sphere
    rng = random.Random(89)
    spherical = 0
    for _ in range(1500):
        g = random_dgd(rng, max_arrows=7)
        if _curve_faces(g)[1] != g.n + 2:
            continue
        spherical += 1
        want = _classes(g, g.reference_counts)
        assert _classes(g, find_refinement(g).net_counts()) == want
        assert _classes(g, minimal_refinement(g).net_counts()) == want
    assert spherical >= 300


def _mixed_closure(rng, strands, letters):
    """A braid word of ``letters`` random s/S letters whose closure is a knot;
    ``letters`` must be congruent to ``strands - 1`` mod 2."""
    while True:
        drawn = tuple(
            Letter(rng.choice("sS"), rng.randint(1, strands - 1)) for _ in range(letters)
        )
        exits = closure_permutation_of(strands, drawn)
        seen, at = 1, exits[0]
        while at != 0:
            at = exits[at]
            seen += 1
        if seen == strands:
            return VirtualBraidWord(strands, drawn)


def _assert_one_piece_along_the_columns(g):
    a = reconstruct(g)
    signs = [s for edge in a.refinement.markings for s in edge]
    k = len(signs)
    columns = a.column_markings
    assert sorted(columns) == list(range(k))
    (piece,) = a.components
    assert piece.arcs == tuple(range(k))
    assert piece.bottoms == tuple(
        f"end{j}.0" if signs[j] == 1 else f"end{(j - 1) % k}.1" for j in columns
    )
    assert piece.tops == tuple(
        f"end{(j - 1) % k}.1" if signs[j] == 1 else f"end{j}.0" for j in columns
    )
    word = to_sliceword(a)
    assert word.bottom == tuple(signs[j] for j in columns)
    assert canonical_serialize(extract_tdiagram(word).base) == canonical_serialize(g)


@pytest.mark.parametrize("strands", [2, 5, 16])
def test_mixed_sign_closures_of_800_crossings_rebuild_as_one_piece(strands):
    rng = random.Random(800 + strands)
    word = _mixed_closure(rng, strands, 800 + (strands - 1) % 2)
    assert {letter.kind for letter in word.letters} == {"s", "S"}
    _assert_one_piece_along_the_columns(extract_tdiagram(braid_to_sliceword(word)).base)


def test_large_real_drawings_rebuild_as_one_piece():
    rng = random.Random(89)
    for _ in range(12):
        word = random_real_sliceword(
            rng, max_strands=10, max_front=30, min_crossings=20, max_crossings=80
        )
        _assert_one_piece_along_the_columns(extract_tdiagram(word).base)


def test_whitney_index_of_the_fixtures():
    assert whitney_index(THREE_TWISTS) == 0
    assert whitney_index(parse_diagram("circle 1\narrows 0\nseq\n")) == 0
    assert whitney_index(parse_diagram("circle -1\narrows 0\nseq\n")) == 0


def test_whitney_index_matches_the_polyline_turning_number():
    rng = random.Random(31)
    for _ in range(60):
        word = random_real_sliceword(rng)
        g = extract_tdiagram(word).base
        wi = whitney_index(g)
        assert wi == turning_number(word)
        assert wi == turning_number(to_sliceword(reconstruct(g)))


def test_random_full_diagrams_round_trip():
    rng = random.Random(19)
    for _ in range(80):
        word = random_real_sliceword(rng)
        g = extract_tdiagram(word).base
        redrawn = extract_tdiagram(to_sliceword(reconstruct(g))).base
        assert canonical_serialize(redrawn) == canonical_serialize(g)


def test_rebuild_is_deterministic():
    rng = random.Random(43)
    for _ in range(25):
        word = random_real_sliceword(rng)
        g = extract_tdiagram(word).base
        assert annular_to_json(reconstruct(g)) == annular_to_json(reconstruct(g))
        assert render_svg(reconstruct(g)) == render_svg(reconstruct(g))


def test_relabelled_input_draws_the_same_picture():
    # arrow ids survive into the JSON, but the geometry must not move
    rng = random.Random(47)
    for _ in range(25):
        word = random_real_sliceword(rng)
        g = extract_tdiagram(word).base
        twin = scrambled_copy(g, rng)
        assert to_sliceword(reconstruct(twin)) == to_sliceword(reconstruct(g))
        assert render_svg(reconstruct(twin)) == render_svg(reconstruct(g))


def test_annular_json_shape():
    data = annular_to_json(reconstruct(THREE_TWISTS))
    assert set(data) == {"refinement", "columns", "mates", "components"}
    assert data["columns"] == [
        {"column": 1, "marking": 1},
        {"column": 2, "marking": 0},
    ]
    piece = data["components"][0]
    assert set(piece) == {"arcs", "crossings", "signs", "rotation", "bottoms", "tops"}
    assert piece["signs"] == {"1": 1, "2": 1, "3": 1}


def test_svg_of_the_core_circle_is_one_path():
    svg = render_svg(reconstruct(parse_diagram("circle 1\narrows 0\nseq\n")))
    assert svg.count("<path") == 1
    assert svg.count('class="section"') == 2


def test_svg_shows_each_crossing_once():
    svg = render_svg(reconstruct(THREE_TWISTS))
    assert svg.count('<g class="crossing"') == 3
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_section_of_the_twist_word_keeps_its_own_markings():
    t = extract_tdiagram(TWISTED_THRICE)
    kept, seq = find_section(TWISTED_THRICE, t)
    assert canonical_serialize(kept) == canonical_serialize(t)
    assert seq == ((5, 0, 1), (2, 0, 1))


def test_section_drops_a_padded_marking_pair():
    t = extract_tdiagram(TWISTED_THRICE)
    padded = list(t.markings)
    padded[0] = (1, -1) + padded[0]
    fat = TDiagram(t.base, tuple(padded))
    kept, _ = find_section(TWISTED_THRICE, fat)
    assert canonical_serialize(kept) == canonical_serialize(t)


def test_section_is_idempotent_on_random_words():
    rng = random.Random(59)
    for _ in range(40):
        word = random_real_sliceword(rng, max_crossings=8)
        t = extract_tdiagram(word)
        kept, seq = find_section(word, t)
        again, seq2 = find_section(word, kept)
        assert canonical_serialize(again) == canonical_serialize(kept)
        assert seq2 == seq
        assert len(seq) <= t.marking_count


def test_every_passage_of_an_edge_joins_the_same_two_regions():
    # find_section rests on this: a move is paid for by any marking of its
    # sign, and a simple region path crosses each edge at most once; the
    # regions are the curve's faces, face[2e + 1] left of an upward passage
    # of edge e, and the left boundary's region is the class -1 face
    rng = random.Random(67)
    words = [random_real_sliceword(rng, max_crossings=12) for _ in range(60)]
    while len(words) < 90:  # rebuilt braid closures, up to five strands
        g = extract_tdiagram(
            braid_to_sliceword(random_braid_word(rng, max_strands=5, max_real=14, max_virtual=0))
        ).base
        words.append(to_sliceword(reconstruct(g)))
    repeated = 0
    for word in words:
        reading = _read(word)
        drawn = _tdiagram(word, reading)
        face, faces = _curve_faces(drawn.base)
        region = _region_classes(word, direction_levels(word))
        moves: dict[int, set] = {}
        passages: dict[int, int] = {}
        to_face: dict = {}
        for (l, c), (e, _, d) in _passage_table(word, drawn.base).items():
            left, right = region[(l, c - 1)], region[(l, c)]
            moves.setdefault(e, set()).add(min((left, right, d), (right, left, -d)))
            passages[e] = passages.get(e, 0) + 1
            up_left, up_right = face[2 * e + 1], face[2 * e]
            want = (up_left, up_right) if d == 1 else (up_right, up_left)
            assert (to_face.setdefault(left, want[0]), to_face.setdefault(right, want[1])) == want
        assert all(len(one) == 1 for one in moves.values()), serialize_sliceword(word)
        assert set(to_face) == set(region.values())
        assert sorted(to_face.values()) == list(range(faces))  # one-to-one onto the faces
        winding = [0] * faces  # each marking's dual edge, into the face of dart 2e if +1
        for e, row in enumerate(drawn.markings):
            for s in row:
                winding[face[2 * e]] += s
                winding[face[2 * e + 1]] -= s
        assert sorted(winding) == [-1] + [0] * drawn.base.n + [1]
        _, start, goal = _annulus(drawn.base, drawn.net_counts())
        assert (start, goal) == (winding.index(-1), winding.index(1))
        assert to_face[region[(0, 0)]] == start
        repeated += sum(count > 1 for count in passages.values())
    assert repeated > 100  # many edges pass several lines


def test_section_matches_the_plain_iterative_deepening():
    rng = random.Random(61)
    words = [random_real_sliceword(rng, max_crossings=8) for _ in range(40)]
    while len(words) < 70:  # rebuilt braid closures, up to four strands
        g = extract_tdiagram(
            braid_to_sliceword(random_braid_word(rng, max_strands=4, max_real=10, max_virtual=0))
        ).base
        words.append(to_sliceword(reconstruct(g)))
    for word in words:
        t = extract_tdiagram(word)
        for marks in (t, refinement_like(t, rng), refinement_like(t, rng)):
            kept, seq = find_section(word, marks)
            want_kept, want_seq = brute_section(word, marks)
            assert kept == want_kept
            assert seq == want_seq


def test_section_reads_a_foreign_copy_of_the_markings_as_the_stored_extraction():
    rng = random.Random(71)
    for _ in range(40):
        word = random_real_sliceword(rng, min_crossings=1, max_crossings=8)
        t = extract_tdiagram(word)
        if len(t.base._tied_rotations) > 1:
            continue  # a symmetric diagram: a copy's edges match up to the symmetry only
        kept, seq = find_section(word, t)
        copy = scrambled_tdiagram(t, rng)
        assert copy.base is not t.base
        kept_copy, seq_copy = find_section(word, copy)
        assert canonical_serialize(kept_copy) == canonical_serialize(kept)
        assert seq_copy == seq


def test_section_refuses_a_foreign_tdiagram_of_another_diagram():
    rng = random.Random(73)
    word = random_real_sliceword(rng, min_crossings=3, max_crossings=8)
    other = extract_tdiagram(SliceWord((1, 1), (RealCross(1, 1),) * 5))
    assert canonical_serialize(other.base) != canonical_serialize(extract_tdiagram(word).base)
    with pytest.raises(InvalidDiagram, match="^the markings refine a different diagram$"):
        find_section(word, other)


def test_section_refuses_virtual_letters():
    word = represent_dgd(parse_diagram("circle 2\narrows 0\nseq\n"))
    assert any(isinstance(s, VirtualCross) for s in word.slices)
    t = extract_tdiagram(word)
    with pytest.raises(InvalidDiagram):
        find_section(word, t)


def test_section_refuses_markings_of_another_diagram():
    t = extract_tdiagram(SliceWord((1,), ()))
    with pytest.raises(InvalidDiagram):
        find_section(TWISTED_THRICE, t)


def test_section_needs_a_full_word():
    word = SliceWord((), (Cap(1, -1), RealCross(1, 1), Cup(1)))
    t = extract_tdiagram(word)
    with pytest.raises(NotFull):
        find_section(word, t)


# -- frozen outputs

# sha256 of _rebuild_texts() as computed over tuple darts, wire objects and
# tuple-keyed section gaps: any change to a rebuilt picture's JSON, drawn
# word, SVG or Whitney index, to a moved section, or to a rejection reason
# shows here
REBUILD_SHA256 = "7029a32dac697e657883e30ab05d9f33a90d8a4019e29bbe88c00895cf665c31"


def _rebuild_texts() -> list[str]:
    rng = random.Random(20261020)
    drawings = [random_real_sliceword(rng) for _ in range(300)]
    diagrams = [extract_tdiagram(word).base for word in drawings]
    diagrams += [random_dgd(rng, max_arrows=7) for _ in range(300)]
    diagrams.append(extract_tdiagram(braid_to_sliceword(_mixed_closure(rng, 5, 800))).base)
    out = []
    for word in drawings:
        kept, seq = find_section(word, extract_tdiagram(word))
        out += [canonical_serialize(kept), repr(seq)]
    for g in diagrams:
        try:
            a = reconstruct(g)
        except (NotFull, NotRealRealizable) as e:
            out.append(f"{type(e).__name__}: {e}")
            continue
        word = to_sliceword(a)
        kept, seq = find_section(word, extract_tdiagram(word))
        out += [
            json.dumps(annular_to_json(a)),
            serialize_sliceword(word),
            render_svg(a),
            str(whitney_index(g)),
            canonical_serialize(kept),
            repr(seq),
        ]
    return out


def test_rebuilt_outputs_are_byte_identical_to_the_frozen_corpus():
    texts = _rebuild_texts()
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == REBUILD_SHA256
