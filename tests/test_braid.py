"""Braid words, their closures, and synthesis from leveled diagrams."""
from __future__ import annotations

import hashlib
import random

import pytest

from gen import random_braid_word, random_tdiagram
from torogram.admit import ADMISSIBLE, check_admissible, level_decomposition
from torogram.braid import (
    Letter,
    VirtualBraidWord,
    braid_to_sliceword,
    closure_permutation,
    parse_braid,
    represent_as_closed_braid,
    serialize_braid,
    synthesize_braid,
)
from torogram.diagrams import (
    Arrow,
    Token,
    assemble_tdiagram,
    canonical_serialize,
    parse_diagram,
)
from torogram.errors import InvalidDiagram, NoLevels, NotPositive, ParseError
from torogram.refine import positive_refinement
from torogram.slices import (
    RealCross,
    VirtualCross,
    _represent_parked,
    extract_tdiagram,
    represent_tdiagram,
    validate_sliceword,
)

MARKED_THREE = (
    "circle 2\n"
    "arrows 3\n"
    "seq M+ H1 T2 H3 M+ T1 H2 T3\n"
    "arrow 1 sign + val 1\n"
    "arrow 2 sign + val 1\n"
    "arrow 3 sign + val 1\n"
)


def test_three_twists_synthesize_to_cubed_generator():
    word = synthesize_braid(parse_diagram(MARKED_THREE))
    assert word == VirtualBraidWord(2, (Letter("s", 1),) * 3)


def test_represent_as_closed_braid_on_underlying_diagram():
    g = parse_diagram(MARKED_THREE).base
    assert represent_as_closed_braid(g) == VirtualBraidWord(2, (Letter("s", 1),) * 3)


def test_two_windings_need_one_virtual_letter():
    t = positive_refinement(parse_diagram("circle 2\narrows 0\nseq\n"))
    assert synthesize_braid(t) == VirtualBraidWord(2, (Letter("v", 1),))


def test_single_winding_is_the_identity_braid():
    t = positive_refinement(parse_diagram("circle 1\narrows 0\nseq\n"))
    assert synthesize_braid(t) == VirtualBraidWord(1, ())


def test_letter_rejects_bad_kind_and_index():
    with pytest.raises(InvalidDiagram):
        Letter("x", 1)
    with pytest.raises(InvalidDiagram):
        Letter("s", 0)


def test_word_rejects_wide_letters_and_link_closures():
    with pytest.raises(InvalidDiagram):
        VirtualBraidWord(2, (Letter("s", 2),))
    with pytest.raises(InvalidDiagram):
        VirtualBraidWord(0, ())
    # identity on two strands closes to two circles
    with pytest.raises(InvalidDiagram):
        VirtualBraidWord(2, ())


def test_closure_permutation():
    word = VirtualBraidWord(2, (Letter("s", 1),))
    assert closure_permutation(word) == (1, 0)
    word = VirtualBraidWord(3, (Letter("v", 1), Letter("s", 2)))
    assert closure_permutation(word) == (2, 0, 1)


def test_serialize_three_twists():
    word = VirtualBraidWord(2, (Letter("s", 1),) * 3)
    assert serialize_braid(word) == "strands 2\ns 1\ns 1\ns 1\n"


def test_parse_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        word = random_braid_word(rng)
        assert parse_braid(serialize_braid(word)) == word


def test_parse_skips_comments_and_blanks():
    text = "# a knot\n\nstrands 2  # two strands\ns 1\n\nS 1\ns 1\n"
    word = parse_braid(text)
    assert word.strands == 2
    assert [l.kind for l in word.letters] == ["s", "S", "s"]


@pytest.mark.parametrize(
    "text",
    [
        "s 1\n",
        "strands 2\nstrands 2\nv 1\n",
        "strands\nv 1\n",
        "strands two\nv 1\n",
        "strands 2\nq 1\n",
        "strands 2\ns 1 2\n",
        "strands 2\ns one\n",
        "",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_braid(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_braid("strands 2\ns 1\nq 1\n")
    assert info.value.line == 3


def test_braid_to_sliceword_letter_map():
    word = VirtualBraidWord(3, (Letter("s", 1), Letter("S", 2), Letter("v", 1), Letter("s", 2)))
    sw = braid_to_sliceword(word)
    assert sw.bottom == (1, 1, 1)
    assert sw.slices == (
        RealCross(1, 1),
        RealCross(2, -1),
        VirtualCross(1),
        RealCross(2, 1),
    )
    assert validate_sliceword(sw).ok


def test_synthesize_needs_positive_markings():
    t = assemble_tdiagram((), (), -1, [[-1]])
    with pytest.raises(NotPositive):
        synthesize_braid(t)


def test_synthesize_propagates_stuck_levels():
    tokens = (Token("H", 1), Token("H", 2), Token("T", 1), Token("T", 2))
    arrows = (Arrow(1, 1, 1), Arrow(2, 1, 1))
    t = assemble_tdiagram(tokens, arrows, 1, [[], [1], [], []])
    with pytest.raises(NoLevels):
        synthesize_braid(t)


def test_closure_round_trips_through_extraction():
    rng = random.Random(23)
    for _ in range(200):
        word = random_braid_word(rng)
        t = extract_tdiagram(braid_to_sliceword(word))
        assert check_admissible(t.base).verdict == ADMISSIBLE or t.base.n == 0
        word2 = synthesize_braid(t)
        t2 = extract_tdiagram(braid_to_sliceword(word2))
        assert canonical_serialize(t2) == canonical_serialize(t)


def test_synthesis_round_trips_on_admissible_diagrams():
    rng = random.Random(31)
    seen = 0
    while seen < 120:
        t = random_tdiagram(rng, positive=True)
        if check_admissible(t.base).verdict != ADMISSIBLE:
            continue
        seen += 1
        word = synthesize_braid(t)
        back = extract_tdiagram(braid_to_sliceword(word))
        assert canonical_serialize(back) == canonical_serialize(t)


def test_synthesis_is_deterministic():
    rng = random.Random(47)
    for _ in range(40):
        word = random_braid_word(rng)
        t = extract_tdiagram(braid_to_sliceword(word))
        again = extract_tdiagram(braid_to_sliceword(word))
        assert synthesize_braid(t) == synthesize_braid(again)


# -- representation


def test_represent_draws_leveled_positive_refinements_as_braid_closures():
    rng = random.Random(61)
    refinements = [extract_tdiagram(braid_to_sliceword(random_braid_word(rng))) for _ in range(100)]
    refinements += [random_tdiagram(rng, max_arrows=6, positive=True) for _ in range(300)]
    seen = 0
    for t in refinements:
        try:
            level_decomposition(t)
        except NoLevels:
            continue
        seen += 1
        assert represent_tdiagram(t) == braid_to_sliceword(synthesize_braid(t))
    assert seen > 200


def test_represent_parks_refinements_that_are_not_braid_closures():
    rng = random.Random(62)
    seen = {"negative": 0, "unmarked": 0, "no levels": 0}
    for _ in range(400):
        t = random_tdiagram(rng, max_arrows=5)
        if t.is_positive:
            try:
                level_decomposition(t)
                continue
            except NoLevels:
                seen["no levels"] += 1
        else:
            seen["negative" if t.marking_count else "unmarked"] += 1
        word = represent_tdiagram(t)
        assert word == _represent_parked(t)
        assert canonical_serialize(extract_tdiagram(word)) == canonical_serialize(t)
    assert min(seen.values()) > 10


# -- frozen outputs

# sha256 of _synthesis_texts() as computed by the synthesis that looked up
# each arc's column with a list search; any change to a synthesized word shows
# here
SYNTHESIS_SHA256 = "9569e8097455f39af5b0e1a6e01b4538972fb9bd76bc942e4e59254badaa3603"


def _synthesis_texts() -> list[str]:
    rng = random.Random(20261018)
    refinements = []
    while len(refinements) < 240:
        word = random_braid_word(rng, max_real=rng.choice((8, 40, 200)), max_virtual=10)
        t = extract_tdiagram(braid_to_sliceword(word))
        refinements += [t, positive_refinement(t.base)]
    while len(refinements) < 360:
        t = random_tdiagram(rng, max_arrows=7, positive=True)
        if check_admissible(t.base).verdict == ADMISSIBLE:
            refinements.append(t)
    return [serialize_braid(synthesize_braid(t)) for t in refinements]


def test_synthesis_is_byte_identical_to_the_frozen_corpus():
    texts = _synthesis_texts()
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == SYNTHESIS_SHA256
