import hashlib
import json
import random

import pytest
from hypothesis import given, settings

from torogram import canonical_serialize, find_refinement, parse_diagram, validate
from torogram.braid import braid_to_sliceword
from torogram.diagrams import TDiagram
from torogram.errors import InvalidDiagram, NotRealRealizable, ParseError
from torogram.rebuild import find_section, reconstruct, to_sliceword
from torogram.slices import (
    Cap,
    Cup,
    RealCross,
    SliceWord,
    VirtualCross,
    _represent_parked,
    _survey,
    crossing_records,
    direction_levels,
    extract_tdiagram,
    parse_sliceword,
    represent_dgd,
    represent_tdiagram,
    serialize_sliceword,
    validate_sliceword,
)

from gen import (
    random_braid_word,
    random_closed_sliceword,
    random_dgd,
    random_real_sliceword,
    random_tdiagram,
    t_diagrams,
)
from oracles import brute_curve_count, brute_survey

MARKED_THREE = """\
circle 2
arrows 3
seq M+ H1 T2 H3 M+ T1 H2 T3
arrow 1 sign + val 1
arrow 2 sign + val 1
arrow 3 sign + val 1
"""

TWISTED_THRICE = SliceWord((1, 1), (RealCross(1, 1), RealCross(1, 1), RealCross(1, 1)))

BARE_CIRCLE = SliceWord((), (Cap(1, -1), Cup(1)))


def test_three_positive_twists_extract_to_the_marked_diagram():
    assert validate_sliceword(TWISTED_THRICE).ok
    t = extract_tdiagram(TWISTED_THRICE)
    assert canonical_serialize(t) == MARKED_THREE


def test_bare_circle_round_trip():
    assert validate_sliceword(BARE_CIRCLE).ok
    t = extract_tdiagram(BARE_CIRCLE)
    assert t.base.n == 0
    assert t.base.circle_valuation == 0
    assert t.markings == ((),)


def test_crossing_records_for_the_twists():
    recs = crossing_records(TWISTED_THRICE)
    assert recs == ((1, 1, 1, 1), (2, 1, 1, 2), (3, 1, 1, 3))


def test_direction_levels_track_every_gap():
    word = SliceWord((1,), (Cap(2, -1), VirtualCross(2), Cup(2)))
    assert direction_levels(word) == [(1,), (1, -1, 1), (1, 1, -1), (1,)]


# -- the text format


def test_serialize_parse_round_trip():
    word = SliceWord(
        (1, -1),
        (Cap(3, 1), RealCross(2, -1), VirtualCross(1), Cup(3)),
    )
    text = serialize_sliceword(word)
    assert parse_sliceword(text) == word
    assert serialize_sliceword(parse_sliceword(text)) == text


def test_serialized_text_is_readable():
    assert serialize_sliceword(TWISTED_THRICE) == "bottom + +\ncross 1 +\ncross 1 +\ncross 1 +\n"
    assert serialize_sliceword(SliceWord((), ())) == "bottom\n"


def test_parse_accepts_comments_and_blanks():
    text = "# twisted\nbottom + +\n\ncross 1 +  # one twist\n"
    assert parse_sliceword(text) == SliceWord((1, 1), (RealCross(1, 1),))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("cross 1 +\n", "bottom line must come first"),
        ("bottom +\nbottom -\n", "repeated bottom"),
        ("bottom ?\n", "expected + or -"),
        ("bottom +\ncross x +\n", "column number"),
        ("bottom +\ncross 0 +\n", "columns start at 1"),
        ("bottom +\ncross 1\n", "cross takes"),
        ("bottom +\nvirtual 1 +\n", "virtual takes"),
        ("bottom +\ncap 1\n", "cap takes"),
        ("bottom +\ncup 1 1\n", "cup takes"),
        ("bottom +\nslide 1\n", "unknown level"),
        ("", "missing bottom"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_sliceword(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_sliceword("bottom +\ncross 1 +\ncup 9 9\n")
    assert exc.value.line == 3


def test_parse_shares_one_record_per_distinct_line():
    word = parse_sliceword("bottom + +\ncross 1 +\ncross 1 +\ncross 1 -\ncross 1 +\n")
    assert word.slices == (RealCross(1, 1), RealCross(1, 1), RealCross(1, -1), RealCross(1, 1))
    assert word.slices[0] is word.slices[1] is word.slices[3]
    # a repeated bad line fails where it first appears; a second bottom still fails
    for text, line, fragment in (
        ("bottom +\ncup 9 9\ncup 9 9\n", 2, "cup takes"),
        ("bottom +\ncross 1 +\ncross 1 +\nbottom +\n", 4, "repeated bottom"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_sliceword(text)
        assert exc.value.line == line and fragment in str(exc.value)


# -- validation


def test_validate_rejects_out_of_range_levels():
    report = validate_sliceword(SliceWord((1, -1), (RealCross(2, 1),)))
    assert not report.ok
    assert "level 1" in report.problems[0]


def test_validate_rejects_same_direction_cup():
    report = validate_sliceword(SliceWord((1, 1), (Cup(1),)))
    assert not report.ok
    assert "same way" in report.problems[0]


def test_validate_rejects_open_ends():
    report = validate_sliceword(SliceWord((1, -1), (VirtualCross(1),)))
    assert not report.ok
    assert "does not close up" in report.problems[0]


def test_validate_rejects_split_curves():
    report = validate_sliceword(SliceWord((1, 1), ()))
    assert not report.ok
    assert "2 closed curves" in report.problems[0]


def test_validate_rejects_empty_picture():
    report = validate_sliceword(SliceWord((), ()))
    assert not report.ok
    assert "draws nothing" in report.problems[0]


def test_extract_refuses_invalid_words():
    with pytest.raises(InvalidDiagram):
        extract_tdiagram(SliceWord((1, 1), ()))


def test_report_json():
    assert validate_sliceword(BARE_CIRCLE).to_json() == {"ok": True, "problems": []}


def test_curve_count_matches_the_union_find_oracle():
    rng = random.Random(41)
    seen = {0: 0, 1: 0, 2: 0}
    for _ in range(3000):
        word = random_closed_sliceword(rng)
        curves = brute_curve_count(word)
        report = validate_sliceword(word)
        seen[min(curves, 2)] += 1
        assert report.ok == (curves == 1)
        if curves == 0:
            assert report.problems == ("the word draws nothing",)
        elif curves > 1:
            assert report.problems == (f"{curves} closed curves, need exactly one",)
    assert min(seen.values()) > 50  # empty, single and multi-curve words all occur


def test_survey_matches_the_step_walk():
    """Same report and first trail as the step rule walked one call per
    passage, on valid and invalid words alike."""
    rng = random.Random(20261020)
    words = [random_closed_sliceword(rng) for _ in range(400)]
    words += [random_real_sliceword(rng, max_crossings=8) for _ in range(100)]
    words += [_represent_parked(random_tdiagram(rng, max_arrows=5)) for _ in range(100)]
    words += [braid_to_sliceword(random_braid_word(rng)) for _ in range(100)]
    words += [_random_word(rng) for _ in range(400)]
    counts = set()
    for word in words:
        report, trail, curves = brute_survey(word)
        assert _survey(word) == (report, trail), word
        counts.add(min(curves, 2))
    assert counts == {0, 1, 2}


# -- representation


def test_two_upward_passages_need_one_virtual_letter():
    t = parse_diagram("circle 2\narrows 0\nseq M+ M+\n")
    word = represent_tdiagram(t)
    assert word.bottom == (1, 1)
    assert word.slices == (VirtualCross(1),)


def test_bare_circle_representation_is_cap_cup():
    g = parse_diagram("circle 0\narrows 0\nseq\n")
    assert represent_tdiagram(find_refinement(g)) == BARE_CIRCLE


def test_representation_round_trips_the_marked_diagram():
    t = parse_diagram(MARKED_THREE)
    word = represent_tdiagram(t)
    assert validate_sliceword(word).ok
    assert canonical_serialize(extract_tdiagram(word)) == MARKED_THREE


def test_representation_round_trips_random_tdiagrams():
    rng = random.Random(31)
    for _ in range(200):
        t = random_tdiagram(rng, max_arrows=5)
        word = represent_tdiagram(t)
        assert validate_sliceword(word).ok
        assert canonical_serialize(extract_tdiagram(word)) == canonical_serialize(t)


@settings(max_examples=80, deadline=None)
@given(t_diagrams())
def test_representation_round_trips_property(t):
    word = represent_tdiagram(t)
    assert validate_sliceword(word).ok
    assert canonical_serialize(extract_tdiagram(word)) == canonical_serialize(t)


def test_represent_dgd_uses_the_reference_refinement():
    rng = random.Random(32)
    for _ in range(100):
        g = random_dgd(rng, max_arrows=5)
        word = represent_dgd(g)
        assert canonical_serialize(extract_tdiagram(word)) == canonical_serialize(
            find_refinement(g)
        )


def test_extraction_is_deterministic():
    rng = random.Random(33)
    for _ in range(40):
        t = random_tdiagram(rng, max_arrows=4)
        word = represent_tdiagram(t)
        assert extract_tdiagram(word) == extract_tdiagram(word)
        assert represent_tdiagram(t) == word


# -- frozen outputs

# sha256 of _reading_texts() as computed by the separate upward and downward
# walks and the union-find curve count that one two-way step replaced; any
# change to extraction, crossing records, validation reports, sections or
# rebuilt drawings shows here, and so does any change to the parked drawings
READING_SHA256 = "5cdc44c42f297d49497523d33d689e68b668b33516880ddcffb2de54f75e1bf7"


def _random_word(rng):
    """Any word at all, mostly invalid: out-of-range levels, open ends, bad cups."""
    slices = []
    for _ in range(rng.randint(0, 6)):
        kind, p = rng.randrange(4), rng.randint(1, 4)
        sign = rng.choice((1, -1))
        slices.append((RealCross(p, sign), VirtualCross(p), Cap(p, sign), Cup(p))[kind])
    return SliceWord(tuple(rng.choice((1, -1)) for _ in range(rng.randint(0, 3))), tuple(slices))


def _section_texts(word, t):
    kept, seq = find_section(word, t)
    return [canonical_serialize(kept), repr(seq)]


def _reading_texts() -> list[str]:
    rng = random.Random(20261019)
    drawings = [random_real_sliceword(rng, max_crossings=8) for _ in range(60)]
    words = list(drawings)
    words += [_represent_parked(random_tdiagram(rng, max_arrows=5)) for _ in range(60)]
    while len(words) < 160:
        try:
            word = braid_to_sliceword(random_braid_word(rng))
            extract_tdiagram(word)
        except InvalidDiagram:  # the closure is a link
            continue
        words.append(word)
    out = []
    for word in words:
        out.append(serialize_sliceword(word))
        out.append(canonical_serialize(extract_tdiagram(word)))
        out.append(repr(crossing_records(word)))
    checked = words + [random_closed_sliceword(rng) for _ in range(300)]
    checked += [_random_word(rng) for _ in range(300)]
    checked += [
        SliceWord((1, 1), ()),
        SliceWord((), ()),
        SliceWord((1, -1), (VirtualCross(1),)),
        SliceWord((1, 1), (Cup(1),)),
        SliceWord((1, -1), (RealCross(2, 1),)),
    ]
    for word in checked:
        report = validate_sliceword(word)
        out.append(serialize_sliceword(word) + json.dumps(report.to_json()))
        if not report.ok:
            with pytest.raises(InvalidDiagram) as exc:
                extract_tdiagram(word)
            out.append(str(exc.value))
    for word in drawings:
        t = extract_tdiagram(word)
        out += _section_texts(word, t)
        padded = list(t.markings)
        padded[-1] = padded[-1] + (-1, 1)
        out += _section_texts(word, TDiagram(t.base, tuple(padded)))
        try:
            redrawn = to_sliceword(reconstruct(t.base))
        except NotRealRealizable as e:
            out.append(e.reason)
            continue
        out.append(serialize_sliceword(redrawn))
        out += _section_texts(redrawn, extract_tdiagram(redrawn))
    return out


def test_readings_are_byte_identical_to_the_frozen_corpus():
    texts = _reading_texts()
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == READING_SHA256
