"""Values derived from an immutable object are computed once and stored on it.

A stored value must not change what the library answers: a stored failure
raises again with the same type, message and certificate, a stored dict is
handed out as a copy, and ``==``, ``hash`` and ``repr`` ignore what is
stored.  The work saved is counted, not timed.
"""
import pytest

import torogram.admit as admit
import torogram.rebuild as rebuild
from torogram import (
    canonical_serialize,
    check_admissible,
    level_decomposition,
    parse_braid,
    parse_diagram,
    parse_sliceword,
    positive_refinement,
    reconstruct,
    represent_tdiagram,
    serialize_sliceword,
    synthesize_braid,
    transition_graph,
    whitney_index,
)
from torogram.braid import braid_to_sliceword
from torogram.diagrams import DecoratedGaussDiagram, TDiagram
from torogram.errors import NoLevels, NotAdmissible, NotFull, NotPositive, NotRealRealizable
from torogram.rebuild import find_section
from torogram.slices import crossing_records, extract_tdiagram

NOT_FULL = "circle 0\narrows 1\nseq H1 T1\narrow 1 sign + val 0\n"
NOT_FLAT = "circle 1\narrows 2\nseq H1 H2 T1 T2\narrow 1 sign + val 1\narrow 2 sign + val 1\n"
NO_LEVELS = "circle 1\narrows 1\nseq H1 T1 M+\narrow 1 sign + val 0\n"
NEGATIVE = "circle -1\narrows 1\nseq H1 T1 M-\narrow 1 sign + val 0\n"
TREFOIL_BRAID = "strands 2\ns 1\ns 1\ns 1\n"


def _raised(call, obj) -> Exception:
    with pytest.raises(Exception) as info:
        call(obj)
    return info.value


def _same_failure(got: Exception, want: Exception) -> None:
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert vars(got) == vars(want)  # the certificate: reason, loop, class


@pytest.mark.parametrize("text, kind", [(NOT_FULL, NotFull), (NOT_FLAT, NotRealRealizable)])
def test_a_stored_rebuild_failure_raises_again_in_either_order(text, kind):
    for first, second in ((reconstruct, whitney_index), (whitney_index, reconstruct)):
        g = parse_diagram(text)
        want = _raised(first, g)
        assert type(want) is kind
        for call in (second, first, second):
            _same_failure(_raised(call, g), want)
    # the stored failure is the one a fresh diagram raises
    _same_failure(_raised(reconstruct, parse_diagram(text)), want)


@pytest.mark.parametrize("text, kind", [(NO_LEVELS, NoLevels), (NEGATIVE, NotPositive)])
def test_a_stored_level_failure_raises_again(text, kind):
    t = parse_diagram(text)
    want = _raised(level_decomposition, t)
    assert type(want) is kind
    for call in (level_decomposition, synthesize_braid, level_decomposition):
        _same_failure(_raised(call, t), want)
    if kind is NoLevels:
        assert want.certificate is not None


def test_positive_refinement_raises_the_certificate_check_admissible_stored():
    g = parse_diagram(NOT_FLAT)
    report = check_admissible(g)
    assert report.verdict != "admissible"
    first = _raised(positive_refinement, g)
    assert type(first) is NotAdmissible
    assert (first.certificate, first.homology) == (report.certificate, report.homology)
    _same_failure(_raised(positive_refinement, g), first)
    assert check_admissible(g) == report


def test_a_returned_levels_dict_is_a_copy():
    t = extract_tdiagram(braid_to_sliceword(parse_braid(TREFOIL_BRAID)))
    levels = level_decomposition(t)
    want = dict(levels)
    levels.clear()
    levels[99] = 1
    assert level_decomposition(t) == want
    assert braid_to_sliceword(synthesize_braid(t)) == represent_tdiagram(t)


def test_stored_values_stay_out_of_eq_hash_and_repr():
    word_text = serialize_sliceword(braid_to_sliceword(parse_braid(TREFOIL_BRAID)))
    word, fresh_word = parse_sliceword(word_text), parse_sliceword(word_text)
    t = extract_tdiagram(word)
    g = t.base
    fresh_g = DecoratedGaussDiagram(g.tokens, g.arrows, g.circle_valuation)
    fresh_t = TDiagram(fresh_g, t.markings)
    # fill every stored value of word, t and g
    crossing_records(word)
    find_section(word, t)
    level_decomposition(t)
    synthesize_braid(t)
    check_admissible(g)
    positive_refinement(g)
    transition_graph(g)
    reconstruct(g)
    whitney_index(g)
    canonical_serialize(g)
    canonical_serialize(t)
    for filled, fresh in ((word, fresh_word), (t, fresh_t), (g, fresh_g)):
        assert filled == fresh and fresh == filled
        assert hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
    # stored failures too
    bad, fresh_bad = parse_diagram(NOT_FLAT), parse_diagram(NOT_FLAT)
    _raised(reconstruct, bad)
    check_admissible(bad)
    assert bad == fresh_bad and hash(bad) == hash(fresh_bad) and repr(bad) == repr(fresh_bad)


def _counting(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_reconstruct_then_whitney_index_runs_one_minimal_refinement(monkeypatch):
    calls = _counting(monkeypatch, rebuild, "minimal_refinement")
    g = extract_tdiagram(braid_to_sliceword(parse_braid(TREFOIL_BRAID))).base
    a = reconstruct(g)
    assert whitney_index(g) == 0  # a closed braid: no cap, no cup
    assert reconstruct(g) is a
    assert len(calls) == 1


def test_levels_braid_and_drawing_of_one_tdiagram_peel_once(monkeypatch):
    calls = _counting(monkeypatch, admit, "_peel")
    t = extract_tdiagram(braid_to_sliceword(parse_braid("strands 3\ns 1\ns 2\ns 1\ns 2\n")))
    levels = level_decomposition(t)
    word = synthesize_braid(t)
    assert represent_tdiagram(t) == braid_to_sliceword(word)
    assert level_decomposition(t) == levels
    assert len(calls) == 1


def test_check_admissible_then_positive_refinement_searches_cycles_once(monkeypatch):
    calls = _counting(monkeypatch, admit, "_pessimal_cycle")
    g = extract_tdiagram(braid_to_sliceword(parse_braid(TREFOIL_BRAID))).base
    assert check_admissible(g).verdict == "admissible"
    p = positive_refinement(g)
    assert p.is_positive
    assert len(calls) == 1
