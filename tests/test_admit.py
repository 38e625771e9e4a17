import random

import pytest
from hypothesis import given, settings

from torogram import (
    ArrowJump,
    CircleForward,
    NoLevels,
    NotPositive,
    check_loop,
    is_reduced,
    loop_homology,
    parse_diagram,
)
from torogram.admit import (
    ADMISSIBLE,
    NOT_WEAKLY,
    WEAKLY_ONLY,
    AdmissibilityReport,
    _walk_to_loop,
    _zero_cycle,
    check_admissible,
    level_decomposition,
    transition_graph,
)

from torogram.braid import braid_to_sliceword
from torogram.diagrams import Arrow, DecoratedGaussDiagram
from torogram.refine import find_refinement
from torogram.slices import extract_tdiagram

from gen import dgd_diagrams, periodic_tdiagram, random_braid_word, random_dgd, random_tdiagram
from oracles import brute_level_decomposition, brute_zero_cycle

MARKED_THREE = """\
circle 2
arrows 3
seq M+ H1 T2 H3 M+ T1 H2 T3
arrow 1 sign + val 1
arrow 2 sign + val 1
arrow 3 sign + val 1
"""


def dgd(text):
    parsed = parse_diagram(text)
    return getattr(parsed, "base", parsed)


def assert_certified(g, report, verdict, homology):
    assert report.verdict == verdict
    assert report.homology == homology
    check_loop(g, report.certificate)
    assert is_reduced(g, report.certificate)
    assert loop_homology(g, report.certificate) == homology


def test_three_arrow_example_is_admissible():
    g = dgd(MARKED_THREE)
    report = check_admissible(g)
    assert report == AdmissibilityReport(ADMISSIBLE, None, None)
    assert report.to_json() == {"verdict": "admissible"}


def test_zero_valuation_blocks_admissibility():
    g = dgd("circle 1\narrows 1\nseq H1 T1\narrow 1 sign + val 0\n")
    report = check_admissible(g)
    assert_certified(g, report, WEAKLY_ONLY, 0)
    # the certificate is the offending arrow's own loop
    assert report.certificate == g.distinguished_loop(1)


def test_negative_valuation_blocks_weak_admissibility():
    g = dgd("circle 1\narrows 2\nseq H1 T1 H2 T2\narrow 1 sign + val 2\narrow 2 sign - val -1\n")
    report = check_admissible(g)
    assert_certified(g, report, NOT_WEAKLY, -1)
    assert report.certificate == g.distinguished_loop(2)
    data = report.to_json()
    assert data["verdict"] == "not_weakly"
    assert data["class"] == -1
    assert data["loop"][-1]["step"] == "arrow"


def test_negative_circle_valuation_certified_by_circle_loop():
    g = dgd("circle -1\narrows 1\nseq H1 T1\narrow 1 sign + val 1\n")
    report = check_admissible(g)
    assert_certified(g, report, NOT_WEAKLY, -1)
    assert report.certificate == g.circle_loop()


def test_bare_circle_verdicts():
    assert check_admissible(dgd("circle 1\narrows 0\nseq\n")).verdict == ADMISSIBLE
    assert_certified(
        dgd("circle 0\narrows 0\nseq\n"),
        check_admissible(dgd("circle 0\narrows 0\nseq\n")),
        WEAKLY_ONLY,
        0,
    )
    assert check_admissible(dgd("circle -2\narrows 0\nseq\n")).verdict == NOT_WEAKLY


def test_composite_zero_loop_found_behind_positive_valuations():
    # both valuations and the circle valuation are positive, yet a loop
    # mixing two arrows has class 0
    g = dgd("circle 1\narrows 2\nseq H1 H2 T1 T2\narrow 1 sign + val 1\narrow 2 sign + val 1\n")
    report = check_admissible(g)
    assert_certified(g, report, WEAKLY_ONLY, 0)
    assert any(isinstance(s, ArrowJump) for s in report.certificate.steps)


def test_composite_negative_loop_found_behind_positive_valuations():
    g = dgd(
        "circle 5\narrows 3\nseq H1 T2 H3 T1 H2 T3\n"
        "arrow 1 sign + val 1\narrow 2 sign + val 1\narrow 3 sign + val 1\n"
    )
    report = check_admissible(g)
    assert report.verdict == NOT_WEAKLY
    assert report.homology < 0
    assert_certified(g, report, NOT_WEAKLY, report.homology)
    assert any(isinstance(s, ArrowJump) for s in report.certificate.steps)


def test_transition_graph_tracks_tokens_and_counts():
    g = dgd(MARKED_THREE)
    tg = transition_graph(g)
    assert tg.vertex_count == 3
    assert len(tg.edges) == 6
    assert [e[2] for e in tg.edges] == list(g.reference_counts)
    for r, (u, v, _, ce) in enumerate(tg.edges):
        assert ce == r
        assert u == g.tokens[r].arrow
        assert v == g.tokens[(r + 1) % 6].arrow


def test_verdicts_match_exhaustive_cycle_search():
    from oracles import brute_admissibility_verdict

    rng = random.Random(4242)
    for _ in range(300):
        g = random_dgd(rng, max_arrows=4, val_range=2)
        report = check_admissible(g)
        assert report.verdict == brute_admissibility_verdict(g), g
        if report.certificate is not None:
            assert_certified(g, report, report.verdict, report.homology)
            assert report.homology < 0 if report.verdict == NOT_WEAKLY else report.homology == 0


def test_zero_cycles_as_tight_cycles_match_the_bellman_ford_rule():
    # only diagrams with every valuation positive reach the composite search
    rng = random.Random(2718)
    zero = clean = 0
    for _ in range(2000):
        g = random_dgd(rng, n=rng.randint(1, 7))
        arrows = tuple(Arrow(a.id, a.sign, rng.randint(1, 3)) for a in g.arrows)
        g = DecoratedGaussDiagram(g.tokens, arrows, rng.randint(2, 6))
        report = check_admissible(g)
        if report.verdict == NOT_WEAKLY:
            continue
        if brute_zero_cycle(g):
            zero += 1
            assert report.verdict == WEAKLY_ONLY
            assert report.certificate == _walk_to_loop(g, _zero_cycle(transition_graph(g)))
        else:
            clean += 1
            assert report == AdmissibilityReport(ADMISSIBLE, None, None)
    assert zero > 200 and clean > 200


@settings(max_examples=120)
@given(dgd_diagrams(max_arrows=5))
def test_admissible_requires_positive_valuations_everywhere(g):
    report = check_admissible(g)
    if report.verdict == ADMISSIBLE:
        assert g.circle_valuation >= 1
        assert all(a.valuation >= 1 for a in g.arrows)
        assert report.certificate is None
    else:
        assert report.certificate is not None


def test_levels_of_the_three_arrow_example():
    t = parse_diagram(MARKED_THREE)
    assert level_decomposition(t) == {1: 1, 2: 2, 3: 3}


def test_levels_empty_for_bare_circle():
    t = parse_diagram("circle 1\narrows 0\nseq M+\n")
    assert level_decomposition(t) == {}


def test_stuck_level_peeling_yields_markless_zero_loop():
    t = parse_diagram("circle 1\narrows 1\nseq H1 T1 M+\narrow 1 sign + val 0\n")
    with pytest.raises(NoLevels) as exc:
        level_decomposition(t)
    loop = exc.value.certificate
    assert loop.steps == (CircleForward(0), ArrowJump(1, "head"))
    g = t.base
    check_loop(g, loop)
    assert is_reduced(g, loop)
    assert loop_homology(g, loop) == 0
    crossed = [s.edge for s in loop.steps if isinstance(s, CircleForward)]
    assert all(not t.markings[e] for e in crossed)


def test_levels_demand_positive_markings_by_default():
    t = parse_diagram("circle -1\narrows 1\nseq H1 T1 M-\narrow 1 sign + val 0\n")
    with pytest.raises(NotPositive):
        level_decomposition(t)
    # sign-blind mode treats any marking as a separator
    with pytest.raises(NoLevels):
        level_decomposition(t, require_positive=False)
    both = parse_diagram("circle -2\narrows 1\nseq M- H1 M- T1\narrow 1 sign + val -1\n")
    assert level_decomposition(both, require_positive=False) == {1: 1}


def test_stuck_certificate_on_random_positive_diagrams():
    rng = random.Random(77)
    stuck = leveled = 0
    for _ in range(250):
        t = random_tdiagram(rng, max_arrows=4, positive=True)
        try:
            levels = level_decomposition(t)
        except NoLevels as exc:
            stuck += 1
            loop = exc.certificate
            g = t.base
            check_loop(g, loop)
            assert is_reduced(g, loop)
            assert loop_homology(g, loop) == 0
            crossed = [s.edge for s in loop.steps if isinstance(s, CircleForward)]
            assert all(not t.markings[e] for e in crossed)
        else:
            leveled += 1
            assert set(levels) == set(t.base.arrow_map)
            if t.base.n:
                assert min(levels.values()) == 1
                assert max(levels.values()) <= t.base.n
    # both branches genuinely exercised
    assert stuck > 20 and leveled > 20


def test_levels_exist_exactly_when_admissible_for_positive_markings():
    rng = random.Random(123)
    for _ in range(200):
        t = random_tdiagram(rng, max_arrows=3, positive=True)
        verdict = check_admissible(t.base).verdict
        try:
            level_decomposition(t)
        except NoLevels:
            assert verdict != ADMISSIBLE
        else:
            assert verdict == ADMISSIBLE


def _peel(level_fn, t):
    """The levels in insertion order, or the certificate of a stuck peel."""
    try:
        return list(level_fn(t).items())
    except NoLevels as exc:
        return exc.certificate


def test_level_peel_matches_the_round_by_round_reference():
    rng = random.Random(4242)
    cases = [random_tdiagram(rng, max_arrows=8, positive=True) for _ in range(2000)]
    cases += [periodic_tdiagram(rng, periodic=i % 2 == 0, positive=True) for i in range(2000)]
    # braid closures peel in many rounds
    while len(cases) < 4300:
        t = extract_tdiagram(braid_to_sliceword(random_braid_word(rng, max_real=30, max_virtual=4)))
        if t.is_positive:
            cases.append(t)
    stuck = deep = 0
    for t in cases:
        want = _peel(brute_level_decomposition, t)
        assert _peel(level_decomposition, t) == want
        stuck += not isinstance(want, list)
        deep += isinstance(want, list) and len(want) > 0 and max(v for _, v in want) > 3
    # stuck peels compare certificates; both outcomes are exercised
    assert stuck > 500 and deep > 200
    # with no markings at all nothing anchors: the circle is the stuck loop
    bare = find_refinement(dgd("circle 0\narrows 1\nseq H1 T1\narrow 1 sign + val 0\n"))
    assert bare.marking_count == 0
    sign_blind = lambda t: level_decomposition(t, require_positive=False)  # noqa: E731
    assert _peel(sign_blind, bare) == _peel(brute_level_decomposition, bare) == bare.base.circle_loop()
