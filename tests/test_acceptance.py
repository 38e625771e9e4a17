"""End-to-end guarantees of the whole toolkit.

Exhaustive desk-scale sweeps against independent brute-force oracles, large
randomized round trips, and the stated runtime budgets.  Everything here is
seeded, so a failure replays deterministically.
"""
import itertools
import json
import random
import time
import tracemalloc

import pytest

from torogram import (
    ADMISSIBLE,
    NOT_WEAKLY,
    WEAKLY_ONLY,
    canonical_serialize,
    check_admissible,
    level_decomposition,
    validate,
)
from torogram.braid import (
    Letter,
    VirtualBraidWord,
    braid_to_sliceword,
    closure_permutation_of,
    represent_as_closed_braid,
    synthesize_braid,
)
from torogram.diagrams import Arrow, DecoratedGaussDiagram, TDiagram, Token, assemble_tdiagram
from torogram.errors import NoLevels, NotRealRealizable, NotWeaklyAdmissible
from torogram.rebuild import (
    annular_to_json,
    find_section,
    reconstruct,
    render_svg,
    to_sliceword,
    whitney_index,
)
from torogram.refine import (
    TypeIDelete,
    TypeIInsert,
    TypeIIPlus,
    apply_move,
    connect_refinements,
    find_refinement,
    kernel_basis,
    minimal_refinement,
    non_negative_refinement,
    positive_refinement,
)
from torogram.slices import (
    VirtualCross,
    extract_tdiagram,
    parse_sliceword,
    represent_tdiagram,
    validate_sliceword,
)

from gen import (
    random_braid_word,
    random_dgd,
    random_real_sliceword,
    random_tdiagram,
    refinement_like,
)
from oracles import (
    brute_admissibility_verdict,
    integer_kernel_oracle,
    row_hnf,
    turning_number,
    valuation_matrix,
)


def _gauss_words(n):
    """Arrow arrangements with the relabeling symmetry already cut.

    Position 0 is pinned to the head of arrow 1 and arrows first appear in
    id order; canonical dedup downstream removes what is left.
    """
    if n == 0:
        yield ()
        return
    rest = [Token("T", 1)]
    for k in range(2, n + 1):
        rest += [Token("H", k), Token("T", k)]
    for perm in itertools.permutations(rest):
        first = {}
        for i, tok in enumerate(perm):
            first.setdefault(tok.arrow, i)
        if list(first) == sorted(first):
            yield (Token("H", 1),) + perm


def _distributions(total, bins):
    if bins == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _distributions(total - head, bins - 1):
            yield (head,) + tail


def _span_valuations(tokens, counts, n):
    heads = {t.arrow: i for i, t in enumerate(tokens) if t.kind == "H"}
    tails = {t.arrow: i for i, t in enumerate(tokens) if t.kind == "T"}
    vals = []
    for k in range(1, n + 1):
        v, e = 0, heads[k]
        while e != tails[k]:
            v += counts[e]
            e = (e + 1) % (2 * n)
        vals.append(v)
    return vals


_EXHAUSTIVE_CACHE = {}


def _exhaustive_small_diagrams():
    """Every diagram with at most 3 arrows and decorations in [-2, 2].

    One pass feeds two tests, so the verdict comparison and the refinement
    biconditional are cached together.  The cycle oracle ignores crossing
    signs, so it is memoized on the sign-stripped canonical form.
    """
    if _EXHAUSTIVE_CACHE:
        return _EXHAUSTIVE_CACHE
    t0 = time.perf_counter()
    seen = set()
    oracle_memo = {}
    total = verdict_disagreements = refinement_failures = 0
    for n in range(4):
        sign_space = list(itertools.product((1, -1), repeat=n))
        val_space = list(itertools.product(range(-2, 3), repeat=n))
        for tokens in _gauss_words(n):
            for vals in val_space:
                for w in range(-2, 3):
                    plus = tuple(Arrow(k + 1, 1, vals[k]) for k in range(n))
                    stripped = DecoratedGaussDiagram(tokens, plus, w)
                    skey = canonical_serialize(stripped)
                    for signs in sign_space:
                        arrows = tuple(
                            Arrow(k + 1, signs[k], vals[k]) for k in range(n)
                        )
                        g = DecoratedGaussDiagram(tokens, arrows, w)
                        key = canonical_serialize(g)
                        if key in seen:
                            continue
                        seen.add(key)
                        total += 1
                        if skey not in oracle_memo:
                            oracle_memo[skey] = brute_admissibility_verdict(stripped)
                        want = oracle_memo[skey]
                        if check_admissible(g).verdict != want:
                            verdict_disagreements += 1
                        try:
                            t = non_negative_refinement(g)
                            ok = (
                                want in (ADMISSIBLE, WEAKLY_ONLY)
                                and validate(t).ok
                                and all(s == 1 for e in t.markings for s in e)
                            )
                        except NotWeaklyAdmissible:
                            ok = want == NOT_WEAKLY
                        if not ok:
                            refinement_failures += 1
    _EXHAUSTIVE_CACHE.update(
        total=total,
        verdict_disagreements=verdict_disagreements,
        refinement_failures=refinement_failures,
        elapsed=time.perf_counter() - t0,
    )
    return _EXHAUSTIVE_CACHE


def test_verdicts_match_exhaustive_cycle_enumeration():
    results = _exhaustive_small_diagrams()
    assert results["total"] > 40000
    assert results["verdict_disagreements"] == 0
    assert results["elapsed"] < 300


def test_nonnegative_refinement_exists_exactly_when_weakly_admissible():
    results = _exhaustive_small_diagrams()
    assert results["refinement_failures"] == 0


def test_levels_exist_exactly_for_admissible_positive_refinements():
    seen = set()
    total = agree = leveled = 0
    for n in range(4):
        sign_space = list(itertools.product((1, -1), repeat=n))
        for tokens in _gauss_words(n):
            edges = 2 * n if n else 1
            for m in range(1, 5):
                for counts in _distributions(m, edges):
                    vals = _span_valuations(tokens, counts, n)
                    markings = [[1] * c for c in counts]
                    for signs in sign_space:
                        arrows = tuple(
                            Arrow(k + 1, signs[k], vals[k]) for k in range(n)
                        )
                        t = assemble_tdiagram(tokens, arrows, m, markings)
                        key = canonical_serialize(t)
                        if key in seen:
                            continue
                        seen.add(key)
                        total += 1
                        try:
                            level_decomposition(t)
                            has_levels = True
                            leveled += 1
                        except NoLevels:
                            has_levels = False
                        admissible = check_admissible(t.base).verdict == ADMISSIBLE
                        agree += has_levels == admissible
    assert total > 15000
    assert leveled > 500  # both sides of the biconditional are exercised
    assert agree == total


def test_braid_synthesis_round_trips_a_thousand_leveled_refinements():
    rng = random.Random(404)
    t0 = time.perf_counter()
    done = 0
    while done < 1000:
        word = random_braid_word(rng)
        t = extract_tdiagram(braid_to_sliceword(word))
        if t.base.n > 8 or t.marking_count > 6:
            continue
        again = extract_tdiagram(braid_to_sliceword(synthesize_braid(t)))
        assert canonical_serialize(again) == canonical_serialize(t)
        done += 1
    assert time.perf_counter() - t0 < 60


def _sibling_refinement(rng, t):
    """An independent refinement of t's base: same nets, fresh counts and order."""
    g = t.base
    counts = [sum(e) for e in t.markings]
    for v in kernel_basis(g):
        c = rng.randint(-2, 2)
        counts = [x + c * y for x, y in zip(counts, v)]
    lists = [[1] * c if c >= 0 else [-1] * -c for c in counts]
    for _ in range(rng.randint(0, 3)):
        e = rng.randrange(len(lists))
        i = rng.randint(0, len(lists[e]))
        lists[e][i:i] = [1, -1]
    for e in lists:
        rng.shuffle(e)
    return TDiagram(g, tuple(tuple(e) for e in lists))


def test_move_plans_replay_between_independent_refinements():
    rng = random.Random(77)
    for case in range(500):
        t1 = random_tdiagram(rng, max_arrows=6)
        t2 = _sibling_refinement(rng, t1)
        assert validate(t2).ok, case
        cur = t1
        for move in connect_refinements(t1, t2):
            assert isinstance(move, (TypeIInsert, TypeIDelete, TypeIIPlus)), case
            cur = apply_move(cur, move)
        assert cur.markings == t2.markings, case


def test_kernel_basis_spans_the_integer_kernel():
    rng = random.Random(55)
    cases = [random_dgd(rng, n=n) for n in range(1, 9)]
    cases += [random_dgd(rng, n=rng.randint(1, 8)) for _ in range(150)]
    for g in cases:
        basis = kernel_basis(g)
        assert len(basis) == g.n - 1
        rows = valuation_matrix(g)
        for vec in basis:
            assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows)
        dim = 2 * g.n
        assert row_hnf(basis, dim) == row_hnf(integer_kernel_oracle(g), dim)


@pytest.fixture(scope="module")
def drawing_corpus():
    rng = random.Random(2026)
    return [random_real_sliceword(rng) for _ in range(500)]


def test_rebuild_round_trips_five_hundred_real_drawings(drawing_corpus):
    for case, word in enumerate(drawing_corpus):
        g = extract_tdiagram(word).base
        first = reconstruct(g)
        second = reconstruct(g)
        redrawn = extract_tdiagram(to_sliceword(first)).base
        assert canonical_serialize(redrawn) == canonical_serialize(g), case
        assert json.dumps(annular_to_json(first)) == json.dumps(annular_to_json(second))
        assert render_svg(first) == render_svg(second)


def test_whitney_index_agrees_with_the_turning_oracle(drawing_corpus):
    for case, word in enumerate(drawing_corpus):
        g = extract_tdiagram(word).base
        wi = whitney_index(g)
        assert isinstance(wi, int)
        assert wi == turning_number(word), case


def test_two_strand_triple_twist_end_to_end():
    sigma_cubed = VirtualBraidWord(2, (Letter("s", 1),) * 3)
    g = extract_tdiagram(braid_to_sliceword(sigma_cubed)).base
    assert check_admissible(g).verdict == ADMISSIBLE
    levels = level_decomposition(positive_refinement(g))
    assert sorted(levels.values()) == [1, 2, 3]
    assert represent_as_closed_braid(g) == sigma_cubed


def _knotted_braid(rng, strands, letters):
    """A positive braid word whose closure is a knot; ``letters`` must be
    congruent to ``strands - 1`` mod 2, or every sample closes to a link."""
    while True:
        drawn = tuple(Letter("s", rng.randint(1, strands - 1)) for _ in range(letters))
        exits = closure_permutation_of(strands, drawn)
        seen, at = 1, exits[0]
        while at != 0:
            at = exits[at]
            seen += 1
        if seen == strands:
            return VirtualBraidWord(strands, drawn)


def test_admissibility_scales_to_five_hundred_arrows():
    rng = random.Random(2026)
    wild = random_dgd(rng, n=500, val_range=3)
    t0 = time.perf_counter()
    report = check_admissible(wild)
    assert time.perf_counter() - t0 < 2.0
    assert report.verdict in (ADMISSIBLE, WEAKLY_ONLY, NOT_WEAKLY)

    # a braid-derived instance is admissible, so no early exit can help
    tame = extract_tdiagram(braid_to_sliceword(_knotted_braid(rng, 3, 500))).base
    assert tame.n == 500
    t0 = time.perf_counter()
    report = check_admissible(tame)
    assert time.perf_counter() - t0 < 2.0
    assert report.verdict == ADMISSIBLE


def test_minimal_refinement_scales_to_forty_arrows():
    # the exhaustive search this replaced took minutes already at twelve
    g = random_dgd(random.Random(40), n=40)
    t0 = time.perf_counter()
    t = minimal_refinement(g)
    assert time.perf_counter() - t0 < 2.0
    assert validate(t).ok
    assert t.marking_count <= find_refinement(g).marking_count


def test_section_of_a_ten_strand_closure_is_found_fast():
    # plain iterative deepening did not finish in a minute at eight strands
    rng = random.Random(10)
    word = braid_to_sliceword(_knotted_braid(rng, 10, 101))
    t = extract_tdiagram(word)
    t0 = time.perf_counter()
    kept, crossings = find_section(word, t)
    assert time.perf_counter() - t0 < 1.0
    assert canonical_serialize(kept) == canonical_serialize(t)
    assert len(crossings) == t.marking_count == 10


def test_section_under_two_signed_markings_is_found_fast():
    # a search that embedded whole region paths into the markings took
    # 2.6-3.3 s here, and more than 8 s at several nearby seeds
    rng = random.Random(8)
    word = braid_to_sliceword(_knotted_braid(rng, 8, 53))
    marks = refinement_like(extract_tdiagram(word), rng)
    t0 = time.perf_counter()
    kept, seq = find_section(word, marks)
    assert time.perf_counter() - t0 < 0.1
    assert seq == ((78, 0, 1), (51, 0, 1), (98, 0, 1), (35, 0, 1), (62, 0, 1), (25, 0, 1), (6, 0, 1), (15, 0, 1))


def test_braid_closures_read_in_linear_time():
    # the full key of every rotation took seconds on the periodic closure
    rng = random.Random(2000)
    for word in (_knotted_braid(rng, 3, 2000), VirtualBraidWord(2, (Letter("s", 1),) * 2001)):
        drawing = braid_to_sliceword(word)
        t0 = time.perf_counter()
        t = extract_tdiagram(drawing)
        levels = level_decomposition(positive_refinement(t.base))
        assert time.perf_counter() - t0 < 1.0
        assert len(levels) == t.base.n == len(word.letters)


def test_represent_draws_an_800_crossing_closure_as_its_braid():
    # parked strands drew this refinement in 6027 slices, 3627 of them
    # virtual, where its braid has 816 letters, 16 of them virtual
    rng = random.Random(800)
    drawing = braid_to_sliceword(_knotted_braid(rng, 5, 800))
    t = positive_refinement(extract_tdiagram(drawing).base)
    t0 = time.perf_counter()
    word = represent_tdiagram(t)
    assert time.perf_counter() - t0 < 0.5
    letters = synthesize_braid(t).letters
    assert len(word.slices) == len(letters)
    virtual = sum(isinstance(s, VirtualCross) for s in word.slices)
    assert virtual == sum(letter.kind == "v" for letter in letters)


def test_a_bare_circle_of_five_thousand_marks_serializes_fast():
    # every rotation of the marks, listed to take their least, took about 0.7 s
    t = TDiagram(DecoratedGaussDiagram((), (), 0), ((1, -1) * 2500,))
    t0 = time.perf_counter()
    text = canonical_serialize(t)
    assert time.perf_counter() - t0 < 0.1
    assert text.split("\n")[2] == "seq " + " ".join(["M-", "M+"] * 2500)


def test_an_800_crossing_closure_refines_minimally_and_rebuilds_fast():
    # cancelling cycles from the zero flow took 0.65-0.93 s for each
    rng = random.Random(800)
    g = extract_tdiagram(braid_to_sliceword(_knotted_braid(rng, 5, 800))).base
    t0 = time.perf_counter()
    t = minimal_refinement(g)
    assert time.perf_counter() - t0 < 0.1
    assert canonical_serialize(t) == canonical_serialize(non_negative_refinement(g))
    t0 = time.perf_counter()
    drawn = reconstruct(g)
    assert time.perf_counter() - t0 < 0.25
    assert drawn.refinement == t


def test_a_curve_off_the_annulus_is_refused_before_any_refinement():
    # the face count was read after minimal_refinement: 1.7-2.7 s here
    g = random_dgd(random.Random(400), 400, val_range=3)
    t0 = time.perf_counter()
    with pytest.raises(NotRealRealizable, match="^the glued surface is not an annulus$"):
        reconstruct(g)
    assert time.perf_counter() - t0 < 0.1


def test_a_word_of_many_curves_validates_in_bounded_memory():
    # every curve's trail was kept, so memory grew with the square of the
    # word: 18 MB here, and 4.3 GB for 3000 caps and cups
    word = parse_sliceword("bottom\n" + "cap 1 +\n" * 200 + "cup 1\n" * 200)
    tracemalloc.start()
    try:
        report = validate_sliceword(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.problems == ("200 closed curves, need exactly one",)
    assert peak < 4 * 2**20
