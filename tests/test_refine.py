import hashlib
import random

import pytest
from hypothesis import given, settings

from torogram import (
    Arrow,
    DecoratedGaussDiagram,
    InvalidDiagram,
    NotAdmissible,
    NotWeaklyAdmissible,
    TDiagram,
    Token,
    canonical_serialize,
    loop_homology,
    parse_diagram,
    validate,
)
from torogram import refine
from torogram.admit import ADMISSIBLE, NOT_WEAKLY, check_admissible
from torogram.braid import Letter, VirtualBraidWord, braid_to_sliceword
from torogram.refine import (
    TypeIDelete,
    TypeIInsert,
    TypeIIMinus,
    TypeIIPlus,
    apply_move,
    connect_refinements,
    find_refinement,
    kernel_basis,
    minimal_refinement,
    move_from_json,
    move_to_json,
    non_negative_refinement,
    positive_refinement,
)
from torogram.slices import SliceWord, extract_tdiagram

from gen import random_dgd, random_tdiagram, scrambled_copy, scrambled_tdiagram, t_diagrams
from oracles import (
    brute_minimal_counts,
    brute_nonnegative_counts,
    integer_kernel_oracle,
    row_hnf,
    valuation_matrix,
)

MARKED_THREE = """\
circle 2
arrows 3
seq M+ H1 T2 H3 M+ T1 H2 T3
arrow 1 sign + val 1
arrow 2 sign + val 1
arrow 3 sign + val 1
"""

WEAKLY_ONLY = DecoratedGaussDiagram(
    (Token("H", 1), Token("H", 2), Token("T", 1), Token("T", 2)),
    (Arrow(1, 1, 1), Arrow(2, 1, 1)),
    1,
)

NOT_WEAKLY_WORD = DecoratedGaussDiagram(
    (Token("H", 1), Token("T", 2), Token("H", 3), Token("T", 1), Token("H", 2), Token("T", 3)),
    (Arrow(1, 1, 1), Arrow(2, 1, 1), Arrow(3, 1, 1)),
    5,
)


def _counts(t: TDiagram) -> tuple[int, ...]:
    return t.net_counts()


# -- find_refinement and the kernel lattice


def test_find_refinement_validates():
    rng = random.Random(11)
    for _ in range(200):
        g = random_dgd(rng, max_arrows=6)
        t = find_refinement(g)
        assert t.base is g
        assert validate(t).ok


def test_kernel_vectors_satisfy_all_valuation_rows():
    rng = random.Random(12)
    for _ in range(150):
        g = random_dgd(rng, max_arrows=7)
        rows = valuation_matrix(g)
        for vec in kernel_basis(g):
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_kernel_basis_spans_the_oracle_lattice():
    rng = random.Random(13)
    for _ in range(120):
        g = random_dgd(rng, max_arrows=8)
        dim = 2 * g.n if g.n else 1
        ours = row_hnf(kernel_basis(g), dim)
        oracle = row_hnf(integer_kernel_oracle(g), dim)
        assert ours == oracle


def test_kernel_basis_size():
    rng = random.Random(14)
    for _ in range(60):
        g = random_dgd(rng, max_arrows=6)
        assert len(kernel_basis(g)) == max(0, g.n - 1)


# -- moves


def _two_arrow_tdiagram() -> TDiagram:
    g = DecoratedGaussDiagram(
        (Token("H", 1), Token("T", 1), Token("H", 2), Token("T", 2)),
        (Arrow(1, 1, 1), Arrow(2, -1, 1)),
        2,
    )
    return find_refinement(g)


def test_bump_up_then_down_then_cleanup_is_identity():
    t = _two_arrow_tdiagram()
    u = apply_move(apply_move(t, TypeIIPlus(2)), TypeIIMinus(2))
    h, tl = t.base.positions[2]
    m = 2 * t.base.n
    for edge in (h, tl):
        u = apply_move(u, TypeIDelete(edge, 0))
    for edge in ((h - 1) % m, (tl - 1) % m):
        u = apply_move(u, TypeIDelete(edge, len(u.markings[edge]) - 2))
    assert u == t


def test_insert_then_delete_is_identity():
    t = _two_arrow_tdiagram()
    for edge in range(4):
        for sign in (1, -1):
            u = apply_move(t, TypeIInsert(edge, 0, sign))
            assert apply_move(u, TypeIDelete(edge, 0)) == t


def test_moves_preserve_validity():
    rng = random.Random(15)
    for _ in range(150):
        t = random_tdiagram(rng, max_arrows=4)
        move = _random_move(rng, t)
        if move is None:
            continue
        u = apply_move(t, move)
        assert validate(u).ok == validate(t).ok


def _random_move(rng, t):
    kinds = ["insert", "bump_up", "bump_down", "delete"]
    rng.shuffle(kinds)
    m = len(t.markings)
    for kind in kinds:
        if kind == "insert":
            e = rng.randrange(m)
            return TypeIInsert(e, rng.randint(0, len(t.markings[e])), rng.choice((1, -1)))
        if kind in ("bump_up", "bump_down") and t.base.n:
            k = rng.choice(t.base.arrows).id
            return TypeIIPlus(k) if kind == "bump_up" else TypeIIMinus(k)
        if kind == "delete":
            spots = [
                (e, p)
                for e, row in enumerate(t.markings)
                for p in range(len(row) - 1)
                if row[p] == -row[p + 1]
            ]
            if spots:
                return TypeIDelete(*rng.choice(spots))
    return None


def test_move_rejections():
    t = _two_arrow_tdiagram()
    with pytest.raises(InvalidDiagram):
        apply_move(t, TypeIInsert(9, 0, 1))
    with pytest.raises(InvalidDiagram):
        apply_move(t, TypeIInsert(0, 5, 1))
    with pytest.raises(InvalidDiagram):
        apply_move(t, TypeIInsert(0, 0, 2))
    with pytest.raises(InvalidDiagram):
        apply_move(t, TypeIDelete(0, 0))  # nothing to cancel there
    with pytest.raises(InvalidDiagram):
        apply_move(t, TypeIIPlus(7))


def test_move_json_round_trip():
    moves = [TypeIInsert(3, 0, -1), TypeIDelete(1, 2), TypeIIPlus(2), TypeIIMinus(5)]
    for move in moves:
        assert move_from_json(move_to_json(move)) == move
    with pytest.raises(InvalidDiagram):
        move_from_json({"op": "III"})


# -- connecting refinements


def _mutate(rng, t: TDiagram, steps: int) -> TDiagram:
    for _ in range(steps):
        move = _random_move(rng, t)
        if move is not None:
            t = apply_move(t, move)
    return t


def test_connect_identical_is_empty():
    t = _two_arrow_tdiagram()
    assert connect_refinements(t, t) == []


def test_connect_replays_to_target():
    rng = random.Random(16)
    for _ in range(120):
        t1 = random_tdiagram(rng, max_arrows=6)
        t2 = _mutate(rng, t1, rng.randint(1, 12))
        moves = connect_refinements(t1, t2)
        cur = t1
        for move in moves:
            assert isinstance(move, (TypeIInsert, TypeIDelete, TypeIIPlus))
            cur = apply_move(cur, move)
        assert cur.markings == t2.markings
        assert canonical_serialize(cur) == canonical_serialize(t2)


def test_connect_accepts_relabeled_partner():
    rng = random.Random(17)
    for _ in range(60):
        t1 = random_tdiagram(rng, max_arrows=5)
        if t1.base.n == 0:
            continue
        t2 = scrambled_tdiagram(_mutate(rng, t1, rng.randint(1, 8)), rng)
        cur = t1
        for move in connect_refinements(t1, t2):
            cur = apply_move(cur, move)
        assert canonical_serialize(cur) == canonical_serialize(t2)


def test_connect_rejects_different_bases():
    rng = random.Random(18)
    t1 = random_tdiagram(rng, max_arrows=3)
    t2 = random_tdiagram(rng, max_arrows=3)
    while canonical_serialize(t2.base) == canonical_serialize(t1.base):
        t2 = random_tdiagram(rng, max_arrows=3)
    with pytest.raises(InvalidDiagram):
        connect_refinements(t1, t2)


@settings(max_examples=60, deadline=None)
@given(t_diagrams())
def test_connect_from_reference_hits_any_refinement(t):
    start = find_refinement(t.base)
    cur = start
    for move in connect_refinements(start, t):
        cur = apply_move(cur, move)
    assert canonical_serialize(cur) == canonical_serialize(t)


# -- minimal refinements


def test_minimal_refinement_of_marked_three_recovers_it():
    t = parse_diagram(MARKED_THREE)
    assert canonical_serialize(minimal_refinement(t.base)) == MARKED_THREE


def test_minimal_refinement_one_arrow():
    g = DecoratedGaussDiagram((Token("H", 1), Token("T", 1)), (Arrow(1, 1, 1),), 1)
    assert _counts(minimal_refinement(g)) == (1, 0)


def test_minimal_refinement_no_arrows():
    g = DecoratedGaussDiagram((), (), -2)
    t = minimal_refinement(g)
    assert t.markings == ((-1, -1),)


def test_minimal_refinement_matches_brute_force():
    rng = random.Random(19)
    for _ in range(150):
        g = random_dgd(rng, max_arrows=3, val_range=2)
        assert _counts(minimal_refinement(g)) == brute_minimal_counts(g)


def test_minimal_refinement_never_beaten_by_reference():
    rng = random.Random(20)
    for _ in range(150):
        g = random_dgd(rng, max_arrows=6)
        t = minimal_refinement(g)
        assert validate(t).ok
        assert t.marking_count <= find_refinement(g).marking_count


# -- nonnegative and positive refinements


def test_nonnegative_refinement_of_marked_three_is_exact():
    base = parse_diagram(MARKED_THREE).base
    assert canonical_serialize(non_negative_refinement(base)) == MARKED_THREE


def test_nonnegative_one_arrow_flat():
    g = DecoratedGaussDiagram((Token("H", 1), Token("T", 1)), (Arrow(1, 1, 0),), 1)
    assert _counts(non_negative_refinement(g)) == (0, 1)


def test_nonnegative_no_arrows():
    g = DecoratedGaussDiagram((), (), 3)
    assert non_negative_refinement(g).markings == ((1, 1, 1),)


def test_nonnegative_raises_below_weak():
    with pytest.raises(NotWeaklyAdmissible) as exc:
        non_negative_refinement(NOT_WEAKLY_WORD)
    assert exc.value.homology < 0
    assert loop_homology(NOT_WEAKLY_WORD, exc.value.certificate) == exc.value.homology


def test_nonnegative_on_random_weakly_admissible():
    rng = random.Random(21)
    seen = 0
    while seen < 150:
        g = random_dgd(rng, max_arrows=5)
        if check_admissible(g).verdict == NOT_WEAKLY:
            with pytest.raises(NotWeaklyAdmissible):
                non_negative_refinement(g)
            continue
        t = non_negative_refinement(g)
        assert validate(t).ok
        assert t.is_nonnegative
        seen += 1


def test_positive_refinement_accepts_only_admissible():
    rng = random.Random(22)
    seen = 0
    while seen < 150:
        g = random_dgd(rng, max_arrows=5)
        verdict = check_admissible(g).verdict
        if verdict != ADMISSIBLE:
            with pytest.raises(NotAdmissible) as exc:
                positive_refinement(g)
            assert loop_homology(g, exc.value.certificate) == exc.value.homology
            assert exc.value.homology <= 0
            continue
        t = positive_refinement(g)
        assert validate(t).ok
        assert t.is_positive
        seen += 1


def test_positive_refinement_rejects_weakly_only():
    with pytest.raises(NotAdmissible) as exc:
        positive_refinement(WEAKLY_ONLY)
    assert exc.value.homology == 0


def test_refinement_constructions_are_deterministic():
    rng = random.Random(23)
    for _ in range(40):
        g = random_dgd(rng, max_arrows=5)
        assert minimal_refinement(g) == minimal_refinement(g)
        if check_admissible(g).verdict != NOT_WEAKLY:
            assert non_negative_refinement(g) == non_negative_refinement(g)


def test_nonnegative_refinement_matches_brute_force():
    rng = random.Random(24)
    weakly = 0
    for _ in range(300):
        g = random_dgd(rng, max_arrows=4, val_range=2)
        want = brute_nonnegative_counts(g)
        if check_admissible(g).verdict == NOT_WEAKLY:
            assert want is None
            continue
        assert _counts(non_negative_refinement(g)) == want
        weakly += 1
    assert weakly > 50


def test_a_broken_core_answer_raises(monkeypatch):
    base = parse_diagram(MARKED_THREE).base

    def off_by_one(tg, counts, signs):
        out = refine_core(tg, counts, signs)
        out[0] += 1
        return out

    refine_core = refine._lex_least
    monkeypatch.setattr(refine, "_lex_least", off_by_one)
    with pytest.raises(RuntimeError, match="postcondition"):
        non_negative_refinement(base)
    with pytest.raises(RuntimeError, match="postcondition"):
        minimal_refinement(base)


def test_bump_coefficients_reject_a_change_of_valuations():
    g = parse_diagram(MARKED_THREE).base
    with pytest.raises(RuntimeError):
        refine._bump_coefficients(g, [1, 0, 0, 0, 0, 0])


# -- frozen outputs

# sha256 of _refinement_texts() as computed by the exhaustive branch-and-bound
# and the per-edge Bellman-Ford that the network-flow core replaced; any
# change to a minimal, nonnegative or positive refinement shows here
REFINEMENT_SHA256 = "e6d6b56b7113ba594d48cb227fed89a85ac5bc52f755ff4971ec9c967ac78290"


def _braid_closure(rng, strands, letters, positive):
    while True:
        letters_drawn = tuple(
            Letter("s" if positive or rng.random() < 0.7 else "S", rng.randint(1, strands - 1))
            for _ in range(letters)
        )
        try:
            word = VirtualBraidWord(strands, letters_drawn)
        except InvalidDiagram:  # the closure is a link
            continue
        return word, extract_tdiagram(braid_to_sliceword(word)).base


def _refinement_corpus():
    """The diagrams of the frozen corpus, and its braid closures as (word,
    closure, scrambled copy)."""
    rng = random.Random(20261018)
    diagrams, closures = [], []
    for n in range(9):
        for _ in range(8):
            g = random_dgd(rng, n=n)
            diagrams += [g, scrambled_copy(g, rng)]
    for strands in (2, 3, 4, 5):
        for letters in (3, 7, 21, 61, 121):
            if (letters - strands + 1) % 2:
                letters += 1
            for positive in (True, False):
                word, g = _braid_closure(rng, strands, letters, positive)
                closures.append((word, g, scrambled_copy(g, rng)))
                diagrams += closures[-1][1:]
    return diagrams, closures


def _refinement_texts() -> list[str]:
    diagrams, _ = _refinement_corpus()
    out = []
    for g in diagrams:
        verdict = check_admissible(g).verdict
        if g.n <= 8:
            out.append(canonical_serialize(minimal_refinement(g)))
        if verdict != NOT_WEAKLY:
            out.append(canonical_serialize(non_negative_refinement(g)))
        if verdict == ADMISSIBLE:
            out.append(canonical_serialize(positive_refinement(g)))
    return out


# sha256 of _minimal_texts() as computed by cancelling cycles from the zero
# flow, one Bellman-Ford per cycle; pins minimal refinements past n = 8
MINIMAL_SHA256 = "b4a223807ecefc145159023337d1adaa1bfb27cf3b30a4dd6c3e882a66d26b3b"


def _minimal_texts() -> list[str]:
    """Minimal refinements of the corpus closures with n > 8, their scrambled
    copies, and their orientation reverses: the same letters over downward
    strands, so the circle valuation is negative."""
    rng = random.Random(20261019)
    diagrams = []
    for word, g, copy in _refinement_corpus()[1]:
        if g.n > 8:
            drawn = braid_to_sliceword(word)
            reverse = extract_tdiagram(SliceWord((-1,) * word.strands, drawn.slices)).base
            diagrams += [g, copy, reverse, scrambled_copy(reverse, rng)]
    return [canonical_serialize(minimal_refinement(g)) for g in diagrams]


def test_refinements_are_byte_identical_to_the_frozen_corpus():
    texts = _refinement_texts()
    assert len(texts) == 366
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == REFINEMENT_SHA256


def test_minimal_refinements_at_size_are_byte_identical_to_the_frozen_corpus():
    texts = _minimal_texts()
    assert len(texts) == 96
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == MINIMAL_SHA256
