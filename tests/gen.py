"""Seeded generators shared across test modules."""
from __future__ import annotations

import random

from hypothesis import strategies as st

from torogram.diagrams import (
    Arrow,
    DecoratedGaussDiagram,
    TDiagram,
    Token,
    assemble_tdiagram,
)


def _paired_tokens(order: list[int], n: int) -> tuple[Token, ...]:
    slots: dict[int, Token] = {}
    for k in range(1, n + 1):
        slots[order[2 * k - 2]] = Token("H", k)
        slots[order[2 * k - 1]] = Token("T", k)
    return tuple(slots[i] for i in range(2 * n))


def _arc_sums(tokens, counts) -> list[int]:
    """The valuations of arrows 1..n: counts summed from head to tail."""
    m = len(tokens)
    where = {tok: i for i, tok in enumerate(tokens)}
    sums = []
    for k in range(1, m // 2 + 1):
        v, e = 0, where["H", k]
        while e != where["T", k]:
            v += counts[e]
            e = (e + 1) % m
        sums.append(v)
    return sums


def random_dgd(
    rng: random.Random, n: int | None = None, max_arrows: int = 6, val_range: int = 3
) -> DecoratedGaussDiagram:
    if n is None:
        n = rng.randint(0, max_arrows)
    order = list(range(2 * n))
    rng.shuffle(order)
    tokens = _paired_tokens(order, n)
    arrows = tuple(
        Arrow(k, rng.choice((1, -1)), rng.randint(-val_range, val_range))
        for k in range(1, n + 1)
    )
    return DecoratedGaussDiagram(tokens, arrows, rng.randint(-val_range, val_range))


def random_tdiagram(
    rng: random.Random,
    n: int | None = None,
    max_arrows: int = 5,
    max_marks_per_edge: int = 2,
    positive: bool = False,
) -> TDiagram:
    """Markings chosen first and valuations derived, so the result validates."""
    if n is None:
        n = rng.randint(0, max_arrows)
    order = list(range(2 * n))
    rng.shuffle(order)
    tokens = _paired_tokens(order, n)
    edge_count = 2 * n if n else 1
    markings = [
        [1 if positive else rng.choice((1, -1)) for _ in range(rng.randint(0, max_marks_per_edge))]
        for _ in range(edge_count)
    ]
    if positive and all(not e for e in markings):
        markings[rng.randrange(edge_count)].append(1)
    counts = [sum(e) for e in markings]
    vals = _arc_sums(tokens, counts)
    arrows = tuple(Arrow(k, rng.choice((1, -1)), vals[k - 1]) for k in range(1, n + 1))
    return assemble_tdiagram(tokens, arrows, sum(counts), markings)


def periodic_tdiagram(
    rng: random.Random, periodic: bool = True, max_block: int = 3, max_repeats: int = 6,
    positive: bool = False,
) -> TDiagram:
    """A block of arrows repeated round the circle, each tail a fixed number
    of blocks after its head, so the token word is periodic.  With
    ``periodic`` the signs and markings repeat with the block too, so every
    decoration does; otherwise they are drawn per arrow and per edge.  The
    valuations follow from the markings, so the result validates."""
    b, reps = rng.randint(1, max_block), rng.randint(1, max_repeats)
    ahead = rng.randrange(reps)
    slots = list(range(2 * b))
    rng.shuffle(slots)
    m = 2 * b * reps
    tokens: list[Token] = [Token("H", 0)] * m
    for r in range(reps):
        for j in range(b):
            k = r * b + j + 1
            tokens[2 * b * r + slots[2 * j]] = Token("H", k)
            tokens[2 * b * ((r + ahead) % reps) + slots[2 * j + 1]] = Token("T", k)

    def marks() -> list[int]:
        return [1 if positive else rng.choice((1, -1)) for _ in range(rng.randint(0, 2))]

    block, signs = [marks() for _ in range(2 * b)], [rng.choice((1, -1)) for _ in range(b)]
    markings = [block[e % (2 * b)] if periodic else marks() for e in range(m)]
    if positive and not any(markings):
        block[0].append(1)  # the same list whenever it is repeated
        markings[0] = block[0]
    counts = [sum(e) for e in markings]
    arrows = [
        Arrow(k, signs[(k - 1) % b] if periodic else rng.choice((1, -1)), v)
        for k, v in enumerate(_arc_sums(tokens, counts), start=1)
    ]
    return scrambled_tdiagram(assemble_tdiagram(tokens, arrows, sum(counts), markings), rng)


def scrambled_copy(g: DecoratedGaussDiagram, rng: random.Random) -> DecoratedGaussDiagram:
    """Same diagram with relabeled arrows and a rotated token word."""
    n = g.n
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabel = dict(zip(range(1, n + 1), perm))
    r = rng.randrange(2 * n) if n else 0
    tokens = tuple(
        Token(t.kind, relabel[t.arrow]) for t in g.tokens[r:] + g.tokens[:r]
    )
    arrows = tuple(Arrow(relabel[a.id], a.sign, a.valuation) for a in g.arrows)
    return DecoratedGaussDiagram(tokens, arrows, g.circle_valuation)


def scrambled_tdiagram(t: TDiagram, rng: random.Random) -> TDiagram:
    g = t.base
    n = g.n
    if n == 0:
        marks = t.markings[0]
        r = rng.randrange(len(marks)) if marks else 0
        return TDiagram(g, (marks[r:] + marks[:r],))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabel = dict(zip(range(1, n + 1), perm))
    m = 2 * n
    r = rng.randrange(m)
    tokens = tuple(Token(tok.kind, relabel[tok.arrow]) for tok in g.tokens[r:] + g.tokens[:r])
    arrows = tuple(Arrow(relabel[a.id], a.sign, a.valuation) for a in g.arrows)
    markings = [t.markings[(e + r) % m] for e in range(m)]
    return assemble_tdiagram(tokens, arrows, g.circle_valuation, markings)


def refinement_like(t: TDiagram, rng: random.Random) -> TDiagram:
    """Another refinement of ``t``'s diagram: counts moved by random kernel
    vectors, then cancelling marking pairs slipped into random edges."""
    from torogram.refine import kernel_basis

    counts = list(t.net_counts())
    for vector in kernel_basis(t.base):
        c = rng.choice((-1, 0, 0, 1))
        counts = [x + c * v for x, v in zip(counts, vector)]
    marks = [[1] * c if c >= 0 else [-1] * -c for c in counts]
    for _ in range(rng.randint(0, 3)):
        edge = marks[rng.randrange(len(marks))]
        at, s = rng.randint(0, len(edge)), rng.choice((1, -1))
        edge[at:at] = [s, -s]
    return TDiagram(t.base, tuple(tuple(edge) for edge in marks))


@st.composite
def dgd_diagrams(draw, max_arrows: int = 5, val_range: int = 3) -> DecoratedGaussDiagram:
    n = draw(st.integers(0, max_arrows))
    order = draw(st.permutations(list(range(2 * n)))) if n else []
    tokens = _paired_tokens(list(order), n)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    vals = draw(st.lists(st.integers(-val_range, val_range), min_size=n, max_size=n))
    w = draw(st.integers(-val_range, val_range))
    arrows = tuple(Arrow(k, signs[k - 1], vals[k - 1]) for k in range(1, n + 1))
    return DecoratedGaussDiagram(tokens, arrows, w)


@st.composite
def t_diagrams(draw, max_arrows: int = 4, max_marks_per_edge: int = 2) -> TDiagram:
    n = draw(st.integers(0, max_arrows))
    order = draw(st.permutations(list(range(2 * n)))) if n else []
    tokens = _paired_tokens(list(order), n)
    edge_count = 2 * n if n else 1
    markings = draw(
        st.lists(
            st.lists(st.sampled_from((1, -1)), max_size=max_marks_per_edge),
            min_size=edge_count,
            max_size=edge_count,
        )
    )
    counts = [sum(e) for e in markings]
    vals = _arc_sums(tokens, counts)
    arrows = tuple(
        Arrow(k, draw(st.sampled_from((1, -1))), vals[k - 1]) for k in range(1, n + 1)
    )
    return assemble_tdiagram(tokens, arrows, sum(counts), markings)


def random_braid_word(
    rng: random.Random,
    max_strands: int = 6,
    max_real: int = 8,
    max_virtual: int = 8,
):
    """A random virtual braid word whose closure is a knot."""
    from torogram.braid import Letter, VirtualBraidWord, closure_permutation_of

    while True:
        k = rng.randint(1, max_strands)
        letters = []
        if k > 1:
            for _ in range(rng.randint(0, max_real)):
                letters.append(Letter(rng.choice(("s", "S")), rng.randint(1, k - 1)))
            for _ in range(rng.randint(0, max_virtual)):
                letters.append(Letter("v", rng.randint(1, k - 1)))
            rng.shuffle(letters)
        exits = closure_permutation_of(k, letters)
        seen, at = 1, exits[0]
        while at != 0:
            at = exits[at]
            seen += 1
        if seen == k:
            return VirtualBraidWord(k, tuple(letters))


def random_real_sliceword(
    rng: random.Random,
    max_strands: int = 6,
    max_front: int = 12,
    max_crossings: int = 10,
    min_crossings: int = 0,
):
    """A random valid real slice word drawing one full closed knot.

    A legal front half is sampled move by move, then undone in reverse with
    fresh crossing signs so the strand directions close up; only the front's
    own cups reconnect strands, so most samples are multi-component and get
    resampled.  Optional kinks (cap, cross, cup on one strand) break the
    mirror's even crossing parity, and a random cyclic rotation moves the
    seam.  Resamples until the picture is a single full knot in the
    requested size window.
    """
    from torogram.diagrams import is_full
    from torogram.slices import (
        Cap,
        Cup,
        RealCross,
        SliceWord,
        direction_levels,
        extract_tdiagram,
        validate_sliceword,
    )

    while True:
        dirs = [rng.choice((1, -1)) for _ in range(rng.randint(1, 2))]
        bottom = tuple(dirs)
        front: list[tuple[object, int | None]] = []
        for _ in range(rng.randint(2, max_front)):
            moves = []
            if len(dirs) + 2 <= max_strands:
                moves += ["cap"]
            if len(dirs) >= 2:
                moves += ["cross"] * 5
                if len(dirs) > 2 and any(
                    dirs[i] == -dirs[i + 1] for i in range(len(dirs) - 1)
                ):
                    moves += ["cup"] * 2
            if not moves:
                break
            mv = rng.choice(moves)
            if mv == "cap":
                p = rng.randint(1, len(dirs) + 1)
                d = rng.choice((1, -1))
                front.append((Cap(p, d), None))
                dirs[p - 1 : p - 1] = [d, -d]
            elif mv == "cross":
                p = rng.randint(1, len(dirs) - 1)
                front.append((RealCross(p, rng.choice((1, -1))), None))
                dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
            else:
                opts = [i + 1 for i in range(len(dirs) - 1) if dirs[i] == -dirs[i + 1]]
                p = rng.choice(opts)
                front.append((Cup(p), dirs[p - 1]))
                del dirs[p - 1 : p + 1]
        slices = [s for s, _ in front]
        for s, dl in reversed(front):
            if isinstance(s, Cap):
                slices.append(Cup(s.position))
            elif isinstance(s, Cup):
                slices.append(Cap(s.position, dl))
            else:
                slices.append(RealCross(s.position, rng.choice((1, -1))))
        for _ in range(rng.randint(0, 2)):
            # a kink: cap beside a strand, cross it, cup; one extra crossing
            word = SliceWord(bottom, tuple(slices))
            levels = direction_levels(word)
            r = rng.randrange(len(levels))
            if not levels[r] or len(levels[r]) + 2 > max_strands:
                continue
            p = rng.randrange(len(levels[r])) + 1
            d = levels[r][p - 1]
            slices[r:r] = [
                Cap(p + 1, d),
                RealCross(p, rng.choice((1, -1))),
                Cup(p + 1),
            ]
        word = SliceWord(bottom, tuple(slices))
        if slices:
            r = rng.randrange(len(slices))
            word = SliceWord(
                tuple(direction_levels(word)[r]), tuple(slices[r:] + slices[:r])
            )
        if not validate_sliceword(word).ok:
            continue
        t = extract_tdiagram(word)
        if not min_crossings <= t.base.n <= max_crossings:
            continue
        if not is_full(t.base):
            continue
        return word


def random_closed_sliceword(rng: random.Random, max_strands: int = 6, max_front: int = 8):
    """A random slice word whose levels are legal and whose top closes up with
    its bottom, drawing any number of closed curves, none included.

    A legal front half of real and virtual crossings, caps and cups is undone
    in reverse with fresh crossings, so the directions close up; a random
    cyclic rotation then moves the seam.
    """
    from torogram.slices import Cap, Cup, RealCross, SliceWord, VirtualCross, direction_levels

    def crossing(p: int):
        return RealCross(p, rng.choice((1, -1))) if rng.random() < 0.7 else VirtualCross(p)

    dirs = [rng.choice((1, -1)) for _ in range(rng.randint(0, 3))]
    bottom = tuple(dirs)
    front: list[tuple[object, int | None]] = []
    for _ in range(rng.randint(0, max_front)):
        cups = [i + 1 for i in range(len(dirs) - 1) if dirs[i] == -dirs[i + 1]]
        moves = []
        if len(dirs) + 2 <= max_strands:
            moves.append("cap")
        if len(dirs) >= 2:
            moves += ["cross", "cross"]
        if cups:
            moves.append("cup")
        if not moves:
            break
        mv = rng.choice(moves)
        if mv == "cap":
            p, d = rng.randint(1, len(dirs) + 1), rng.choice((1, -1))
            front.append((Cap(p, d), None))
            dirs[p - 1 : p - 1] = [d, -d]
        elif mv == "cross":
            p = rng.randint(1, len(dirs) - 1)
            front.append((crossing(p), None))
            dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
        else:
            p = rng.choice(cups)
            front.append((Cup(p), dirs[p - 1]))
            del dirs[p - 1 : p + 1]
    slices = [s for s, _ in front]
    for s, dl in reversed(front):
        if isinstance(s, Cap):
            slices.append(Cup(s.position))
        elif isinstance(s, Cup):
            slices.append(Cap(s.position, dl))
        else:
            slices.append(crossing(s.position))
    word = SliceWord(bottom, tuple(slices))
    if not slices:
        return word
    r = rng.randrange(len(slices))
    return SliceWord(direction_levels(word)[r], tuple(slices[r:] + slices[:r]))
