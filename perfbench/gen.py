"""Seeded input generators, standard library only.

Each takes a ``random.Random`` so that one seed fixes every input of a run.
Slice words are built as ``(bottom, slices)`` in the oracle's form and
written out as ``.sw`` text; diagrams are written from the oracle's reading
of a drawing, so generating inputs never calls the program under test.
"""
from __future__ import annotations

import random

from oracle import Code, OracleError, braid_slices, read


def strata(rng: random.Random, count: int, classes: int = 1) -> list[float]:
    """A point of (0, 1) per item, item i being of class i % classes.

    The items of one class take the midpoints of equal strata of (0, 1), in
    an order the seed shuffles.  Every seed thus gets the same size ladder
    in every class and differs only in the words drawn at each size and in
    their order, which keeps a run's total work from depending on the seed.
    """
    out = [0.0] * count
    for c in range(classes):
        members = range(c, count, classes)
        ranks = list(range(len(members)))
        rng.shuffle(ranks)
        for i, r in zip(members, ranks):
            out[i] = (r + 0.5) / len(members)
    return out


def log_size(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def knot_length(n: int, strands: int, hi: int) -> int:
    """The letter count nearest ``n`` (at most ``hi``) a knotted closure allows.

    The closure permutation is a product of n transpositions and must be one
    k-cycle, whose parity is k - 1, so n and k - 1 must agree mod 2.
    """
    if (n - strands + 1) % 2:
        n = n + 1 if n + 1 <= hi else n - 1
    return n


def knot_braid(rng: random.Random, strands: int, letters: int, mixed: bool) -> list:
    """Random braid letters on ``strands`` whose closure is a single knot."""
    if strands < 2 or letters < strands - 1 or (letters - strands + 1) % 2:
        raise ValueError(f"no {strands}-strand knot has {letters} crossings")
    while True:
        word = [
            ("S" if mixed and rng.random() < 0.5 else "s", rng.randint(1, strands - 1))
            for _ in range(letters)
        ]
        if _closes_to_one_cycle(strands, word):
            return word


def _closes_to_one_cycle(strands: int, word) -> bool:
    column = list(range(strands))  # column[c] = bottom column of the strand now at c
    for _, i in word:
        column[i - 1], column[i] = column[i], column[i - 1]
    exit_of = [0] * strands
    for top, bottom in enumerate(column):
        exit_of[bottom] = top
    length, at = 1, exit_of[0]
    while at != 0:
        at = exit_of[at]
        length += 1
    return length == strands


def braid_closure(rng: random.Random, strands: int, letters: int, mixed: bool):
    """``(bottom, slices)`` of a random knotted braid closure."""
    return braid_slices(strands, knot_braid(rng, strands, letters, mixed))


def _directions(bottom, slices) -> list[list[int]]:
    dirs = list(bottom)
    out = [list(dirs)]
    for kind, p, value in slices:
        if kind in ("x", "v"):
            dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
        elif kind == "a":
            dirs[p - 1:p - 1] = [value, -value]
        else:
            del dirs[p - 1:p + 1]
        out.append(list(dirs))
    return out


def real_drawing(rng: random.Random, max_crossings: int, max_strands: int = 6, max_front: int = 12):
    """``(bottom, slices)`` of a random real cap/cup drawing of one knot.

    A front half is grown move by move from one boundary strand, then undone
    in mirror order with fresh crossing signs; optional kinks add single
    crossings, and a cyclic rotation moves the seam.  Samples that draw more
    than one curve, or too many or no crossings, are drawn again.  The
    circle valuation is the net flux of the bottom line, so it is +1 or -1.
    """
    while True:
        dirs = [rng.choice((1, -1))]
        bottom = tuple(dirs)
        front = []
        for _ in range(rng.randint(2, max_front)):
            moves = []
            if len(dirs) + 2 <= max_strands:
                moves.append("cap")
            if len(dirs) >= 2:
                moves += ["cross"] * 5
            opposite = [i + 1 for i in range(len(dirs) - 1) if dirs[i] == -dirs[i + 1]]
            if len(dirs) > 2 and opposite:
                moves += ["cup"] * 2
            if not moves:
                break
            move = rng.choice(moves)
            if move == "cap":
                p = rng.randint(1, len(dirs) + 1)
                d = rng.choice((1, -1))
                front.append((("a", p, d), None))
                dirs[p - 1:p - 1] = [d, -d]
            elif move == "cross":
                p = rng.randint(1, len(dirs) - 1)
                front.append((("x", p, rng.choice((1, -1))), None))
                dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
            else:
                p = rng.choice(opposite)
                front.append((("u", p, 0), dirs[p - 1]))
                del dirs[p - 1:p + 1]
        slices = [s for s, _ in front]
        for (kind, p, _), left in reversed(front):
            if kind == "a":
                slices.append(("u", p, 0))
            elif kind == "u":
                slices.append(("a", p, left))
            else:
                slices.append(("x", p, rng.choice((1, -1))))
        for _ in range(rng.randint(0, 2)):
            # a kink: a cap beside one strand, a crossing with it, a cup
            levels = _directions(bottom, slices)
            r = rng.randrange(len(levels))
            if not levels[r] or len(levels[r]) + 2 > max_strands:
                continue
            p = rng.randrange(len(levels[r])) + 1
            d = levels[r][p - 1]
            slices[r:r] = [("a", p + 1, d), ("x", p, rng.choice((1, -1))), ("u", p + 1, 0)]
        r = rng.randrange(len(slices))
        bottom = tuple(_directions(bottom, slices)[r])
        slices = slices[r:] + slices[:r]
        crossings = sum(1 for kind, _, _ in slices if kind == "x")
        if not 1 <= crossings <= max_crossings:
            continue
        try:
            read(bottom, slices)
        except OracleError:
            continue
        return bottom, slices


def sparse_markings(rng: random.Random, code: Code) -> Code:
    """The code's crossings with sparse nonnegative markings kept off the span
    of its first arrow, so that arrow's valuation is 0 while a nonnegative
    refinement exists: weakly admissible but not admissible."""
    tokens = code.tokens()
    m = len(tokens)
    first = tokens[0][1]
    e, t = tokens.index(("H", first)), tokens.index(("T", first))
    inside = set()  # edge e is the arc right after token e
    while e != t:
        inside.add(e)
        e = (e + 1) % m
    outside = [e for e in range(m) if e not in inside]
    marked = {e for e in outside if rng.random() < 0.2} or {rng.choice(outside)}
    events = []
    for i, tok in enumerate(tokens):
        events.append(tok)
        if i in marked:
            events.append(("M", 1))
    return Code(events, dict(code.signs))


def scrambled_decorations(rng: random.Random, code: Code) -> Code:
    """The code's crossings with random valuations, one of them negative, so
    the arrow's own loop has negative class: not weakly admissible."""
    tokens = code.tokens()
    vals = {a: rng.randint(-3, 3) for a in code.signs}
    vals[rng.choice(sorted(vals))] = -rng.randint(1, 3)
    return Code(tokens, dict(code.signs), vals, rng.randint(-3, 3), marked=False)
