"""Virtual closed braids: words in braid generators whose closure is a knot.

A word on k strands stacks letters bottom to top: s/S are positive and
negative crossings of adjacent strands, v is a virtual crossing.  Closing the
braid glues top column j back to bottom column j, so a word describes a knot
exactly when its permutation is one k-cycle.  Synthesis turns any leveled
positive T-diagram into such a word, one crossing band per level.
"""
from __future__ import annotations

from dataclasses import dataclass

from .admit import level_decomposition
from .diagrams import DecoratedGaussDiagram, TDiagram
from .errors import InvalidDiagram, ParseError
from .refine import positive_refinement
from .slices import RealCross, SliceWord, VirtualCross

_KINDS = {"s": 1, "S": -1, "v": 0}


@dataclass(frozen=True)
class Letter:
    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidDiagram(f"unknown braid letter kind {self.kind!r}")
        if self.index < 1:
            raise InvalidDiagram(f"braid letter index {self.index} out of range")


@dataclass(frozen=True)
class VirtualBraidWord:
    strands: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise InvalidDiagram("a braid needs at least one strand")
        for letter in self.letters:
            if letter.index > self.strands - 1:
                raise InvalidDiagram(
                    f"letter at column {letter.index} does not fit {self.strands} strands"
                )
        perm = closure_permutation_of(self.strands, self.letters)
        seen = 1
        at = perm[0]
        while at != 0:
            at = perm[at]
            seen += 1
        if seen != self.strands:
            raise InvalidDiagram("the closure is a link, not a knot")


def closure_permutation_of(strands: int, letters) -> tuple[int, ...]:
    # arrangement[c] = bottom column of the strand currently at column c
    arrangement = list(range(strands))
    for letter in letters:
        i = letter.index - 1
        arrangement[i], arrangement[i + 1] = arrangement[i + 1], arrangement[i]
    exits = [0] * strands
    for top, bottom in enumerate(arrangement):
        exits[bottom] = top
    return tuple(exits)


def closure_permutation(word: VirtualBraidWord) -> tuple[int, ...]:
    """Where each bottom column exits on top, 0-based."""
    return closure_permutation_of(word.strands, word.letters)


# -- text format


def serialize_braid(word: VirtualBraidWord) -> str:
    lines = [f"strands {word.strands}"]
    lines.extend(f"{letter.kind} {letter.index}" for letter in word.letters)
    return "\n".join(lines) + "\n"


def parse_braid(text: str) -> VirtualBraidWord:
    strands: int | None = None
    letters: list[Letter] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "strands":
            if strands is not None:
                raise ParseError("repeated strands line", line=lineno)
            if len(fields) != 2:
                raise ParseError("strands takes one count", line=lineno)
            try:
                strands = int(fields[1])
            except ValueError:
                raise ParseError(f"bad strand count {fields[1]!r}", line=lineno) from None
            continue
        if strands is None:
            raise ParseError("the strands line must come first", line=lineno)
        if fields[0] not in _KINDS:
            raise ParseError(f"unknown letter {fields[0]!r}", line=lineno)
        if len(fields) != 2:
            raise ParseError("a letter takes one column", line=lineno)
        try:
            index = int(fields[1])
        except ValueError:
            raise ParseError(f"bad column {fields[1]!r}", line=lineno) from None
        letters.append(Letter(fields[0], index))
    if strands is None:
        raise ParseError("missing strands line")
    return VirtualBraidWord(strands, tuple(letters))


# -- from braids to slice words


def braid_to_sliceword(word: VirtualBraidWord) -> SliceWord:
    """The braid closure as a slice word: all strands run upward."""
    slices = []
    for letter in word.letters:
        if letter.kind == "v":
            slices.append(VirtualCross(letter.index))
        else:
            slices.append(RealCross(letter.index, _KINDS[letter.kind]))
    return SliceWord((1,) * word.strands, tuple(slices))


# -- synthesis


def synthesize_braid(t: TDiagram) -> VirtualBraidWord:
    """A braid word whose closure realizes the T-diagram.

    Needs a positive T-diagram admitting a level decomposition; raises
    whatever :func:`level_decomposition` raises otherwise.  Markings become
    strands, numbered along the curve; the arc leaving the first marking takes
    the rightmost column.  Crossings are laid down band by band in level
    order, sliding strands together with virtual letters and never sliding
    them back, so each crossing costs one real letter plus the slides.
    """
    levels = level_decomposition(t)
    base = t.base
    k = t.marking_count

    # arc of each token: index of the last marking before it along the curve
    arc_of = []
    count = 0
    for p in range(2 * base.n):
        arc_of.append((count - 1) % k)
        count += len(t.markings[p])
    at = list(range(1, k)) + [0]  # column c holds arc at[c - 1]
    letters: list[Letter] = []

    def column(arc: int) -> int:
        return at.index(arc) + 1

    def slide_adjacent(left_arc: int, right_arc: int) -> int:
        """Virtual letters until right_arc sits just right of left_arc."""
        cl, cr = column(left_arc), column(right_arc)
        if cl < cr:
            span = range(cr - 1, cl, -1)
        else:
            span = range(cr, cl)
        for c in span:
            letters.append(Letter("v", c))
            at[c - 1], at[c] = at[c], at[c - 1]
        return column(left_arc)

    by_level: dict[int, list[int]] = {}
    for arrow_id, level in levels.items():
        by_level.setdefault(level, []).append(arrow_id)
    for level in sorted(by_level):
        band = set(by_level[level])
        while band:
            arrow_id = min(
                band,
                key=lambda a: (
                    min(column(arc_of[base.positions[a][0]]), column(arc_of[base.positions[a][1]])),
                    a,
                ),
            )
            band.remove(arrow_id)
            arrow = base.arrow_map[arrow_id]
            h, tl = base.positions[arrow_id]
            arc_h, arc_t = arc_of[h], arc_of[tl]
            if arc_h == arc_t:
                raise RuntimeError("a crossing cannot tie an arc to itself")
            left = arc_h if arrow.sign == 1 else arc_t
            right = arc_t if arrow.sign == 1 else arc_h
            c = slide_adjacent(left, right)
            letters.append(Letter("s" if arrow.sign == 1 else "S", c))
            at[c - 1], at[c] = at[c], at[c - 1]

    # close up: arc j must exit where arc j+1 enters, so sort to 0..k-1
    while True:
        swapped = False
        for c in range(1, k):
            if at[c - 1] > at[c]:
                letters.append(Letter("v", c))
                at[c - 1], at[c] = at[c], at[c - 1]
                swapped = True
        if not swapped:
            break
    return VirtualBraidWord(k, tuple(letters))


def represent_as_closed_braid(g: DecoratedGaussDiagram) -> VirtualBraidWord:
    """A braid closure realizing the diagram; needs admissibility.

    Raises :class:`NotAdmissible` with a certificate loop otherwise.
    """
    return synthesize_braid(positive_refinement(g))
