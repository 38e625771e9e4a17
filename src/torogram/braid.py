"""Virtual closed braids: words in braid generators whose closure is a knot.

A word on k strands stacks letters bottom to top: s/S are positive and
negative crossings of adjacent strands, v is a virtual crossing.  Closing the
braid glues top column j back to bottom column j, so a word describes a knot
exactly when its permutation is one k-cycle.  Synthesis turns any leveled
positive T-diagram into such a word, one crossing band per level.
"""
from __future__ import annotations

from .admit import _positive_levels
from .diagrams import DecoratedGaussDiagram, TDiagram, _set_field, _stored, record
from .errors import InvalidDiagram, ParseError
from .refine import positive_refinement
from .slices import RealCross, SliceWord, VirtualCross

_KINDS = {"s": 1, "S": -1, "v": 0}


@record
class Letter:
    kind: str
    index: int

    def __init__(self, kind: str, index: int):
        if kind not in _KINDS:
            raise InvalidDiagram(f"unknown braid letter kind {kind!r}")
        if index < 1:
            raise InvalidDiagram(f"braid letter index {index} out of range")
        _set_field(self, "kind", kind)
        _set_field(self, "index", index)


@record
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
    them back, so each crossing costs one real letter plus the slides.  The
    word is built once per T-diagram, from its stored levels, and stored on it.
    """
    return _synthesize(t)


@_stored("_braid")
def _synthesize(t: TDiagram) -> VirtualBraidWord:
    """:func:`synthesize_braid`, from the stored levels of ``t``."""
    levels = _positive_levels(t)
    base = t.base
    k = t.marking_count

    # arc of each token: index of the last marking before it along the curve
    arc_of = []
    count = -1
    for row in t.markings:
        arc_of.append(count % k)
        count += len(row)
    at = list(range(1, k)) + [0]  # column c holds arc at[c - 1]
    col = [k] + list(range(1, k))  # and arc a sits at column col[a]
    letters: list[Letter] = []
    # letters are immutable: one of each kind per column serves every use
    kinds = {kind: [None] + [Letter(kind, c) for c in range(1, k)] for kind in "sSv"}

    def swap(kind: str, c: int) -> None:
        letters.append(kinds[kind][c])
        a, b = at[c - 1], at[c]
        at[c - 1], at[c] = b, a
        col[a], col[b] = c + 1, c

    by_level: dict[int, list[tuple[int, int, int]]] = {}
    for arrow_id, level in levels.items():
        h, tl = base.positions[arrow_id]
        if arc_of[h] == arc_of[tl]:
            raise RuntimeError("a crossing cannot tie an arc to itself")
        by_level.setdefault(level, []).append((arrow_id, arc_of[h], arc_of[tl]))
    for level in sorted(by_level):
        band = by_level[level]
        while band:
            crossing = band[0] if len(band) == 1 else min(
                band, key=lambda x: (min(col[x[1]], col[x[2]]), x[0])
            )
            band.remove(crossing)
            arrow_id, arc_h, arc_t = crossing
            sign = base.arrow_map[arrow_id].sign
            left, right = (arc_h, arc_t) if sign == 1 else (arc_t, arc_h)
            # virtual letters until right sits just right of left
            cl, cr = col[left], col[right]
            for c in range(cr - 1, cl, -1) if cl < cr else range(cr, cl):
                swap("v", c)
            swap("s" if sign == 1 else "S", col[left])

    # close up: arc j must exit where arc j+1 enters, so sort to 0..k-1
    while True:
        swapped = False
        for c in range(1, k):
            if at[c - 1] > at[c]:
                swap("v", c)
                swapped = True
        if not swapped:
            break
    return VirtualBraidWord(k, tuple(letters))


def represent_as_closed_braid(g: DecoratedGaussDiagram) -> VirtualBraidWord:
    """A braid closure realizing the diagram; needs admissibility.

    Raises :class:`NotAdmissible` with a certificate loop otherwise.
    """
    return synthesize_braid(positive_refinement(g))
