"""Slice words: annular knot diagrams read bottom to top, one event per level.

A slice word fixes strand directions on the bottom boundary circle and stacks
elementary levels above it: real or virtual crossings of adjacent strands,
births (cap) and deaths (cup) of adjacent strand pairs.  The top boundary is
glued back to the bottom, column to column.  Extraction walks the resulting
closed curve and reads off its T-diagram; representation builds a word
realizing any given T-diagram.
"""
from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .diagrams import Arrow, DecoratedGaussDiagram, TDiagram, Token, assemble_tdiagram
from .diagrams import _set_field, _stored, record
from .errors import InvalidDiagram, NoLevels, ParseError


def _check_sign(value: int, what: str) -> None:
    if value not in (1, -1):
        raise InvalidDiagram(f"{what} must be +1 or -1, got {value!r}")


@record
class RealCross:
    """Crossing of the strands at columns (position, position + 1).

    The strand rising from the left column is over exactly when the sign
    equals the product of the two strand directions below the level.
    """

    position: int
    sign: int

    def __init__(self, position: int, sign: int):
        _check_sign(sign, "crossing sign")
        if position < 1:
            raise InvalidDiagram(f"column {position} out of range")
        _set_field(self, "position", position)
        _set_field(self, "sign", sign)


@record
class VirtualCross:
    position: int

    def __init__(self, position: int):
        if position < 1:
            raise InvalidDiagram(f"column {position} out of range")
        _set_field(self, "position", position)


@record
class Cap:
    """Birth of two new adjacent strands at (position, position + 1); the left
    one carries left_direction, the right one its opposite."""

    position: int
    left_direction: int

    def __init__(self, position: int, left_direction: int):
        _check_sign(left_direction, "cap direction")
        if position < 1:
            raise InvalidDiagram(f"column {position} out of range")
        _set_field(self, "position", position)
        _set_field(self, "left_direction", left_direction)


@record
class Cup:
    """Death of the two adjacent strands at (position, position + 1), which
    must run in opposite directions."""

    position: int

    def __init__(self, position: int):
        if position < 1:
            raise InvalidDiagram(f"column {position} out of range")
        _set_field(self, "position", position)


Slice = RealCross | VirtualCross | Cap | Cup


@record
class SliceWord:
    bottom: tuple[int, ...]
    slices: tuple[Slice, ...]
    _reading = _extracted = None  # see _stored

    def __post_init__(self):
        for d in self.bottom:
            _check_sign(d, "bottom direction")
        for s in self.slices:
            if not isinstance(s, (RealCross, VirtualCross, Cap, Cup)):
                raise InvalidDiagram(f"not a slice: {s!r}")


@record
class SliceReport:
    ok: bool
    problems: tuple[str, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "problems": list(self.problems)}


def _apply_slice(dirs: list[int], s: Slice) -> str | None:
    """Update the direction tuple through one level; a string is a problem."""
    p = s.position
    if isinstance(s, (RealCross, VirtualCross)):
        if p + 1 > len(dirs):
            return f"column {p} needs two strands, only {len(dirs)} present"
        dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
        return None
    if isinstance(s, Cap):
        if p > len(dirs) + 1:
            return f"cap at column {p} beyond the {len(dirs)} strands"
        dirs[p - 1:p - 1] = [s.left_direction, -s.left_direction]
        return None
    if p + 1 > len(dirs):
        return f"column {p} needs two strands, only {len(dirs)} present"
    if dirs[p - 1] != -dirs[p]:
        return f"cup at column {p} joins strands running the same way"
    del dirs[p - 1:p + 1]
    return None


def _levels(word: SliceWord) -> tuple[list[tuple[int, ...]], str | None]:
    """Strand directions at every gap up to the first illegal level, bottom
    boundary first, and that level's problem or None."""
    dirs = list(word.bottom)
    out = [tuple(dirs)]
    for i, s in enumerate(word.slices):
        problem = _apply_slice(dirs, s)
        if problem is not None:
            return out, f"level {i + 1}: {problem}"
        out.append(tuple(dirs))
    return out, None


def direction_levels(word: SliceWord) -> list[tuple[int, ...]]:
    """Strand directions at every gap, bottom boundary first; raises on
    illegal levels."""
    levels, problem = _levels(word)
    if problem is not None:
        raise InvalidDiagram(problem)
    return levels


def _survey(word: SliceWord):
    """(report, trail): the validation report and, once the levels close up,
    the trail of the first closed curve.

    A passage is the strand at column c of gap g, walked up (d = 1) or down
    (d = -1) along its own direction, so (g, c) names it.  Gaps count modulo
    the number of levels, so gap 0 is the glued boundary and a walk crosses it
    like any other gap.  The level crossed is g going up and g - 1 going down;
    the slice that opens two strands ahead is a cap going up and a cup going
    down, and the other kind turns the strand back in the same gap.  Curves
    are found from the lowest gap and leftmost column up; the first starts at
    the bottom of column 1, or on the left branch of the first cap when the
    boundary is empty.  Its trail holds ("line", gap, column, direction) per
    passage and ("cross", level, over) per real crossing, in curve order; the
    other curves are walked only to be counted.
    """
    levels, problem = _levels(word)
    if problem is None and levels[-1] != word.bottom:
        problem = (
            f"top boundary {_dir_text(levels[-1])!r} does not close up with "
            f"bottom {_dir_text(word.bottom)!r}"
        )
    if problem is not None:
        return SliceReport(False, (problem,)), []
    m = len(word.slices)
    trail: list[tuple] = []
    if not m:  # every strand runs once round the annulus and closes on itself
        curves = len(word.bottom)
        if curves:
            trail.append(("line", 0, 1, word.bottom[0]))
    else:
        # per level: 0 real, 1 virtual, 2 cap, 3 cup; its column; and for a
        # real crossing whether the strand rising from its left column is over
        kind, pos, over = [], [], []
        for s, dirs in zip(word.slices, levels):
            p = s.position
            pos.append(p)
            kind.append(0 if isinstance(s, RealCross) else 1 if isinstance(s, VirtualCross)
                        else 2 if isinstance(s, Cap) else 3)
            over.append(kind[-1] == 0 and s.sign == dirs[p - 1] * dirs[p])
        off = list(accumulate(map(len, levels[:m]), initial=-1))  # passage (g, c) at off[g] + c
        seen = bytearray(off[-1] + 1)
        curves = 0
        starts = ((g, c, d) for g in range(m) for c, d in enumerate(levels[g], start=1))
        for g, c, d in starts:  # the walk moves g, c, d; the next start rebinds them
            if seen[off[g] + c]:
                continue
            curves += 1
            out = trail if curves == 1 else []
            while not seen[off[g] + c]:
                seen[off[g] + c] = 1
                out.append(("line", g, c, d))
                ahead = (g + d) % m
                i = g if d == 1 else ahead
                p = pos[i]
                if c < p:
                    g = ahead
                elif kind[i] < 2:  # a crossing swaps columns p and p + 1
                    if c <= p + 1:
                        if not kind[i]:  # it rose from column p iff it sits there below
                            out.append(("cross", i, over[i] == ((c == p) == (d == 1))))
                        c = 2 * p + 1 - c
                    g = ahead
                elif (kind[i] == 2) == (d == 1):  # two strands open ahead
                    g, c = ahead, c + 2
                elif c <= p + 1:  # the strand turns back in the same gap
                    c, d = 2 * p + 1 - c, -d
                else:
                    g, c = ahead, c - 2
            if curves == 1 and 0 not in seen:  # the first curve covered every passage
                break
    if curves == 1:
        return SliceReport(True, ()), trail
    problem = f"{curves} closed curves, need exactly one" if curves else "the word draws nothing"
    return SliceReport(False, (problem,)), trail


def validate_sliceword(word: SliceWord) -> SliceReport:
    return _survey(word)[0]


# -- text format -----------------------------------------------------------------


_SIGN_TEXT = {1: "+", -1: "-"}


def _dir_text(dirs: tuple[int, ...]) -> str:
    return " ".join(_SIGN_TEXT[d] for d in dirs)


def serialize_sliceword(word: SliceWord) -> str:
    lines = [("bottom " + _dir_text(word.bottom)).rstrip()]
    for s in word.slices:
        if isinstance(s, RealCross):
            lines.append(f"cross {s.position} {_SIGN_TEXT[s.sign]}")
        elif isinstance(s, VirtualCross):
            lines.append(f"virtual {s.position}")
        elif isinstance(s, Cap):
            lines.append(f"cap {s.position} {_SIGN_TEXT[s.left_direction]}")
        else:
            lines.append(f"cup {s.position}")
    return "\n".join(lines) + "\n"


def _parse_sign(tok: str, lineno: int) -> int:
    if tok == "+":
        return 1
    if tok == "-":
        return -1
    raise ParseError(f"expected + or -, got {tok!r}", line=lineno)


def _parse_position(tok: str, lineno: int) -> int:
    try:
        p = int(tok)
    except ValueError:
        raise ParseError(f"expected a column number, got {tok!r}", line=lineno) from None
    if p < 1:
        raise ParseError(f"columns start at 1, got {p}", line=lineno)
    return p


def parse_sliceword(text: str) -> SliceWord:
    bottom: tuple[int, ...] | None = None
    slices: list[Slice] = []
    made: dict[str, Slice] = {}  # one record per distinct line: records are immutable
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = made.get(raw)
        if s is not None:
            slices.append(s)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "bottom":
            if bottom is not None:
                raise ParseError("repeated bottom line", line=lineno)
            bottom = tuple(_parse_sign(tok, lineno) for tok in args)
            continue
        if bottom is None:
            raise ParseError("the bottom line must come first", line=lineno)
        if kind == "cross":
            if len(args) != 2:
                raise ParseError("cross takes a column and a sign", line=lineno)
            s = RealCross(_parse_position(args[0], lineno), _parse_sign(args[1], lineno))
        elif kind == "virtual":
            if len(args) != 1:
                raise ParseError("virtual takes a column", line=lineno)
            s = VirtualCross(_parse_position(args[0], lineno))
        elif kind == "cap":
            if len(args) != 2:
                raise ParseError("cap takes a column and a direction", line=lineno)
            s = Cap(_parse_position(args[0], lineno), _parse_sign(args[1], lineno))
        elif kind == "cup":
            if len(args) != 1:
                raise ParseError("cup takes a column", line=lineno)
            s = Cup(_parse_position(args[0], lineno))
        else:
            raise ParseError(f"unknown level {kind!r}", line=lineno)
        made[raw] = s
        slices.append(s)
    if bottom is None:
        raise ParseError("missing bottom line")
    return SliceWord(bottom, tuple(slices))


# -- extraction -------------------------------------------------------------------


class _Reading(NamedTuple):
    """A valid word read once: the trail of its curve (see :func:`_survey`)
    and the arrow id of every real crossing's level, numbered by first
    visit."""

    trail: list[tuple]
    arrows: dict[int, int]


@_stored("_reading")
def _read(word: SliceWord) -> _Reading:
    """Validate the word and walk its curve; raises on invalid words."""
    report, trail = _survey(word)
    if not report.ok:
        raise InvalidDiagram("; ".join(report.problems))
    arrows: dict[int, int] = {}
    for ev in trail:
        if ev[0] == "cross":
            arrows.setdefault(ev[1], len(arrows) + 1)
    return _Reading(trail, arrows)


def _tdiagram(word: SliceWord, reading: _Reading) -> TDiagram:
    ids = reading.arrows
    tokens: list[Token] = []
    ends = ([0] * (len(ids) + 1), [0] * (len(ids) + 1))  # token position of each T, H
    rows: list[list[int]] = []  # the markings of the edge after each token
    row = leading = []  # the passages before the first crossing close the last edge
    for ev in reading.trail:
        if ev[0] == "cross":
            k = ids[ev[1]]
            ends[ev[2]][k] = len(tokens)
            tokens.append(Token("H" if ev[2] else "T", k))
            row = []
            rows.append(row)
        elif ev[1] == 0:  # a passage through the glued boundary
            row.append(ev[3])
    if rows:
        row += leading
    else:
        rows = [leading]
    prefix = list(accumulate(map(sum, rows), initial=0))
    w = prefix[-1]
    tails, heads = ends
    arrows = []
    for level, k in ids.items():
        h, t = heads[k], tails[k]  # the arc h..t holds the valuation
        arrows.append(Arrow(k, word.slices[level].sign, prefix[t] - prefix[h] + (0 if h < t else w)))
    return assemble_tdiagram(tuple(tokens), tuple(arrows), w, rows)


def extract_tdiagram(word: SliceWord) -> TDiagram:
    """The T-diagram of the closed-up curve: crossings become arrows (numbered
    by first visit, overpass first letter H), boundary passages become
    markings on the edges between them.  Read once per word and stored on it."""
    return _extraction(word)


@_stored("_extracted")
def _extraction(word: SliceWord) -> TDiagram:
    return _tdiagram(word, _read(word))


def crossing_records(word: SliceWord) -> tuple[tuple[int, int, int, int], ...]:
    """(level, column, sign, arrow id) per real crossing, in word order; the
    arrow ids match :func:`extract_tdiagram`."""
    ids = _read(word).arrows
    return tuple(
        (i + 1, s.position, s.sign, ids[i])
        for i, s in enumerate(word.slices)
        if isinstance(s, RealCross)
    )


# -- representation ----------------------------------------------------------------


class _Strand:
    __slots__ = ("direction",)

    def __init__(self, direction: int):
        self.direction = direction


def represent_tdiagram(t: TDiagram) -> SliceWord:
    """A slice word whose extraction gives back the T-diagram.

    A positive T-diagram with a level decomposition is a closed braid, and is
    drawn as the closure of the braid that
    :func:`torogram.braid.synthesize_braid` builds.  Any other T-diagram is
    drawn with parked strands (:func:`_represent_parked`).  The braid, and
    the levels it is built from, are those stored on ``t``.
    """
    from .braid import _synthesize, braid_to_sliceword  # braid imports this module

    if t.is_positive:
        try:
            return braid_to_sliceword(_synthesize(t))
        except NoLevels:
            pass
    return _represent_parked(t)


def _represent_parked(t: TDiagram) -> SliceWord:
    """A slice word for any T-diagram, virtual crossings allowed.

    One moving pen strand traces the curve event by event.  Boundary passages
    are parked lane strands, ordered along the curve from its first upward
    passage.  Each crossing is built in full at its first visit: a cap births
    a short transversal, the pen crosses it, and both loose ends park until
    the second visit cups them back onto the curve.  Parking and retrieval
    move strands with virtual crossings only.
    """
    base = t.base
    events: list[tuple] = []
    if base.n:
        for i in range(2 * base.n):
            events.append(("token", i))
            events.extend(("mark", s) for s in t.markings[i])
    else:
        events = [("mark", s) for s in t.markings[0]]

    mark_positions = [i for i, ev in enumerate(events) if ev[0] == "mark"]
    start_idx = next(
        (i for i in mark_positions if events[i][1] == 1),
        mark_positions[0] if mark_positions else None,
    )
    if start_idx is not None:
        events = events[start_idx:] + events[:start_idx]
    lane_signs = [ev[1] for ev in events if ev[0] == "mark"]
    k = len(lane_signs)

    letters: list[Slice] = []
    frontier: list[_Strand] = []
    port_bottom = [_Strand(s) for s in lane_signs]
    frontier.extend(port_bottom)
    top_lane: dict[_Strand, int] = {}

    def slide_and_cup(pen: _Strand, target: _Strand) -> int:
        """Bring the pen next to the target, cup them away, return the gap index."""
        i = frontier.index(pen)
        j = frontier.index(target)
        while j - i > 1:
            letters.append(VirtualCross(i + 1))
            frontier[i], frontier[i + 1] = frontier[i + 1], frontier[i]
            i += 1
        while i - j > 1:
            letters.append(VirtualCross(i))
            frontier[i - 1], frontier[i] = frontier[i], frontier[i - 1]
            i -= 1
        left = min(i, j)
        letters.append(Cup(left + 1))
        del frontier[left:left + 2]
        return left

    if start_idx is None:
        returner = _Strand(-1)
        pen = _Strand(1)
        letters.append(Cap(1, -1))
        frontier[0:0] = [returner, pen]
    elif lane_signs[0] == 1:
        pen = port_bottom[0]
    else:
        parked = _Strand(-1)
        top_lane[parked] = 1
        pen = _Strand(1)
        letters.append(Cap(1, -1))
        frontier[0:0] = [parked, pen]

    stub_down: dict[int, _Strand] = {}
    stub_up: dict[int, _Strand] = {}
    next_lane = 2
    for ev in events[1:] if start_idx is not None else events:
        if ev[0] == "token":
            tok = base.tokens[ev[1]]
            arrow = base.arrow_map[tok.arrow]
            if tok.arrow not in stub_down:
                db = arrow.sign if tok.kind == "H" else -arrow.sign
                left = _Strand(db)
                right = _Strand(-db)
                i = frontier.index(pen)
                letters.append(Cap(i + 2, db))
                frontier[i + 1:i + 1] = [left, right]
                letters.append(RealCross(i + 1, arrow.sign))
                frontier[i], frontier[i + 1] = frontier[i + 1], frontier[i]
                stub_down[tok.arrow] = left if db == -1 else right
                stub_up[tok.arrow] = right if db == -1 else left
            else:
                slide_and_cup(pen, stub_down.pop(tok.arrow))
                pen = stub_up.pop(tok.arrow)
        else:
            lane = next_lane
            next_lane += 1
            if ev[1] == 1:
                top_lane[pen] = lane
                pen = port_bottom[lane - 1]
            else:
                at = slide_and_cup(pen, port_bottom[lane - 1])
                parked = _Strand(-1)
                top_lane[parked] = lane
                pen = _Strand(1)
                letters.append(Cap(at + 1, -1))
                frontier[at:at] = [parked, pen]

    if start_idx is None:
        slide_and_cup(pen, returner)
    elif lane_signs[0] == 1:
        top_lane[pen] = 1
    else:
        slide_and_cup(pen, port_bottom[0])

    order = [top_lane[s] for s in frontier]
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(order) - 1):
            if order[i] > order[i + 1]:
                order[i], order[i + 1] = order[i + 1], order[i]
                letters.append(VirtualCross(i + 1))
                swapped = True
    if order != list(range(1, k + 1)):
        raise RuntimeError("parked strands do not surface in lane order")
    return SliceWord(tuple(lane_signs), tuple(letters))


def represent_dgd(g: DecoratedGaussDiagram) -> SliceWord:
    """A slice word realizing the diagram, markings taken from the reference
    refinement."""
    from .refine import find_refinement

    return represent_tdiagram(find_refinement(g))
