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

_new_token = tuple.__new__  # Token(kind, arrow) without its Python-level __new__


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


def direction_levels(word: SliceWord) -> list[tuple[int, ...]]:
    """Strand directions at every gap, bottom boundary first; raises on
    illegal levels."""
    dirs = list(word.bottom)
    levels = [word.bottom]
    for i, s in enumerate(word.slices):
        problem = _apply_slice(dirs, s)
        if problem is not None:
            raise InvalidDiagram(f"level {i + 1}: {problem}")
        levels.append(tuple(dirs))
    return levels


def _survey(word: SliceWord):
    """(report, trail): the validation report and, once the levels close up,
    the trail of the first closed curve.

    One sweep, bottom to top, cuts the curve into runs: vertical pieces of
    strand, each from the bottom boundary or a cap up to the top boundary or
    a cup.  A real crossing adds ("cross", level, over) to both of its runs
    and swaps them.  A run also holds ("line", gap, column, direction) for
    the lowest passage of each of its pieces between crossings.  The top is
    glued to gap 0, the bottom, column by column, so a piece reaching only
    the top adds nothing.  A cap's runs join at their bottom ends, a cup's
    at their top ends.  Curves are the cycles of runs walked along the
    strand, a run read backwards when walked down, counted from run 0: the
    bottom of column 1, or the first cap's left branch when the boundary is
    empty.  The trail is the first curve's, read from run 0's lowest
    passage; the others are only counted.  A crossing with both its strands
    is swept in place; other slices, and every problem, go through
    :func:`_apply_slice`.
    """
    m = len(word.slices)
    dirs, heading = list(word.bottom), list(word.bottom)  # per column; per run
    runs = [[("line", 0, c, d)] for c, d in enumerate(dirs, start=1)]
    col = list(range(len(dirs)))  # the run at each column
    after = [-1] * len(dirs)  # the run the curve enters on leaving each run
    for i, s in enumerate(word.slices):
        p = s.position
        if isinstance(s, (RealCross, VirtualCross)) and p < len(dirs):
            dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
            a, b = col[p - 1], col[p]
            col[p - 1], col[p] = b, a
            if isinstance(s, RealCross):
                over = s.sign == heading[a] * heading[b]  # a rises from the left column
                runs[a].append(("cross", i, over))
                runs[b].append(("cross", i, not over))
                if i + 1 < m:  # above the top level a piece reaches only the glued boundary
                    runs[a].append(("line", i + 1, p + 1, heading[a]))
                    runs[b].append(("line", i + 1, p, heading[b]))
            continue
        problem = _apply_slice(dirs, s)
        if problem is not None:
            return SliceReport(False, (f"level {i + 1}: {problem}",)), []
        if isinstance(s, Cap):  # two runs start, joined at their bottom ends
            a, d = len(runs), s.left_direction
            col[p - 1:p - 1] = [a, a + 1]
            heading += [d, -d]
            after += [a + 1, -1] if d == -1 else [-1, a]  # down one run, up its mate
            runs += ([[("line", i + 1, p, d)], [("line", i + 1, p + 1, -d)]]
                     if i + 1 < m else [[], []])
        else:  # a cup: two runs end, joined at their top ends
            a, b = col[p - 1:p + 1]
            del col[p - 1:p + 1]
            up, down = (a, b) if heading[a] == 1 else (b, a)
            after[up] = down
    if dirs != list(word.bottom):
        problem = (
            f"top boundary {_dir_text(dirs)!r} does not close up with "
            f"bottom {_dir_text(word.bottom)!r}"
        )
        return SliceReport(False, (problem,)), []
    for c, r in enumerate(col):  # glue the top of column c to its bottom
        leave, enter = (r, c) if heading[r] == 1 else (c, r)
        after[leave] = enter
    curves, trail = 0, []
    for r in range(len(runs)):
        if after[r] < 0:  # walked already
            continue
        curves += 1
        while after[r] >= 0:
            if curves == 1:
                trail += runs[r] if heading[r] == 1 else reversed(runs[r])
            after[r], r = -1, after[r]
    if heading and heading[0] == -1:  # run 0 was read from its top
        k = len(runs[0]) - 1
        trail = trail[k:] + trail[:k]
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
    """A valid word read once: its curve's trail (see :func:`_survey`), linear
    in slices plus width, and from one walk over it each crossing level's
    arrow id by first visit, the tokens, each arrow's H and T positions by
    id - 1, and the markings of the edge after each token."""

    trail: list[tuple]
    arrows: dict[int, int]
    tokens: tuple[Token, ...]
    heads: list[int]
    tails: list[int]
    rows: list[list[int]]


@_stored("_reading")
def _read(word: SliceWord) -> _Reading:
    """Validate the word and walk its curve; raises on invalid words."""
    report, trail = _survey(word)
    if not report.ok:
        raise InvalidDiagram("; ".join(report.problems))
    arrows: dict[int, int] = {}
    tokens: list[Token] = []
    ends = ([], [])  # T, H token positions; an arrow's first visit fills both
    row: list[int] = []
    rows = [row]  # the boundary passages after no token, then after each token
    f = next((i for i, ev in enumerate(trail) if ev[0] == "cross"), 0)
    for ev in trail[f:] + trail[:f]:  # the passages before the first crossing end the curve
        if ev[0] == "cross":
            q, over = len(tokens), ev[2]
            k = arrows.get(ev[1])
            if k is None:
                k = arrows[ev[1]] = len(arrows) + 1
                ends[0].append(q)
                ends[1].append(q)
            else:
                ends[over][k - 1] = q
            tokens.append(_new_token(Token, ("H" if over else "T", k)))
            row = []
            rows.append(row)
        elif ev[1] == 0:  # a passage through the glued boundary
            row.append(ev[3])
    return _Reading(trail, arrows, tuple(tokens), ends[1], ends[0], rows[1:] or rows)


def _tdiagram(word: SliceWord, reading: _Reading) -> TDiagram:
    prefix = list(accumulate(map(sum, reading.rows), initial=0))
    w = prefix[-1]
    # the arc from an arrow's H to its T holds the valuation
    arrows = [Arrow(k, word.slices[level].sign, prefix[t] - prefix[h] + (0 if h < t else w))
              for (level, k), h, t in zip(reading.arrows.items(), reading.heads, reading.tails)]
    return assemble_tdiagram(reading.tokens, arrows, w, reading.rows)


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
