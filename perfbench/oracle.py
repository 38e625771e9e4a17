"""Independent readings of the texts the program reads and writes.

Nothing here imports torogram.  The checks compare the program's outputs
against these readings, so a defect in a shared helper of the library cannot
make a wrong answer look right.

A *code* is a marked Gauss code: the cyclic list of events met walking a
knot once, ``("M", +1|-1)`` for a marking and ``("H"|"T", arrow)`` for the
over and under passage of a crossing, plus the sign of every arrow.
Valuations follow from the markings, so two codes describe the same
refinement exactly when their event lists agree up to rotation and arrow
relabeling and the relabeling keeps signs and valuations.
"""
from __future__ import annotations

import math


class OracleError(ValueError):
    """A text the oracle cannot read as the object it should describe."""


class Code:
    __slots__ = ("events", "signs", "vals", "circle", "marked")

    def __init__(self, events, signs, vals=None, circle=None, marked=True):
        self.events = events
        self.signs = signs
        self.marked = marked
        if vals is None:
            vals, circle = _valuations(events)
        self.vals = vals
        self.circle = circle

    @property
    def n(self) -> int:
        return len(self.signs)

    def marking_count(self) -> int:
        return sum(1 for kind, _ in self.events if kind == "M")

    def tokens(self) -> list:
        return [ev for ev in self.events if ev[0] != "M"]


def _valuations(events) -> tuple[dict, int]:
    """Arrow valuation = net markings met going forward from its H to its T."""
    total = 0
    at: dict[tuple[str, int], tuple[int, int]] = {}
    for i, (kind, x) in enumerate(events):
        if kind == "M":
            total += x
        else:
            at[(kind, x)] = (i, total)
    vals = {}
    for (kind, a), (i, before) in at.items():
        if kind == "H":
            j, until = at[("T", a)]
            vals[a] = until - before if j > i else until - before + total
    return vals, total


# -- .gd and .vb texts ---------------------------------------------------------


def parse_gd(text: str) -> Code:
    """The ``.gd`` format, read independently; markings stay in place."""
    circle = count = None
    events: list = []
    signs: dict[int, int] = {}
    vals: dict[int, int] = {}
    marked = False
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        head = parts[0]
        if head == "circle":
            circle = int(parts[1])
        elif head == "arrows":
            count = int(parts[1])
        elif head == "seq":
            for item in parts[1:]:
                if item in ("M+", "M-"):
                    marked = True
                    events.append(("M", 1 if item == "M+" else -1))
                elif item[:1] in ("H", "T"):
                    events.append((item[0], int(item[1:])))
                else:
                    raise OracleError(f"unknown token {item!r}")
        elif head == "arrow":
            if len(parts) != 6 or parts[2] != "sign" or parts[4] != "val":
                raise OracleError(f"bad arrow line {raw!r}")
            signs[int(parts[1])] = 1 if parts[3] == "+" else -1
            vals[int(parts[1])] = int(parts[5])
        else:
            raise OracleError(f"unexpected line {raw!r}")
    if circle is None or count is None or len(signs) != count:
        raise OracleError("incomplete .gd text")
    seen = sorted(ev for ev in events if ev[0] != "M")
    if seen != sorted([("H", a) for a in signs] + [("T", a) for a in signs]):
        raise OracleError("the seq line does not list each endpoint once")
    return Code(events, signs, vals, circle, marked)


def write_gd(code: Code, with_markings: bool) -> str:
    """A ``.gd`` text of the code, arrows numbered by first appearance.

    Without markings the valuations are written as the code carries them.
    """
    relabel: dict[int, int] = {}
    items = []
    for kind, x in code.events:
        if kind == "M":
            if with_markings:
                items.append("M+" if x == 1 else "M-")
            continue
        new = relabel.setdefault(x, len(relabel) + 1)
        items.append(f"{kind}{new}")
    lines = [f"circle {code.circle}", f"arrows {len(relabel)}", " ".join(["seq"] + items)]
    for old, new in sorted(relabel.items(), key=lambda kv: kv[1]):
        sign = "+" if code.signs[old] == 1 else "-"
        lines.append(f"arrow {new} sign {sign} val {code.vals[old]}")
    return "\n".join(lines) + "\n"


def validates(code: Code) -> bool:
    """Do the markings realize every valuation and the circle valuation?"""
    vals, circle = _valuations(code.events)
    return circle == code.circle and vals == code.vals


def same_refinement(a: Code, b: Code) -> bool:
    """Equal up to rotation and relabeling, markings included."""
    return a.marked and b.marked and _isomorphic(a, b, a.events, b.events)


def same_diagram(a: Code, b: Code) -> bool:
    """Equal decorated diagrams: tokens, signs, valuations, circle valuation."""
    return _isomorphic(a, b, a.tokens(), b.tokens())


def _isomorphic(a: Code, b: Code, ea: list, eb: list) -> bool:
    if a.circle != b.circle or a.n != b.n or len(ea) != len(eb):
        return False
    size = len(eb)
    if size == 0:
        return True
    # anchor on the rarest kind of event in b to keep the candidate set small
    kinds = {}
    for kind, _ in eb:
        kinds[kind] = kinds.get(kind, 0) + 1
    anchor_kind = min(kinds, key=lambda k: (kinds[k], k))
    j0 = next(j for j, ev in enumerate(eb) if ev[0] == anchor_kind)
    anchor = eb[j0]
    for r, ev in enumerate(ea):
        if ev[0] != anchor_kind or (anchor_kind == "M" and ev != anchor):
            continue
        fwd: dict[int, int] = {}
        back: dict[int, int] = {}
        for i in range(size):
            x = ea[(r + i) % size]
            y = eb[(j0 + i) % size]
            if x[0] != y[0]:
                break
            if x[0] == "M":
                if x[1] != y[1]:
                    break
                continue
            got = fwd.get(x[1])
            if got is None:
                if y[1] in back or a.signs[x[1]] != b.signs[y[1]] or a.vals[x[1]] != b.vals[y[1]]:
                    break
                fwd[x[1]] = y[1]
                back[y[1]] = x[1]
            elif got != y[1]:
                break
        else:
            return True
    return False


def parse_vb(text: str) -> tuple[int, list[tuple[str, int]]]:
    strands = None
    letters = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "strands":
            strands = int(parts[1])
        elif parts[0] in ("s", "S", "v") and len(parts) == 2:
            letters.append((parts[0], int(parts[1])))
        else:
            raise OracleError(f"bad braid line {raw!r}")
    if strands is None:
        raise OracleError("missing strands line")
    return strands, letters


# -- slice words ---------------------------------------------------------------

# A slice is (kind, column, value): kind "x" real crossing (value = sign),
# "v" virtual crossing, "a" cap (value = direction of its left branch),
# "u" cup.


def parse_sw(text: str) -> tuple[tuple[int, ...], list[tuple[str, int, int]]]:
    bottom = None
    slices = []
    kinds = {"cross": "x", "virtual": "v", "cap": "a", "cup": "u"}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "bottom":
            bottom = tuple(1 if s == "+" else -1 for s in parts[1:])
        elif parts[0] in kinds:
            value = 0
            if len(parts) == 3:
                value = 1 if parts[2] == "+" else -1
            slices.append((kinds[parts[0]], int(parts[1]), value))
        else:
            raise OracleError(f"bad slice line {raw!r}")
    if bottom is None:
        raise OracleError("missing bottom line")
    return bottom, slices


def braid_slices(strands: int, letters) -> tuple[tuple[int, ...], list]:
    """The braid closure as a slice word: every strand runs upward."""
    out = []
    for kind, i in letters:
        out.append(("v", i, 0) if kind == "v" else ("x", i, 1 if kind == "s" else -1))
    return (1,) * strands, out


def write_sw(bottom, slices) -> str:
    names = {"x": "cross", "v": "virtual", "a": "cap", "u": "cup"}
    lines = [" ".join(["bottom"] + ["+" if d == 1 else "-" for d in bottom])]
    for kind, p, value in slices:
        if kind in ("x", "a"):
            lines.append(f"{names[kind]} {p} {'+' if value == 1 else '-'}")
        else:
            lines.append(f"{names[kind]} {p}")
    return "\n".join(lines) + "\n"


def read(bottom, slices) -> Code:
    """The marked Gauss code of the closed curve a slice word draws.

    One sweep bottom to top cuts the curve into segments, pieces of strand
    between caps, cups and the boundary that each run one way; a crossing
    is recorded on the two segments it joins.  Following the links between
    segment ends then visits the curve in order.  Along the way it checks
    everything a valid word promises: columns in range, cups joining
    opposite strands, the top line matching the bottom, one single curve.
    Strands only permute between caps and cups, so the sweep costs one step
    per slice however wide the word gets.
    """
    up: list[bool] = []  # direction of each segment
    crossings: list[list[tuple[int, bool]]] = []  # (level, over) per segment, bottom to top
    below: list[tuple] = []  # what a segment's lower end meets: ("cap", seg) or ("edge", column)
    above: list[tuple] = []

    def segment(d: int, lower: tuple) -> int:
        up.append(d == 1)
        crossings.append([])
        below.append(lower)
        above.append(())
        return len(up) - 1

    cols = [segment(d, ("edge", c)) for c, d in enumerate(bottom, 1)]
    first_cap = None
    for g, (kind, p, value) in enumerate(slices):
        if kind == "a":
            if not 1 <= p <= len(cols) + 1:
                raise OracleError(f"cap at column {p} beyond {len(cols)} strands")
            left, right = segment(value, ()), segment(-value, ())
            below[left], below[right] = ("cap", right), ("cap", left)
            cols[p - 1:p - 1] = [left, right]
            if first_cap is None:
                first_cap = left if value == 1 else right
            continue
        if not 1 <= p < len(cols):
            raise OracleError(f"column {p} needs two strands, {len(cols)} present")
        a, b = cols[p - 1], cols[p]
        if kind == "u":
            if up[a] == up[b]:
                raise OracleError("a cup joins strands running the same way")
            above[a], above[b] = ("cup", b), ("cup", a)
            del cols[p - 1:p + 1]
            continue
        if kind == "x":
            # the strand rising from the left column is over exactly when the
            # sign equals the product of the two directions
            left_over = value == (1 if up[a] == up[b] else -1)
            crossings[a].append((g, left_over))
            crossings[b].append((g, not left_over))
        cols[p - 1], cols[p] = b, a
    if len(cols) != len(bottom):
        raise OracleError("the top line does not match the bottom line")
    for c, seg in enumerate(cols, 1):
        if up[seg] != (bottom[c - 1] == 1):
            raise OracleError("a strand reaches the top against its direction")
        above[seg] = ("edge", c)
    top_of = dict(enumerate(cols, 1))
    bottom_of = dict(enumerate(range(len(bottom)), 1))  # the first segments start at the bottom

    if bottom:
        start = (bottom_of[1], True) if bottom[0] == 1 else (top_of[1], False)
        events: list = [("M", bottom[0])]
    elif first_cap is not None:
        start = (first_cap, True)
        events = []
    else:
        raise OracleError("the word draws nothing")
    passages: list = []
    seg, rising = start
    for visited in range(1, len(up) + 1):
        for level, over in crossings[seg] if rising else reversed(crossings[seg]):
            passages.append((len(events), level, over))
            events.append(None)
        kind, other = above[seg] if rising else below[seg]
        if kind == "edge":
            nxt = (bottom_of[other], True) if rising else (top_of[other], False)
        else:
            nxt = (other, not rising)
        if nxt == start:
            break
        if kind == "edge":
            events.append(("M", 1 if rising else -1))
        seg, rising = nxt
    else:
        raise OracleError("the walk never closes up")
    if visited != len(up):
        raise OracleError("the word draws more than one closed curve")

    signs: dict[int, int] = {}
    ids: dict[int, int] = {}
    for idx, level, over in passages:
        if level not in ids:
            ids[level] = len(ids) + 1
            signs[ids[level]] = slices[level][2]
        events[idx] = ("H" if over else "T", ids[level])
    if len(passages) != 2 * len(ids):
        raise OracleError("a crossing is not met twice")
    return Code(events, signs)


def turning_number(bottom, slices) -> int:
    """Total rotation of the curve a valid slice word draws, read off the grid.

    Follows the curve through the grid of gaps (gap g lies below slice g,
    gap 0 is the glued boundary), collecting one point per gap and column
    it passes, then adds up the polyline's exterior angles.  Pure geometry:
    it knows nothing of the half turns caps and cups are worth.
    """
    m = len(slices)
    if m == 0:
        return 0
    start = (0, 1, bottom[0])
    pts: list[tuple[int, int]] = []
    y = 0
    state = start
    for _ in range(2 * (len(bottom) + 2 * m) * m + 2):
        g, c, d = state
        pts.append((c, y))
        kind, p, _ = slices[g if d == 1 else g - 1]
        opening, closing = ("a", "u") if d == 1 else ("u", "a")  # seen in the walk's direction
        if kind in ("x", "v") and c in (p, p + 1):
            c = p + 1 if c == p else p
        elif kind == closing and c in (p, p + 1):
            state = (g, p + 1 if c == p else p, -d)  # turn back within the gap
            if state == start:
                break
            continue
        elif kind == opening and c >= p:
            c += 2
        elif kind == closing and c > p + 1:
            c -= 2
        y += d
        state = ((g + d) % m, c, d)
        if state == start:
            break
    else:
        raise OracleError("the walk never closes up")
    return _turning(pts, y)


def _turning(pts: list[tuple[int, int]], shift: int) -> int:
    vecs = [(pts[i + 1][0] - pts[i][0], pts[i + 1][1] - pts[i][1]) for i in range(len(pts) - 1)]
    vecs.append((pts[0][0] - pts[-1][0], pts[0][1] + shift - pts[-1][1]))
    total = 0.0
    for i, (ax, ay) in enumerate(vecs):
        bx, by = vecs[(i + 1) % len(vecs)]
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    turns = total / (2 * math.pi)
    if abs(turns - round(turns)) > 1e-6:
        raise OracleError("the turning did not come out whole")
    return round(turns)


def read_sw(text: str) -> Code:
    return read(*parse_sw(text))


def read_vb(text: str) -> Code:
    strands, letters = parse_vb(text)
    return read(*braid_slices(strands, letters))


def valid_levels(levels: dict, n: int) -> bool:
    """Every arrow 1..n has a level, and levels are positive integers."""
    return sorted(levels) == list(range(1, n + 1)) and all(
        isinstance(v, int) and v >= 1 for v in levels.values()
    )
