"""Rebuilding honest annular pictures from decorated data.

A decorated Gauss diagram whose decorations are not all zero can sometimes be
drawn as a real (virtual-free) knot diagram in the annulus.  The route taken
here: read the faces of the curve's own map, whose rotation at every crossing
the signs and H/T ends fix, so that it is the curve's Carter surface (Carter,
*Proc. AMS* 111, 1991; Kamada & Kamada, *JKTR* 9, 2000); then pick the
cheapest refinement, read its markings' order off those faces, and sweep the
picture from the knot cut open at its markings.

The criterion.  With n crossings and k markings, a real picture exists
exactly when the curve's map has n + 2 faces and the face classes are
{+1, -1, 0 x n}.  The face count does not depend on the refinement, so it is
checked before any refinement is computed.  A marking on edge e separates
face A, that of dart 2e, from face B, that of dart 2e + 1; its dual edge runs
B -> A for a +1 marking and A -> B for a -1 marking, and a face's class is
its in-degree minus its out-degree.  The columns, left to right, are the
markings met by the dual path from the class -1 face to the class +1 face.
Why this is sound:

1. Cutting at the markings and gluing the cut ends back restores the curve,
   so n + 2 faces means genus 0: the map lies on a sphere.
2. Under the class condition the k oriented dual edges form a 1-chain from
   the -1 face to the +1 face, which splits into one directed path plus
   directed dual cycles.
3. A dual cycle is a closed curve in the twice-punctured sphere with
   algebraic intersection 0 with every arrow loop and with the circle, so
   removing it keeps every valuation with fewer markings.  The refinement
   is minimal, so no such cycle exists, and the path is simple.
4. Once the two end faces are punctured, that path is a section meeting the
   knot exactly at the markings, in walk order.
5. An arc splitting the cut-open tangle would lie inside one face the path
   visits once; it would bound a knot-free disc, so a picture is always one
   piece.
6. A real drawing lies on the same sphere, so its knot cuts the annulus
   into these faces, that of dart 2e + 1 left of an upward passage of edge
   e; :func:`find_section` searches their dual graph from the class -1 face
   to the class +1 face of the drawing's own boundary markings.

Either failed condition raises :class:`NotRealRealizable` with its reason;
both can be re-checked from the face map alone.

Darts are ints, two per edge, and the other half of dart d is d ^ 1.  On the
curve, edge e carries dart 2e, leaving token e, and dart 2e + 1, entering
token e + 1.  Cut open, arc a runs from marking a to marking a + 1 through
segments ``first[a]`` to ``first[a + 1] - 1``; segment s carries dart 2s at
its start and 2s + 1 at its end in knot order; a dart at no crossing is a
loose end.  A strand being drawn is the dart it heads for: it lies on
segment d >> 1 and points up the sweep (direction +1) exactly when d is
odd.  Component maps label crossings ``x<id>``, loose ends
``end<arc>.<side>`` and darts ``a<arc>s<segment in arc>.<side>``.
"""
from __future__ import annotations

from itertools import accumulate, repeat

from .diagrams import (
    DecoratedGaussDiagram,
    TDiagram,
    _stored,
    canonical_serialize,
    is_full,
    record,
    require_valid,
)
from .errors import InvalidDiagram, NotFull, NotRealRealizable
from .refine import minimal_refinement
from .slices import (
    Cap,
    Cup,
    RealCross,
    SliceWord,
    VirtualCross,
    _apply_slice,
    _extraction,
    _read,
)


def _rotation(base: DecoratedGaussDiagram, into: list[int], size: int):
    """(succ, over, vertex_of) per dart: its rotation successor at its crossing,
    whether it runs over, and the crossing's arrow id (0 off crossings).
    ``into[p]`` is the dart entering token p; the next dart, mod ``size``,
    leaves it."""
    succ = [0] * size
    over = bytearray(size)
    vertex_of = [0] * size
    positions = base.positions
    for arrow in base.arrows:
        h, tl = positions[arrow.id]
        oi, ui = into[h], into[tl]
        oo, uo = (oi + 1) % size, (ui + 1) % size
        # counterclockwise around the crossing, over strand entering first
        a, b, c, d = (oi, ui, oo, uo) if arrow.sign == 1 else (oi, uo, oo, ui)
        succ[a], succ[b], succ[c], succ[d] = b, c, d, a
        vertex_of[a] = vertex_of[b] = vertex_of[c] = vertex_of[d] = arrow.id
        over[oi] = over[oo] = 1
    return succ, over, vertex_of


def _faces(succ: list[int]) -> tuple[list[int], int]:
    """The face number of every dart, faces being the orbits of dart ->
    rotation successor of its other half, and the number of faces."""
    face = [-1] * len(succ)
    count = 0
    for d0 in range(len(succ)):
        if face[d0] >= 0:
            continue
        d = d0
        while face[d] < 0:
            face[d] = count
            d = succ[d ^ 1]
        count += 1
    return face, count


def _curve_faces(g: DecoratedGaussDiagram) -> tuple[list[int], int]:
    """The faces of the uncut curve's map, darts numbered by edge."""
    if not g.n:  # one edge, no crossing: the two sides of the circle
        return [0, 1], 2
    size = 2 * g.edge_count
    return _faces(_rotation(g, [(2 * p - 1) % size for p in range(g.edge_count)], size)[0])


class _Web:
    """A refinement cut open at its markings: arcs of the knot between
    consecutive markings, each a chain of segments through its crossings."""

    def __init__(self, t: TDiagram):
        base = t.base
        marks = t.markings
        m, n = len(marks), base.n
        start = next((e for e, row in enumerate(marks) if row), None)
        if start is None:
            # a full diagram has a nonzero valuation, so its counts are nonzero
            raise RuntimeError("a minimal refinement of a full diagram has no markings")
        signs: list[int] = []
        edges: list[int] = []  # the edge of each marking
        first: list[int] = []
        into = [0] * m
        seg = -1  # a marking and a token each start a segment
        for e in range(start, start + m):  # knot order from the first marking on
            e %= m
            for s in marks[e]:
                seg += 1
                signs.append(s)
                edges.append(e)
                first.append(seg)
            if n:
                seg += 1
                into[(e + 1) % m] = 2 * seg - 1
        first.append(seg + 1)
        self.t = t
        self.base = base
        self.k = len(signs)
        self.signs = signs
        self.edges = edges
        self.first = first
        self.into = into
        self.succ, self.over, self.vertex_of = _rotation(base, into, 2 * first[-1])

    def end_dart(self, a: int, side: int) -> int:
        return 2 * self.first[a] if side == 0 else 2 * self.first[a + 1] - 1


def _winding(face: list[int], count: int, markings) -> list[int]:
    """Every face's class under the markings: the in-degree minus the
    out-degree of their dual edges (see the module docstring)."""
    winding = [0] * count
    for e, row in enumerate(markings):
        for s in row:
            winding[face[2 * e]] += s
            winding[face[2 * e + 1]] -= s
    return winding


def _columns(web: _Web, face: list[int]) -> tuple[int, ...]:
    """The markings in the order the section's dual path crosses them, or
    why the faces wind wrongly around the annulus (see the module docstring)."""
    n = web.base.n
    winding = _winding(face, n + 2, web.t.markings)
    leaving: dict[int, tuple[int, int]] = {}  # face -> (marking, face across it)
    for j, e in enumerate(web.edges):
        a, b = face[2 * e], face[2 * e + 1]
        tail, head = (b, a) if web.signs[j] == 1 else (a, b)
        leaving[tail] = (j, head)
    if sorted(winding) != [-1] + [0] * n + [1]:
        raise NotRealRealizable("the glued faces wind wrongly around the annulus")
    at, goal = winding.index(-1), winding.index(1)
    columns: list[int] = []
    while at != goal and len(columns) < web.k:
        j, at = leaving[at]
        columns.append(j)
    if at != goal or len(set(columns)) != web.k:
        raise RuntimeError("a dual cycle off the section's path: the refinement is not minimal")
    return tuple(columns)


@record
class ComponentMap:
    """The cut-open knot as one tangle piece: its arcs and crossings, the
    rotation system that pins down the drawing, and its strand ends left to
    right on each side."""

    arcs: tuple[int, ...]
    crossings: tuple[int, ...]
    rotation: tuple[tuple[str, tuple[str, ...]], ...]
    bottoms: tuple[str, ...]
    tops: tuple[str, ...]


@record(hidden=("word",))
class AnnularDiagram:
    """A real diagram of the annulus: per boundary column, the marking whose
    cut point sits there, and the slice word swept from them once, at
    construction.  Its one tangle piece, ``components``, is labelled on first
    read; the refinement and the columns fix it."""

    refinement: TDiagram
    column_markings: tuple[int, ...]
    word: SliceWord
    _components = None  # see _stored

    @property
    def components(self) -> tuple[ComponentMap, ...]:
        return _component_maps(self)


@_stored("_components")
def _component_maps(a: AnnularDiagram) -> tuple[ComponentMap, ...]:
    """The picture's one tangle piece, labelled from its refinement cut anew."""
    web = _Web(a.refinement)
    base, first, succ = web.base, web.first, web.succ
    arc_of = [x for x in range(web.k) for _ in range(first[x], first[x + 1])]

    def dart(d: int) -> str:
        x = arc_of[d >> 1]
        return f"a{x}s{(d >> 1) - first[x]}.{d & 1}"

    # ends first, then crossings by id, each ring from the over strand entering
    rotation = [(f"end{x}.{side}", (dart(web.end_dart(x, side)),))
                for x in range(web.k) for side in (0, 1)]
    for arrow in base.arrows:
        ring = [web.into[base.positions[arrow.id][0]]]
        for _ in range(3):
            ring.append(succ[ring[-1]])
        rotation.append((f"x{arrow.id}", tuple(map(dart, ring))))
    columns = a.column_markings
    return (
        ComponentMap(
            arcs=tuple(range(web.k)),
            crossings=tuple(arrow.id for arrow in base.arrows),
            rotation=tuple(rotation),
            bottoms=tuple("end%d.%d" % _bottom_end(web, j) for j in columns),
            tops=tuple("end%d.%d" % _top_end(web, j) for j in columns),
        ),
    )


def reconstruct(g: DecoratedGaussDiagram) -> AnnularDiagram:
    """The canonical real annular diagram of a full decorated Gauss diagram,
    built over its cheapest refinement; raises :class:`NotFull` or
    :class:`NotRealRealizable` when no such picture exists.  The picture, or
    the failure, is found once and stored on ``g``."""
    return _rebuilt(g)


@_stored("_realized", (NotFull, NotRealRealizable))
def _rebuilt(g: DecoratedGaussDiagram) -> AnnularDiagram:
    """Decide on the curve's faces whether it draws in the annulus, read the
    cheapest refinement's columns off the section's dual path, and sweep the
    picture once."""
    if not is_full(g):
        raise NotFull("only a diagram with nonzero decorations rebuilds to a real picture")
    face, count = _curve_faces(g)
    if count != g.n + 2:
        raise NotRealRealizable("the glued surface is not an annulus")
    web = _Web(minimal_refinement(g))
    columns = _columns(web, face)
    return AnnularDiagram(refinement=web.t, column_markings=columns, word=_sweep(web, columns))


def annular_to_json(a: AnnularDiagram) -> dict:
    k = len(a.column_markings)
    signs = {arrow.id: arrow.sign for arrow in a.refinement.base.arrows}
    return {
        "refinement": canonical_serialize(a.refinement),
        "columns": [
            {"column": c + 1, "marking": m} for c, m in enumerate(a.column_markings)
        ],
        "mates": [
            {"marking": j, "ends": [f"end{(j - 1) % k}.1", f"end{j}.0"]}
            for j in range(k)
        ],
        "components": [
            {
                "arcs": list(comp.arcs),
                "crossings": list(comp.crossings),
                "signs": {str(i): signs[i] for i in comp.crossings},
                "rotation": {v: list(ring) for v, ring in comp.rotation},
                "bottoms": list(comp.bottoms),
                "tops": list(comp.tops),
            }
            for comp in a.components
        ],
    }


# -- drawing as a slice word --------------------------------------------------------


def _bottom_end(web: _Web, j: int) -> tuple[int, int]:
    """The loose end that enters at the bottom of marking j's column."""
    if web.signs[j] == 1:
        return (j, 0)
    return ((j - 1) % web.k, 1)


def _top_end(web: _Web, j: int) -> tuple[int, int]:
    """The loose end that surfaces at the top of marking j's column."""
    if web.signs[j] == 1:
        return ((j - 1) % web.k, 1)
    return (j, 0)


def _sweep(web: _Web, columns: tuple[int, ...]) -> SliceWord:
    """Draw the picture as stacked slices, sweeping bottom to top; the knot
    meets the glued boundary exactly at the chosen columns.  Each strand is
    the dart it heads for (see the module docstring)."""
    vertex_of, succ, over = web.vertex_of, web.succ, web.over
    arrows = web.base.arrows  # by id, from 1
    tops = [web.end_dart(*_top_end(web, j)) for j in columns]
    surfaced = bytearray(len(succ))
    for d in tops:
        surfaced[d] = 1
    wires = [web.end_dart(*_bottom_end(web, j)) ^ 1 for j in columns]
    slices: list = []
    placed = bytearray(len(arrows) + 1)

    def close_cup() -> bool:
        for i in range(len(wires) - 1):
            d, e = wires[i], wires[i + 1]
            if d >> 1 != e >> 1:
                continue
            if (vertex_of[d] and not placed[vertex_of[d]]) or (vertex_of[e] and not placed[vertex_of[e]]):
                continue  # a freshly capped pair has not met anything yet
            if surfaced[d] or surfaced[e]:
                continue  # both halves already surfaced; nothing meets
            if d == e:
                raise RuntimeError("cup halves run the same way")
            slices.append(Cup(i + 1))
            del wires[i : i + 2]
            return True
        return False

    def draw_crossing() -> bool:
        for i in range(len(wires) - 1):
            d, e = wires[i], wires[i + 1]
            v = vertex_of[d]
            if not v or placed[v] or vertex_of[e] != v or succ[d] != e:
                continue
            da, db = (d & 1) * 2 - 1, (e & 1) * 2 - 1
            sign = da * db if over[d] else -da * db
            if sign != arrows[v - 1].sign:
                raise RuntimeError("drawn sign disagrees")
            slices.append(RealCross(i + 1, sign))
            right = succ[e]
            left, right = succ[right] ^ 1, right ^ 1
            if (left ^ e) & 1 or (right ^ d) & 1:
                raise RuntimeError("strand flow broke")
            wires[i], wires[i + 1] = left, right
            placed[v] = 1
            return True
        return False

    def birth_cap() -> bool:
        for i, d in enumerate(wires):
            v = vertex_of[d]
            if not v or placed[v]:
                continue
            q = succ[d]
            if q in wires or q ^ 1 in wires:
                continue
            slices.append(Cap(i + 2, (q & 1) * 2 - 1))
            wires[i + 1 : i + 1] = [q, q ^ 1]
            return True
        return False

    # no rule births a crossing-free arc: one with both ends on top needs a
    # -1 marking right before a +1 on one edge, and a refinement built from
    # counts puts one sign on each edge
    for _ in range(4 * (len(succ) // 2 + web.k) + 8):
        if not (close_cup() or draw_crossing() or birth_cap()):
            break
    else:
        raise RuntimeError("the sweep did not settle")
    if placed.count(1) != len(arrows):
        raise RuntimeError("the sweep missed crossings")
    if len(wires) != web.k:
        raise RuntimeError("the sweep left stray strands")
    bottom = tuple(web.signs[j] for j in columns)
    for d, top, direction in zip(wires, tops, bottom):
        if d != top:
            raise RuntimeError("strands surfaced out of order")
        if (d & 1) * 2 - 1 != direction:
            raise RuntimeError("a strand crossed the boundary backwards")
    return SliceWord(bottom, tuple(slices))


def to_sliceword(a: AnnularDiagram) -> SliceWord:
    """The drawing as the stacked slices :func:`reconstruct` swept bottom to top."""
    return a.word


def _half_turns(word: SliceWord) -> int:
    """Rotation number of a drawn word: every turning point is a cap or a
    cup, each worth half a turn with the sign of its left branch."""
    dirs = list(word.bottom)
    acc = 0
    for s in word.slices:
        if isinstance(s, Cap):
            acc -= s.left_direction
        elif isinstance(s, Cup):
            acc -= dirs[s.position - 1]
        if _apply_slice(dirs, s) is not None:
            raise RuntimeError("a drawn word must be valid")
    if acc % 2:
        raise RuntimeError("turning half-units must pair up")
    return acc // 2


def whitney_index(g: DecoratedGaussDiagram) -> int:
    """Rotation number of the picture :func:`reconstruct` draws, read off the
    word stored with it; fails as it does."""
    return _half_turns(_rebuilt(g).word)


# -- moving the section -------------------------------------------------------------


def find_section(word: SliceWord, t: TDiagram):
    """Move the section of a drawn full knot so it crosses the knot only at
    markings kept from ``t``: returns the surviving refinement and the
    crossing sequence (edge, index within the kept edge list, sign) read
    from the left boundary to the right one."""
    reading = _read(word)
    if any(isinstance(s, VirtualCross) for s in word.slices):
        raise InvalidDiagram("the drawing must be real: no virtual crossings")
    drawn = _extraction(word)
    if not is_full(drawn.base):
        raise NotFull("the drawn knot has zero decorations; no section separates it")
    # the word's own extraction is valid by construction; any other t is
    # checked, and compared by canonical text unless it shares that base
    if t is not drawn:
        require_valid(t)
    if t.base is not drawn.base and canonical_serialize(t.base) != canonical_serialize(drawn.base):
        raise InvalidDiagram("the markings refine a different diagram")

    # the knot cuts the annulus into its curve's faces (see the module
    # docstring), and the glued boundary runs from class -1 to class +1
    face, count = _curve_faces(drawn.base)
    if count != drawn.base.n + 2:
        raise RuntimeError("a real drawing's curve must lie on a sphere")
    winding = _winding(face, count, drawn.markings)
    if -1 not in winding:
        raise RuntimeError("a full knot must separate the boundaries")
    start, goal = winding.index(-1), winding.index(1)
    # each edge's first passage (line, column), the least of its pieces'
    # lowest ones; the passages before the first crossing close the last edge
    m = drawn.base.edge_count
    first = [(len(word.slices) + 1, 0)] * m
    e = (-1 - drawn.base._rotation) % m
    for ev in reading.trail:
        if ev[0] == "cross":
            e = (e + 1) % m
        else:
            first[e] = min(first[e], ev[1:3])
    # a simple face path crosses each edge at most once, so any marking of a
    # move's sign pays for it; t's moves out of each face: (face across, edge, sign)
    adj: list[list] = [[] for _ in range(count)]
    for e in sorted(range(m), key=first.__getitem__):
        a, b = face[2 * e], face[2 * e + 1]
        if a == b:
            continue  # crossing it would revisit the face
        if 1 in t.markings[e]:
            adj[b].append((a, e, 1))
        if -1 in t.markings[e]:
            adj[a].append((b, e, -1))
    # breadth-first, keeping the first way into each face: the path to the
    # goal is the first in passage order among the fewest crossings
    came: dict = {start: None}
    queue = [start]
    for at in queue:
        for to, e, s in adj[at]:
            if to not in came:
                came[to] = (at, e, s)
                queue.append(to)
        if goal in came:
            break
    else:
        raise RuntimeError("no transverse path found; the drawing should admit one")
    seq = []
    at = goal
    while came[at] is not None:
        at, e, s = came[at]
        seq.append((e, 0, s))
    seq.reverse()
    kept = {e: (s,) for e, _, s in seq}
    marks = tuple(kept.get(e, ()) for e in range(t.base.edge_count))
    return TDiagram(t.base, marks), tuple(seq)


# -- SVG ----------------------------------------------------------------------------


_WIDTH_STEP = {Cap: 2, Cup: -2}  # strands a level adds


def render_svg(a: AnnularDiagram) -> str:
    """A fixed-layout picture of the rebuilt diagram: levels run left to
    right, the section is the dashed vertical line on either side, under
    strands are drawn broken."""
    word = a.word
    lcount = max(len(word.slices), 1)
    unit = 36.0
    margin = 24.0
    # the widest level: a cap adds two strands, a cup takes two away
    cols = max(accumulate(map(_WIDTH_STEP.get, map(type, word.slices), repeat(0)),
                          initial=len(word.bottom)))
    width = margin * 2 + lcount * unit
    height = margin * 2 + (cols + 1) * unit
    # level l at x[l], column c at y[c], and their text
    x = [margin + l * unit for l in range(lcount + 1)]
    y = [margin + (cols + 1 - c) * unit for c in range(cols + 2)]
    xt = [f"{v:.1f}" for v in x]
    yt = [f"{v:.1f}" for v in y]

    def seg(l: int, c1: int, c2: int, broken: bool = False) -> str:
        """Level l's strand from column c1 to column c2 at level l + 1."""
        if not broken:
            return f'<path d="M {xt[l]} {yt[c1]} L {xt[l + 1]} {yt[c2]}"/>'
        dx, dy = x[l + 1] - x[l], y[c2] - y[c1]
        return (
            f'<path d="M {xt[l]} {yt[c1]} L {x[l] + 0.38 * dx:.1f} {y[c1] + 0.38 * dy:.1f}"/>\n'
            f'<path d="M {x[l] + 0.62 * dx:.1f} {y[c1] + 0.62 * dy:.1f} L {xt[l + 1]} {yt[c2]}"/>'
        )

    body: list[str] = []
    if not word.slices:
        body += [seg(0, c, c) for c in range(1, len(word.bottom) + 1)]
    dirs = list(word.bottom)  # the strand directions, carried up level by level
    for i, s in enumerate(word.slices):
        below, p = len(dirs), s.position
        if (problem := _apply_slice(dirs, s)) is not None:
            raise InvalidDiagram(f"level {i + 1}: {problem}")
        if isinstance(s, RealCross):
            body += [seg(i, c, c) for c in range(1, below + 1) if c not in (p, p + 1)]
            rising_over = s.sign == dirs[p - 1] * dirs[p]  # the swap keeps the product
            body += [
                '<g class="crossing">',
                seg(i, p, p + 1, broken=not rising_over),
                seg(i, p + 1, p, broken=rising_over),
                "</g>",
            ]
        elif isinstance(s, Cap):
            body += [seg(i, c, c if c < p else c + 2) for c in range(1, below + 1)]
            bend = f"{x[i] + 0.1 * unit:.1f}"
            body.append(
                f'<path d="M {xt[i + 1]} {yt[p]} C {bend} {yt[p]} '
                f'{bend} {yt[p + 1]} {xt[i + 1]} {yt[p + 1]}"/>'
            )
        else:
            body += [seg(i, c, c) for c in range(1, p)]
            body += [seg(i, c, c - 2) for c in range(p + 2, below + 1)]
            bend = f"{x[i + 1] - 0.1 * unit:.1f}"
            body.append(
                f'<path d="M {xt[i]} {yt[p]} C {bend} {yt[p]} '
                f'{bend} {yt[p + 1]} {xt[i]} {yt[p + 1]}"/>'
            )
    top = f"{margin * 0.5:.1f}"
    bot = f"{height - margin * 0.5:.1f}"
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
            f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
            '<g fill="none" stroke="black" stroke-width="2">',
            f'<line x1="{xt[0]}" y1="{top}" x2="{xt[0]}" '
            f'y2="{bot}" stroke-dasharray="6 4" class="section"/>',
            f'<line x1="{xt[lcount]}" y1="{top}" x2="{xt[lcount]}" '
            f'y2="{bot}" stroke-dasharray="6 4" class="section"/>',
            *body,
            "</g>",
            "</svg>",
        ]
    )
