"""Rebuilding honest annular pictures from decorated data.

A decorated Gauss diagram whose decorations are not all zero can sometimes be
drawn as a real (virtual-free) knot diagram in the annulus.  The route taken
here: pick the cheapest refinement, cut the knot open at its markings, glue
the cut ends back together, and read the picture off the faces of the glued
map; the signs and H/T ends fix the rotation at every crossing, so this map is
the curve's Carter surface (Carter, *Proc. AMS* 111, 1991; Kamada & Kamada,
*JKTR* 9, 2000).

The criterion.  With n crossings and k markings, a real picture exists
exactly when the glued map has n + 2 faces and the face classes are
{+1, -1, 0 x n}.  Cut j has face A on the side of ``end_dart(j, 0)`` and face
B on the side of ``end_dart(j - 1, 1)``; its dual edge runs B -> A for a +1
marking and A -> B for a -1 marking, and a face's class is its in-degree
minus its out-degree.  The columns, left to right, are the cuts met by the
dual path from the class -1 face to the class +1 face.  Why this is sound:

1. Gluing restores the curve, so n + 2 faces means genus 0: the map lies on
   a sphere.
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

Either failed condition raises :class:`NotRealRealizable` with its reason;
both can be re-checked from the face map alone.

Darts are triples ``(arc, segment, side)``; side 1 sits at the segment's end
in knot order.  Vertices are crossings ``("x", id)`` and loose ends
``("end", arc, side)``; gluing joins the two ends cut at each marking.
"""
from __future__ import annotations

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
    _extraction,
    _read,
    _Reading,
    direction_levels,
)

Dart = tuple[int, int, int]


def _alpha(d: Dart) -> Dart:
    return (d[0], d[1], 1 - d[2])


class _Web:
    """A refinement cut open at its markings: arcs of the knot between
    consecutive markings, each a chain of segments through its crossings."""

    def __init__(self, t: TDiagram):
        base = t.base
        signs: list[int] = []
        arcs: list[list[int]] = []
        lead: list[int] = []  # the tokens before the first marking close the last arc
        for e, row in enumerate(t.markings):
            if base.n:
                (arcs[-1] if arcs else lead).append(e)
            for s in row:
                signs.append(s)
                arcs.append([])
        if not arcs:
            # a full diagram has a nonzero valuation, so its counts are nonzero
            raise RuntimeError("a minimal refinement of a full diagram has no markings")
        arcs[-1] += lead
        self.t = t
        self.base = base
        self.k = k = len(arcs)
        self.signs = signs
        self.segs = [len(a) + 1 for a in arcs]

        at: dict[int, tuple[int, int]] = {}
        for a, toks in enumerate(arcs):
            for i, p in enumerate(toks):
                at[p] = (a, i)

        vertex_of: dict[Dart, tuple] = {}
        # ends first, then crossings by id: the order ComponentMap lists them in
        rotation: dict[tuple, tuple[Dart, ...]] = {}
        for a in range(k):
            vertex_of[(a, 0, 0)] = ("end", a, 0)
            vertex_of[(a, self.segs[a] - 1, 1)] = ("end", a, 1)
            rotation[("end", a, 0)] = ((a, 0, 0),)
            rotation[("end", a, 1)] = ((a, self.segs[a] - 1, 1),)
        self.over: set[Dart] = set()
        for arrow in base.arrows:
            h, tl = base.positions[arrow.id]
            ah, ih = at[h]
            at_, it_ = at[tl]
            oi, oo = (ah, ih, 1), (ah, ih + 1, 0)
            ui, uo = (at_, it_, 1), (at_, it_ + 1, 0)
            v = ("x", arrow.id)
            for d in (oi, oo, ui, uo):
                vertex_of[d] = v
            # counterclockwise around the crossing, over strand entering first
            rotation[v] = (oi, ui, oo, uo) if arrow.sign == 1 else (oi, uo, oo, ui)
            self.over.update((oi, oo))
        self.vertex_of = vertex_of
        self.rotation = rotation
        succ: dict[Dart, Dart] = {}
        for ring in rotation.values():
            for i, d in enumerate(ring):
                succ[d] = ring[(i + 1) % len(ring)]
        self.succ = succ

    def end_is_bottom(self, a: int, side: int) -> bool:
        if side == 0:
            return self.signs[a] == 1
        return self.signs[(a + 1) % self.k] == -1

    def end_dart(self, a: int, side: int) -> Dart:
        return (a, 0, 0) if side == 0 else (a, self.segs[a] - 1, 1)


def _faces(succ: dict[Dart, Dart]) -> tuple[dict[Dart, int], int]:
    """The face number of every dart, faces being the orbits of dart ->
    rotation successor of its reverse, and the number of faces."""
    face_of: dict[Dart, int] = {}
    count = 0
    for d0 in succ:
        if d0 in face_of:
            continue
        d = d0
        while d not in face_of:
            face_of[d] = count
            d = succ[_alpha(d)]
        count += 1
    return face_of, count


def _columns(web: _Web) -> tuple[int, ...]:
    """Glue the mated ends back and read the markings in the order the
    section's dual path crosses them, or say why the glued surface is no
    annulus with the right windings (see the module docstring)."""
    k = web.k
    succ = dict(web.succ)  # a loose end is its own successor until glued
    for j in range(k):
        before, after = web.end_dart((j - 1) % k, 1), web.end_dart(j, 0)
        succ[before], succ[after] = after, before
    face_of, count = _faces(succ)
    if count != web.base.n + 2:
        raise NotRealRealizable("the glued surface is not an annulus")
    winding = [0] * count  # in-degree minus out-degree in the dual graph
    leaving: dict[int, tuple[int, int]] = {}  # face -> (cut, face across it)
    for j in range(k):
        a, b = face_of[web.end_dart(j, 0)], face_of[web.end_dart((j - 1) % k, 1)]
        tail, head = (b, a) if web.signs[j] == 1 else (a, b)
        winding[head] += 1
        winding[tail] -= 1
        leaving[tail] = (j, head)
    if sorted(winding) != [-1] + [0] * web.base.n + [1]:
        raise NotRealRealizable("the glued faces wind wrongly around the annulus")
    at, goal = winding.index(-1), winding.index(1)
    columns: list[int] = []
    while at != goal and len(columns) < k:
        j, at = leaving[at]
        columns.append(j)
    if at != goal or len(set(columns)) != k:
        raise RuntimeError("a dual cycle off the section's path: the refinement is not minimal")
    return tuple(columns)


def _dart_label(d: Dart) -> str:
    return f"a{d[0]}s{d[1]}.{d[2]}"


def _vertex_label(v: tuple) -> str:
    return f"x{v[1]}" if v[0] == "x" else f"end{v[1]}.{v[2]}"


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
    """A real diagram of the annulus: its one tangle piece plus, per boundary
    column, the marking whose cut point sits there, and the slice word swept
    from them once, at construction."""

    refinement: TDiagram
    components: tuple[ComponentMap, ...]
    column_markings: tuple[int, ...]
    word: SliceWord


def _component_map(web: _Web, columns: tuple[int, ...]) -> ComponentMap:
    return ComponentMap(
        arcs=tuple(range(web.k)),
        crossings=tuple(a.id for a in web.base.arrows),
        rotation=tuple(
            (_vertex_label(v), tuple(_dart_label(d) for d in ring))
            for v, ring in web.rotation.items()
        ),
        bottoms=tuple(_vertex_label(("end", *_bottom_end(web, j))) for j in columns),
        tops=tuple(_vertex_label(("end", *_top_end(web, j))) for j in columns),
    )


def reconstruct(g: DecoratedGaussDiagram) -> AnnularDiagram:
    """The canonical real annular diagram of a full decorated Gauss diagram,
    built over its cheapest refinement; raises :class:`NotFull` or
    :class:`NotRealRealizable` when no such picture exists.  The picture, or
    the failure, is found once and stored on ``g``."""
    return _rebuilt(g)


@_stored("_realized", (NotFull, NotRealRealizable))
def _rebuilt(g: DecoratedGaussDiagram) -> AnnularDiagram:
    """Cut the cheapest refinement open, decide on the glued surface alone
    whether it draws in the annulus, read its columns off the section's dual
    path, and sweep the picture once."""
    if not is_full(g):
        raise NotFull("only a diagram with nonzero decorations rebuilds to a real picture")
    web = _Web(minimal_refinement(g))
    columns = _columns(web)
    return AnnularDiagram(
        refinement=web.t,
        components=(_component_map(web, columns),),
        column_markings=columns,
        word=_sweep(web, columns),
    )


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


class _Wire:
    """A strand being drawn: the edge it is on, the dart at the vertex it is
    heading for, and the knot direction (+1 along the sweep)."""

    __slots__ = ("edge", "target", "direction")

    def __init__(self, edge: tuple[int, int], target: Dart, direction: int):
        self.edge = edge
        self.target = target
        self.direction = direction


def _push(web: _Web, exit_dart: Dart) -> _Wire:
    d = _alpha(exit_dart)
    return _Wire((exit_dart[0], exit_dart[1]), d, 1 if d[2] == 1 else -1)


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


def _targets_unplaced(web: _Web, w: _Wire, placed: set) -> bool:
    v = web.vertex_of[w.target]
    return v[0] == "x" and v not in placed


def _is_finished(web: _Web, w: _Wire) -> bool:
    v = web.vertex_of[w.target]
    return v[0] == "end" and not web.end_is_bottom(v[1], v[2])


def _close_cup(web, wires, slices, placed) -> bool:
    for i in range(len(wires) - 1):
        w1, w2 = wires[i], wires[i + 1]
        if w1.edge != w2.edge:
            continue
        if _targets_unplaced(web, w1, placed) or _targets_unplaced(web, w2, placed):
            continue  # a freshly capped pair has not met anything yet
        if _is_finished(web, w1) or _is_finished(web, w2):
            continue  # both halves already surfaced; nothing meets
        if w1.direction != -w2.direction:
            raise RuntimeError("cup halves run the same way")
        slices.append(Cup(i + 1))
        del wires[i : i + 2]
        return True
    return False


def _draw_crossing(web, wires, slices, placed) -> bool:
    for i in range(len(wires) - 1):
        w1, w2 = wires[i], wires[i + 1]
        v = web.vertex_of[w1.target]
        if v[0] != "x" or v in placed or web.vertex_of[w2.target] != v:
            continue
        if web.succ[w1.target] != w2.target:
            continue
        da, db = w1.direction, w2.direction
        sign = da * db if w1.target in web.over else -da * db
        if sign != web.base.arrow_map[v[1]].sign:
            raise RuntimeError("drawn sign disagrees")
        slices.append(RealCross(i + 1, sign))
        exit_r = web.succ[w2.target]
        exit_l = web.succ[exit_r]
        nl, nr = _push(web, exit_l), _push(web, exit_r)
        if (nl.direction, nr.direction) != (db, da):
            raise RuntimeError("strand flow broke")
        wires[i : i + 2] = [nl, nr]
        placed.add(v)
        return True
    return False


def _birth_cap(web, wires, slices, placed) -> bool:
    for i, w in enumerate(wires):
        v = web.vertex_of[w.target]
        if v[0] != "x" or v in placed:
            continue
        q = web.succ[w.target]
        if any(x.edge == (q[0], q[1]) for x in wires):
            continue
        rd = 1 if q[2] == 1 else -1
        riser = _Wire((q[0], q[1]), q, rd)
        far = _Wire((q[0], q[1]), _alpha(q), -rd)
        slices.append(Cap(i + 2, rd))
        wires[i + 1 : i + 1] = [riser, far]
        return True
    return False


def _sweep(web: _Web, columns: tuple[int, ...]) -> SliceWord:
    """Draw the picture as stacked slices, sweeping bottom to top; the knot
    meets the glued boundary exactly at the chosen columns."""
    k = web.k
    tops = [_top_end(web, m) for m in columns]
    wires = [_push(web, web.end_dart(*_bottom_end(web, m))) for m in columns]
    slices: list = []
    placed: set = set()
    # no rule births a crossing-free arc: one with both ends on top needs a
    # -1 marking right before a +1 on one edge, and a refinement built from
    # counts puts one sign on each edge
    for _ in range(4 * (sum(web.segs) + k) + 8):
        if not (
            _close_cup(web, wires, slices, placed)
            or _draw_crossing(web, wires, slices, placed)
            or _birth_cap(web, wires, slices, placed)
        ):
            break
    else:
        raise RuntimeError("the sweep did not settle")
    if len(placed) != web.base.n:
        raise RuntimeError("the sweep missed crossings")
    if len(wires) != k:
        raise RuntimeError("the sweep left stray strands")
    bottom = tuple(web.signs[m] for m in columns)
    for c, w in enumerate(wires):
        v = web.vertex_of[w.target]
        if v[0] != "end" or (v[1], v[2]) != tops[c]:
            raise RuntimeError("strands surfaced out of order")
        if w.direction != bottom[c]:
            raise RuntimeError("a strand crossed the boundary backwards")
    return SliceWord(bottom, tuple(slices))


def to_sliceword(a: AnnularDiagram) -> SliceWord:
    """The drawing as the stacked slices :func:`reconstruct` swept bottom to top."""
    return a.word


def _half_turns(word: SliceWord) -> int:
    """Rotation number of a drawn word: every turning point is a cap or a
    cup, each worth half a turn with the sign of its left branch."""
    levels = direction_levels(word)
    acc = 0
    for i, s in enumerate(word.slices):
        if isinstance(s, Cap):
            acc -= s.left_direction
        elif isinstance(s, Cup):
            acc -= levels[i][s.position - 1]
    if acc % 2:
        raise RuntimeError("turning half-units must pair up")
    return acc // 2


def whitney_index(g: DecoratedGaussDiagram) -> int:
    """Rotation number of the picture :func:`reconstruct` draws, read off the
    word stored with it; fails as it does."""
    return _half_turns(_rebuilt(g).word)


# -- moving the section -------------------------------------------------------------


def _passage_table(reading: _Reading, drawn: DecoratedGaussDiagram):
    """Where the drawn knot pierces each horizontal line, keyed by
    (line, column): the edge, the rank along that edge in knot order, and
    the strand direction.  Edges are those of ``drawn``, the diagram read
    off the same walk."""
    m = 2 * len(reading.arrows)
    trail = reading.trail
    # from the first crossing on, the passages before it close the last edge
    first = next((i for i, ev in enumerate(trail) if ev[0] == "cross"), 0)
    table: dict[tuple[int, int], tuple[int, int, int]] = {}
    counter: dict[int, int] = {}
    seen = 0
    for ev in trail[first:] + trail[:first]:
        if ev[0] == "cross":
            seen += 1
            continue
        _, l, c, d = ev
        e = (seen - 1 - drawn._rotation) % m if m else 0
        r = counter.get(e, 0)
        counter[e] = r + 1
        table[(l, c)] = (e, r, d)
    return table


def _classes(items, links) -> dict:
    """Union-find: the class representative of every item once the linked
    pairs are joined."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in parent}


def _region_classes(word: SliceWord, levels) -> dict[tuple[int, int], tuple[int, int]]:
    """Classes of the gaps (line, gap index) between strands; a class is one
    connected piece of the cut-open annulus minus the knot."""
    lc = max(len(word.slices), 1)

    def links():
        for i, s in enumerate(word.slices):
            below = len(levels[i])
            up = (i + 1) % lc
            p = s.position
            if isinstance(s, (RealCross, VirtualCross)):
                for j in range(below + 1):
                    if j != p:  # the crossing pinches the gap between its strands
                        yield (i, j), (up, j)
            elif isinstance(s, Cap):
                for j in range(below + 1):
                    yield (i, j), (up, j if j < p else j + 2)
                yield (i, p - 1), (up, p + 1)  # around the new tip; gap p is fresh
            else:
                for j in range(below + 1):
                    if j < p:
                        yield (i, j), (up, j)
                    elif j >= p + 1:
                        yield (i, j), (up, j - 2)
                    # the gap between the dying strands stops here

    gaps = [(l, j) for l in range(lc) for j in range(len(levels[l]) + 1)]
    return _classes(gaps, links())


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
    require_valid(t)
    # the word's own extraction needs no check; a t built elsewhere is
    # compared by canonical text
    if t.base is not drawn.base and canonical_serialize(t.base) != canonical_serialize(drawn.base):
        raise InvalidDiagram("the markings refine a different diagram")

    levels = reading.levels
    table = _passage_table(reading, drawn.base)
    region = _region_classes(word, levels)
    adj: dict[tuple[int, int], list] = {}
    for (l, c), (e, r, d) in sorted(table.items()):
        left, right = region[(l, c - 1)], region[(l, c)]
        if left == right:
            continue  # crossing it would revisit the region
        adj.setdefault(left, []).append(((l, c, 0), right, (e, r, d)))
        adj.setdefault(right, []).append(((l, c, 1), left, (e, r, -d)))
    for moves in adj.values():
        moves.sort()
    start = region[(0, 0)]
    goal = region[(0, len(levels[0]))]
    if start == goal:
        raise RuntimeError("a full knot must separate the boundaries")

    def match(path):
        """Embed the path's crossings into t's markings, per edge, in knot
        order; None when some edge cannot absorb them."""
        by_edge: dict[int, list[tuple[int, int, int]]] = {}
        for idx, (e, r, s) in enumerate(path):
            by_edge.setdefault(e, []).append((r, s, idx))
        out = [None] * len(path)
        kept: dict[int, list[int]] = {}
        for e, runs in by_edge.items():
            runs.sort()
            marks = t.markings[e]
            slot = 0
            sel = []
            for _, s, _ in runs:
                while slot < len(marks) and marks[slot] != s:
                    slot += 1
                if slot == len(marks):
                    return None, None
                sel.append(slot)
                slot += 1
            kept[e] = sel
            for j, (_, s, idx) in enumerate(runs):
                out[idx] = (e, j, s)
        return kept, out

    dist = {goal: 0}  # crossings to the goal, ignoring simplicity and t
    queue = [goal]
    for at in queue:
        for _, to, _ in adj.get(at, ()):
            if to not in dist:
                dist[to] = dist[at] + 1
                queue.append(to)
    for depth in range(dist.get(start, len(dist)), len(dist)):
        hit = _bounded_search(adj, start, goal, depth, match, dist)
        if hit is not None:
            kept, seq = hit
            marks = tuple(
                tuple(t.markings[e][i] for i in kept.get(e, []))
                for e in range(t.base.edge_count)
            )
            return TDiagram(t.base, marks), tuple(seq)
    raise RuntimeError("no transverse path found; the drawing should admit one")


def _bounded_search(adj, start, goal, depth, match, dist):
    """First feasible simple path with exactly ``depth`` crossings, trying
    moves in a fixed lexicographic order; IDA* (Korf 1985) skips a move whose
    ``dist`` to the goal exceeds the crossings left, which cuts no hit."""

    path: list = []
    visited = {start}

    def go(at, left):
        if at == goal:
            if left == 0:
                kept, seq = match(path)
                if kept is not None:
                    return kept, seq
            return None
        for _, to, rec in adj.get(at, ()):
            if to in visited or dist.get(to, depth) > left - 1:
                continue
            visited.add(to)
            path.append(rec)
            found = go(to, left - 1)
            if found is not None:
                return found
            path.pop()
            visited.discard(to)
        return None

    return go(start, depth)


# -- SVG ----------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.1f}"


def render_svg(a: AnnularDiagram) -> str:
    """A fixed-layout picture of the rebuilt diagram: levels run left to
    right, the section is the dashed vertical line on either side, under
    strands are drawn broken."""
    word = a.word
    levels = direction_levels(word)
    lcount = max(len(word.slices), 1)
    unit = 36.0
    margin = 24.0
    cols = max(len(lv) for lv in levels)
    width = margin * 2 + lcount * unit
    height = margin * 2 + (cols + 1) * unit

    def x(l: float) -> float:
        return margin + l * unit

    def y(c: float) -> float:
        return margin + (cols + 1 - c) * unit

    body: list[str] = []

    def seg(x1, y1, x2, y2, broken=False):
        if not broken:
            return [
                f'<path d="M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"/>'
            ]
        ax, ay = x1 + 0.38 * (x2 - x1), y1 + 0.38 * (y2 - y1)
        bx, by = x1 + 0.62 * (x2 - x1), y1 + 0.62 * (y2 - y1)
        return [
            f'<path d="M {_fmt(x1)} {_fmt(y1)} L {_fmt(ax)} {_fmt(ay)}"/>',
            f'<path d="M {_fmt(bx)} {_fmt(by)} L {_fmt(x2)} {_fmt(y2)}"/>',
        ]

    if not word.slices:
        for c in range(1, len(word.bottom) + 1):
            body += seg(x(0), y(c), x(1), y(c))
    for i, s in enumerate(word.slices):
        below = len(levels[i])
        x1, x2 = x(i), x(i + 1)
        p = s.position
        if isinstance(s, RealCross):
            for c in range(1, below + 1):
                if c not in (p, p + 1):
                    body += seg(x1, y(c), x2, y(c))
            da, db = levels[i][p - 1], levels[i][p]
            rising_over = s.sign == da * db
            glyph = ['<g class="crossing">']
            glyph += seg(x1, y(p), x2, y(p + 1), broken=not rising_over)
            glyph += seg(x1, y(p + 1), x2, y(p), broken=rising_over)
            glyph.append("</g>")
            body += glyph
        elif isinstance(s, Cap):
            for c in range(1, below + 1):
                body += seg(x1, y(c), x2, y(c if c < p else c + 2))
            bend = x1 + 0.1 * unit
            body.append(
                f'<path d="M {_fmt(x2)} {_fmt(y(p))} C {_fmt(bend)} {_fmt(y(p))} '
                f'{_fmt(bend)} {_fmt(y(p + 1))} {_fmt(x2)} {_fmt(y(p + 1))}"/>'
            )
        else:
            for c in range(1, below + 1):
                if c < p:
                    body += seg(x1, y(c), x2, y(c))
                elif c > p + 1:
                    body += seg(x1, y(c), x2, y(c - 2))
            bend = x2 - 0.1 * unit
            body.append(
                f'<path d="M {_fmt(x1)} {_fmt(y(p))} C {_fmt(bend)} {_fmt(y(p))} '
                f'{_fmt(bend)} {_fmt(y(p + 1))} {_fmt(x1)} {_fmt(y(p + 1))}"/>'
            )
    top = margin * 0.5
    bot = height - margin * 0.5
    lines = [
        f'<line x1="{_fmt(x(0))}" y1="{_fmt(top)}" x2="{_fmt(x(0))}" '
        f'y2="{_fmt(bot)}" stroke-dasharray="6 4" class="section"/>',
        f'<line x1="{_fmt(x(lcount))}" y1="{_fmt(top)}" x2="{_fmt(x(lcount))}" '
        f'y2="{_fmt(bot)}" stroke-dasharray="6 4" class="section"/>',
    ]
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
            '<g fill="none" stroke="black" stroke-width="2">',
            *lines,
            *body,
            "</g>",
            "</svg>",
        ]
    )
