"""Slow, independent reference implementations used only by tests."""
from __future__ import annotations

from collections import defaultdict

from torogram.admit import _stuck_certificate, transition_graph
from torogram.diagrams import DecoratedGaussDiagram
from torogram.errors import NoLevels


def simple_cycle_weights(g: DecoratedGaussDiagram) -> list[int]:
    """Weights of every simple directed cycle of the transition graph.

    Exponential DFS; fine for the tiny diagrams tests throw at it.  Every
    closed walk decomposes into simple cycles, so the minimum over these
    settles the admissibility verdict.
    """
    tg = transition_graph(g)
    adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for u, v, w, _ in tg.edges:
        adj[u].append((v, w))
    out: list[int] = []

    def grow(start: int, cur: int, acc: int, visited: frozenset[int]) -> None:
        for v, w in adj[cur]:
            if v == start:
                out.append(acc + w)
            elif v > start and v not in visited:
                grow(start, v, acc + w, visited | {v})

    for s in range(1, tg.vertex_count + 1):
        grow(s, s, 0, frozenset((s,)))
    return out


def brute_admissibility_verdict(g: DecoratedGaussDiagram) -> str:
    if g.n == 0:
        worst = g.circle_valuation
    else:
        worst = min(simple_cycle_weights(g))
    if worst < 0:
        return "not_weakly"
    if worst == 0:
        return "weakly_only"
    return "admissible"


def valuation_matrix(g: DecoratedGaussDiagram) -> list[list[int]]:
    """Rows: one span-sum indicator per arrow (ascending id), then the total."""
    m = 2 * g.n
    rows = []
    for a in g.arrows:
        h, t = g.positions[a.id]
        row = [0] * m
        e = h
        while e != t:
            row[e] = 1
            e = (e + 1) % m
        rows.append(row)
    rows.append([1] * max(m, 1))
    return rows


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _ext_gcd(b, a % b)
    return (g, t, s - (a // b) * t)


def integer_kernel_oracle(g: DecoratedGaussDiagram) -> list[tuple[int, ...]]:
    """Z-basis of the integer kernel of the valuation matrix.

    Unimodular column reduction; the columns that end up zero in the reduced
    matrix are, pulled back through the op tracker, a basis of the kernel.
    """
    rows = valuation_matrix(g)
    n = len(rows[0])
    m = len(rows)
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    track = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    lead = 0
    for r in range(m):
        piv = None
        for j in range(lead, n):
            if cols[j][r] == 0:
                continue
            if piv is None:
                piv = j
                continue
            a, b = cols[piv][r], cols[j][r]
            gg, s, t = _ext_gcd(a, b)
            u, v = a // gg, b // gg
            cp, cj = cols[piv], cols[j]
            cols[piv] = [s * x + t * y for x, y in zip(cp, cj)]
            cols[j] = [-v * x + u * y for x, y in zip(cp, cj)]
            tp, tj = track[piv], track[j]
            track[piv] = [s * x + t * y for x, y in zip(tp, tj)]
            track[j] = [-v * x + u * y for x, y in zip(tp, tj)]
        if piv is not None:
            cols[lead], cols[piv] = cols[piv], cols[lead]
            track[lead], track[piv] = track[piv], track[lead]
            lead += 1
    return [tuple(track[j]) for j in range(lead, n)]


def row_hnf(vectors, dim: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row form of the lattice spanned by the vectors.

    Two generating sets span the same lattice exactly when these agree.
    """
    rows = [list(v) for v in vectors]
    fixed = 0
    for c in range(dim):
        piv = None
        for i in range(fixed, len(rows)):
            if rows[i][c] == 0:
                continue
            if piv is None:
                piv = i
                continue
            a, b = rows[piv][c], rows[i][c]
            gg, s, t = _ext_gcd(a, b)
            u, v = a // gg, b // gg
            rp, ri = rows[piv], rows[i]
            rows[piv] = [s * x + t * y for x, y in zip(rp, ri)]
            rows[i] = [-v * x + u * y for x, y in zip(rp, ri)]
        if piv is None:
            continue
        rows[fixed], rows[piv] = rows[piv], rows[fixed]
        if rows[fixed][c] < 0:
            rows[fixed] = [-x for x in rows[fixed]]
        g = rows[fixed][c]
        for i in range(fixed):
            q = rows[i][c] // g
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[fixed])]
        fixed += 1
    return tuple(tuple(r) for r in rows[:fixed])


def brute_minimal_counts(g: DecoratedGaussDiagram) -> tuple[int, ...]:
    """Exhaustive minimum-size count vector, smallest-cost then lexicographic."""
    import itertools

    w = g.circle_valuation
    if g.n == 0:
        return (w,)
    m = 2 * g.n
    pairs = []
    for a in g.arrows:
        h, t = g.positions[a.id]
        delta = a.valuation if h < t else a.valuation - w
        pairs.append((h, t, delta) if h < t else (t, h, -delta))
    pairs.sort()
    ref_cost = sum(abs(x) for x in g.reference_counts)
    box = (ref_cost + abs(w)) // 2
    best = None
    free = pairs[1:]
    for combo in itertools.product(range(-box, box + 1), repeat=len(free)):
        prefix = [None] * (m + 1)
        prefix[0], prefix[m] = 0, w
        prefix[pairs[0][1]] = pairs[0][2]
        ok = True
        for (p, q, d), s in zip(free, combo):
            if abs(s + d) > box:
                ok = False
                break
            prefix[p], prefix[q] = s, s + d
        if not ok:
            continue
        x = tuple(prefix[r + 1] - prefix[r] for r in range(m))
        cand = (sum(abs(v) for v in x), x)
        if best is None or cand < best:
            best = cand
    return best[1]


def brute_nonnegative_counts(g: DecoratedGaussDiagram) -> tuple[int, ...] | None:
    """Exhaustive lexicographically least nonnegative count vector, if any.

    Nonnegative counts sum to the circle valuation w, so every prefix value
    lies in [0, w]: enumerate the free prefix values in that box.
    """
    import itertools

    w = g.circle_valuation
    if g.n == 0:
        return (w,) if w >= 0 else None
    m = 2 * g.n
    pairs = []
    for a in g.arrows:
        h, t = g.positions[a.id]
        delta = a.valuation if h < t else a.valuation - w
        pairs.append((h, t, delta) if h < t else (t, h, -delta))
    pairs.sort()
    best = None
    for combo in itertools.product(range(0, w + 1), repeat=len(pairs) - 1):
        prefix = [0] * (m + 1)
        prefix[m] = w
        prefix[pairs[0][1]] = pairs[0][2]
        for (p, q, d), s in zip(pairs[1:], combo):
            prefix[p], prefix[q] = s, s + d
        x = tuple(prefix[r + 1] - prefix[r] for r in range(m))
        if min(x) >= 0 and (best is None or x < best):
            best = x
    return best


def turning_number(word) -> int:
    """Total rotation of the drawn closed curve, read straight off the grid.

    Follows the strand through the picture collecting polyline corners (cups
    and caps become two right-angle corners each), then sums exterior angles
    with atan2.  No half-turn bookkeeping: pure geometry, so it cross-checks
    the library's cap/cup formula.
    """
    import math

    from torogram.slices import Cap, Cup, RealCross, VirtualCross, direction_levels

    levels = direction_levels(word)
    m = len(word.slices)
    assert word.bottom, "the oracle starts on a boundary strand"
    if m == 0:
        return 0
    start = (0, 1, word.bottom[0])
    pts: list[tuple[float, float]] = []
    y = 0.0
    state = start
    for _ in range(8 * sum(len(lv) for lv in levels) + 8):
        g, c, d = state
        pts.append((float(c), y))
        if d == 1:
            s = word.slices[g]
            p = s.position
            if isinstance(s, (RealCross, VirtualCross)) and c in (p, p + 1):
                nxt = (g + 1, p + 1 if c == p else p, 1)
            elif isinstance(s, Cap):
                nxt = (g + 1, c if c < p else c + 2, 1)
            elif isinstance(s, Cup) and c in (p, p + 1):
                state = (g, p + 1 if c == p else p, -1)
                if state == start:
                    break
                continue
            elif isinstance(s, Cup):
                nxt = (g + 1, c if c < p else c - 2, 1)
            else:
                nxt = (g + 1, c, 1)
            y += 1.0
            state = (0, nxt[1], 1) if nxt[0] == m else nxt
        else:
            s = word.slices[(g - 1) % m]
            p = s.position
            if isinstance(s, (RealCross, VirtualCross)) and c in (p, p + 1):
                nxt = ((g - 1) % m, p + 1 if c == p else p, -1)
            elif isinstance(s, Cup):
                nxt = ((g - 1) % m, c if c < p else c + 2, -1)
            elif isinstance(s, Cap) and c in (p, p + 1):
                state = (g, p + 1 if c == p else p, 1)
                if state == start:
                    break
                continue
            elif isinstance(s, Cap):
                nxt = ((g - 1) % m, c if c < p else c - 2, -1)
            else:
                nxt = ((g - 1) % m, c, -1)
            y -= 1.0
            state = nxt
        if state == start:
            break
    else:
        raise AssertionError("the oracle walk never closed up")
    shift = y
    vecs = []
    for i in range(len(pts) - 1):
        vecs.append((pts[i + 1][0] - pts[i][0], pts[i + 1][1] - pts[i][1]))
    vecs.append((pts[0][0] - pts[-1][0], pts[0][1] + shift - pts[-1][1]))
    total = 0.0
    for i in range(len(vecs)):
        ax, ay = vecs[i]
        bx, by = vecs[(i + 1) % len(vecs)]
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    turns = total / (2 * math.pi)
    assert abs(turns - round(turns)) < 1e-6, "turning did not come out whole"
    return round(turns)


def brute_curve_count(word) -> int:
    """Closed curves drawn by a slice word whose levels are legal and close up.

    Union-find over the strand pieces (gap, column): pieces meet through every
    level, a cap joins its two new pieces, a cup its two dying ones, and the
    top gap is glued to the bottom column by column.
    """
    from torogram.slices import Cap, Cup, direction_levels

    levels = direction_levels(word)
    parent = {(g, c): (g, c) for g, lv in enumerate(levels) for c in range(1, len(lv) + 1)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for i, s in enumerate(word.slices):
        p = s.position
        for c in range(1, len(levels[i]) + 1):
            if isinstance(s, Cap):
                union((i, c), (i + 1, c if c < p else c + 2))
            elif isinstance(s, Cup):
                if c < p or c > p + 1:
                    union((i, c), (i + 1, c if c < p else c - 2))
            else:
                union((i, c), (i + 1, p + 1 if c == p else p if c == p + 1 else c))
        if isinstance(s, Cap):
            union((i + 1, p), (i + 1, p + 1))
        elif isinstance(s, Cup):
            union((i, p), (i, p + 1))
    for c in range(1, len(word.bottom) + 1):
        union((len(word.slices), c), (0, c))
    return len({find(x) for x in parent})


def _brute_step(word, levels, g: int, c: int, d: int):
    """The passage after (g, c, d), and the real crossing met on the way as
    (level, over) or None: the step rule ``slices._survey`` inlines, one
    call per passage."""
    from torogram.slices import Cap, Cup, RealCross, VirtualCross

    m = len(word.slices)
    if not m:  # every strand runs once round the annulus and closes on itself
        return (g, c, d), None
    i = g if d == 1 else (g - 1) % m
    s = word.slices[i]
    p = s.position
    ahead = (g + d) % m
    if c < p:
        return (ahead, c, d), None
    if isinstance(s, (RealCross, VirtualCross)):
        if c > p + 1:
            return (ahead, c, d), None
        other = 2 * p + 1 - c
        if isinstance(s, VirtualCross):
            return (ahead, other, d), None
        rising_left_over = s.sign == levels[i][p - 1] * levels[i][p]
        # the strand rose from column p when it sits there below the level
        return (ahead, other, d), (i, rising_left_over == ((c if d == 1 else other) == p))
    if isinstance(s, Cap if d == 1 else Cup):
        return (ahead, c + 2, d), None
    if c <= p + 1:
        return (g, 2 * p + 1 - c, -d), None
    return (ahead, c - 2, d), None


def brute_survey(word):
    """``slices._survey`` by the step rule: every curve walked from a set of
    (gap, column, direction) states, one call per passage, and every trail
    kept.  Returns (report, first trail, curve count)."""
    from torogram.slices import SliceReport, _apply_slice, _dir_text

    dirs, levels, problem = list(word.bottom), [word.bottom], None
    for i, s in enumerate(word.slices):
        problem = _apply_slice(dirs, s)
        if problem is not None:
            problem = f"level {i + 1}: {problem}"
            break
        levels.append(tuple(dirs))
    if problem is None and levels[-1] != word.bottom:
        problem = (
            f"top boundary {_dir_text(levels[-1])!r} does not close up with "
            f"bottom {_dir_text(word.bottom)!r}"
        )
    if problem is not None:
        return SliceReport(False, (problem,)), [], 0
    seen: set = set()
    curves = []
    for g in range(max(len(word.slices), 1)):  # the top gap is gap 0
        for c, d in enumerate(levels[g], start=1):
            state, trail = (g, c, d), []
            while state not in seen:
                seen.add(state)
                trail.append(("line", *state))
                state, hit = _brute_step(word, levels, *state)
                if hit is not None:
                    trail.append(("cross", *hit))
            if trail:
                curves.append(trail)
    if len(curves) == 1:
        return SliceReport(True, ()), curves[0], 1
    problem = (
        f"{len(curves)} closed curves, need exactly one" if curves else "the word draws nothing"
    )
    return SliceReport(False, (problem,)), curves[0] if curves else [], len(curves)


def _rotation_key(tokens, arrows, shift: int):
    """Comparison key of one rotation, insensitive to arrow relabeling: token
    kinds with arrows numbered by first appearance, then signs, then
    valuations in that order."""
    m = len(tokens)
    relabel: dict[int, int] = {}
    codes = []
    for i in range(m):
        tok = tokens[(i + shift) % m]
        fresh = relabel.setdefault(tok.arrow, len(relabel) + 1)
        codes.append((0 if tok.kind == "H" else 1, fresh))
    by_first_seen = sorted(relabel, key=relabel.__getitem__)
    signs = tuple(arrows[a].sign for a in by_first_seen)
    vals = tuple(arrows[a].valuation for a in by_first_seen)
    return (tuple(codes), signs, vals)


def brute_least_rotations(tokens, arrows) -> tuple[int, ...]:
    """Every rotation keyed in full, O(n*m): the reference for
    ``diagrams._least_rotations``.  A least key starts ``(H, 1)``."""
    if not tokens:
        return (0,)
    best_key = None
    ties: list[int] = []
    for r, tok in enumerate(tokens):
        if tok.kind != "H":
            continue
        key = _rotation_key(tokens, arrows, r)
        if best_key is None or key < best_key:
            best_key, ties = key, [r]
        elif key == best_key:
            ties.append(r)
    return tuple(ties)


def brute_least_rotation(seq) -> int:
    """Every rotation listed in full, O(len^2): the reference for
    ``diagrams._least_rotation``.  The first start wins a tie."""
    best = 0
    for r in range(1, len(seq)):
        if seq[r:] + seq[:r] < seq[best:] + seq[:best]:
            best = r
    return best


def brute_level_decomposition(t) -> dict[int, int]:
    """Round-by-round peel that rescans every live token each round, O(n*m):
    the reference for ``admit.level_decomposition`` (the positivity check is
    left to the caller).  Raises the same ``NoLevels`` certificate."""
    g = t.base
    n = g.n
    if n == 0:
        return {}
    m = 2 * n
    has_marks = [bool(t.markings[e]) for e in range(m)]
    if not any(has_marks):
        raise NoLevels(g.circle_loop())  # nothing anchors; the circle avoids every marking
    alive = [True] * m
    levels: dict[int, int] = {}
    remaining = set(g.arrow_map)
    level = 0
    while remaining:
        level += 1
        alive_pos = [i for i in range(m) if alive[i]]
        anchored: dict[int, bool] = {}
        for idx, p in enumerate(alive_pos):
            e = alive_pos[idx - 1]  # previous alive token, cyclically
            found = False
            while e != p:
                if has_marks[e]:
                    found = True
                    break
                e = (e + 1) % m
            anchored[p] = found
        peeled = [
            k for k in sorted(remaining)
            if anchored[g.positions[k][0]] and anchored[g.positions[k][1]]
        ]
        if not peeled:
            anchored_at = [anchored.get(p, False) for p in range(m)]
            raise NoLevels(_stuck_certificate(g, alive_pos, anchored_at))
        for k in peeled:
            levels[k] = level
            remaining.discard(k)
            h, tl = g.positions[k]
            alive[h] = alive[tl] = False
    return levels


def brute_zero_cycle(g: DecoratedGaussDiagram) -> bool:
    """Whether the transition graph has a cycle of weight exactly 0, by the
    rule ``check_admissible`` used before it tested tight edges: Bellman-Ford
    under (E+1)*w - 1, which makes exactly the zero cycles negative once no
    cycle is negative.  Only meaningful on weakly admissible diagrams."""
    tg = transition_graph(g)
    scale = len(tg.edges) + 1
    dist = [0] * (tg.vertex_count + 1)
    for _ in range(tg.vertex_count + 1):
        relaxed = False
        for u, v, w, _ in tg.edges:
            if dist[u] + scale * w - 1 < dist[v]:
                dist[v] = dist[u] + scale * w - 1
                relaxed = True
        if not relaxed:
            return False
    return True


def _passage_table(word, drawn):
    """Where the drawn knot pierces each horizontal line, keyed by (line,
    column): the edge of ``drawn``, the rank along that edge in knot order,
    and the strand direction, read off the full passage trail of
    :func:`brute_survey`."""
    m = 2 * drawn.n
    trail = brute_survey(word)[1]
    # from the first crossing on, the passages before it close the last edge
    first = next((i for i, ev in enumerate(trail) if ev[0] == "cross"), 0)
    table = {}
    counter = defaultdict(int)
    seen = 0
    for ev in trail[first:] + trail[:first]:
        if ev[0] == "cross":
            seen += 1
            continue
        _, l, c, d = ev
        e = (seen - 1 - drawn._rotation) % m if m else 0
        table[(l, c)] = (e, counter[e], d)
        counter[e] += 1
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


def _region_classes(word, levels) -> dict:
    """Classes of the gaps (line, gap index) between strands; a class is one
    connected piece of the cut-open annulus minus the knot."""
    from torogram.slices import Cap, RealCross, VirtualCross

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


def brute_section(word, t):
    """``rebuild.find_section`` by plain iterative deepening: every depth from
    1, every simple region path in move order, no distance bound.  Exponential
    in the number of strands; the reference for the breadth-first search."""
    from torogram.diagrams import TDiagram
    from torogram.slices import extract_tdiagram, direction_levels

    levels = direction_levels(word)
    table = _passage_table(word, extract_tdiagram(word).base)
    region = _region_classes(word, levels)
    adj: dict = defaultdict(list)
    for (l, c), (e, r, d) in sorted(table.items()):
        left, right = region[(l, c - 1)], region[(l, c)]
        if left != right:
            adj[left].append(((l, c, 0), right, (e, r, d)))
            adj[right].append(((l, c, 1), left, (e, r, -d)))
    for moves in adj.values():
        moves.sort()
    start, goal = region[(0, 0)], region[(0, len(levels[0]))]

    def embed(path):
        """Per edge, the path's crossings in knot order matched greedily to
        t's markings of the same sign, or None."""
        by_edge = defaultdict(list)
        for idx, (e, r, s) in enumerate(path):
            by_edge[e].append((r, s, idx))
        kept: dict[int, list[int]] = {}
        seq: list = [None] * len(path)
        for e, runs in by_edge.items():
            slot, kept[e] = 0, []
            for j, (_, s, idx) in enumerate(sorted(runs)):
                while slot < len(t.markings[e]) and t.markings[e][slot] != s:
                    slot += 1
                if slot == len(t.markings[e]):
                    return None
                kept[e].append(slot)
                seq[idx] = (e, j, s)
                slot += 1
        return kept, seq

    def paths(at, left, visited, path):
        if at == goal:
            if left == 0:
                yield path
            return
        if left == 0:
            return
        for _, to, rec in adj[at]:
            if to not in visited:
                yield from paths(to, left - 1, visited | {to}, path + [rec])

    for depth in range(1, len(set(region.values()))):
        for path in paths(start, depth, frozenset((start,)), []):
            hit = embed(path)
            if hit is not None:
                kept, seq = hit
                marks = tuple(
                    tuple(t.markings[e][i] for i in kept.get(e, []))
                    for e in range(t.base.edge_count)
                )
                return TDiagram(t.base, marks), tuple(seq)
    raise AssertionError("no transverse path: the drawing should admit one")


def glued_surface_faces(g: DecoratedGaussDiagram):
    """The faces of the curve's own surface and every ordered face pair
    whose Alexander numbering gives the decorations, for
    ``rebuild.reconstruct``'s glued-surface test.

    Built straight from tokens and signs: edge e runs from token e to token
    e + 1, half-edge (e, 0) leaves token e and (e, 1) enters token e + 1.
    Counterclockwise around a positive crossing the half-edges run over-out,
    under-out, over-in, under-in, and over-out, under-in, over-in, under-out
    around a negative one; the H end is the over strand.  A face is an orbit
    of half-edge -> rotation successor of its other half.  Crossing edge e
    from the face of (e, 1) to the face of (e, 0) moves the winding vector
    by the loops holding e: each arrow's loop runs from its H to its T, and
    the circle holds every edge.  Both orders of every pair are tried, so
    which side counts as which does not matter.  Returns (face count,
    pairs); the pairs are only searched when the face count gives a
    sphere, n + 2.
    """
    n, m = g.n, max(2 * g.n, 1)
    loops = valuation_matrix(g)
    target = tuple(a.valuation for a in g.arrows) + (g.circle_valuation,)
    if n == 0:  # one edge, no crossing: the two sides of the circle
        face = {(0, 0): 0, (0, 1): 1}
    else:
        after: dict[tuple[int, int], tuple[int, int]] = {}
        for a in g.arrows:
            h, t = g.positions[a.id]
            o_out, o_in = (h, 0), ((h - 1) % m, 1)
            u_out, u_in = (t, 0), ((t - 1) % m, 1)
            if a.sign == 1:
                ring = (o_out, u_out, o_in, u_in)
            else:
                ring = (o_out, u_in, o_in, u_out)
            for i in range(4):
                after[ring[i]] = ring[(i + 1) % 4]
        face = {}
        for start in after:
            half, number = start, len(set(face.values()))
            while half not in face:
                face[half] = number
                half = after[(half[0], 1 - half[1])]
    count = len(set(face.values()))
    if count != n + 2:
        return count, []
    # Alexander numbering by search over the dual graph from face 0
    winding: dict[int, tuple[int, ...]] = {0: (0,) * len(loops)}
    grown = True
    while grown:
        grown = False
        for e in range(m):
            step = tuple(row[e] for row in loops)
            src, dst = face[(e, 1)], face[(e, 0)]
            for p, q, s in ((src, dst, 1), (dst, src, -1)):
                if p in winding:
                    want = tuple(x + s * y for x, y in zip(winding[p], step))
                    if q not in winding:
                        winding[q] = want
                        grown = True
                    elif winding[q] != want:
                        raise AssertionError("a sphere's winding numbers must be consistent")
    pairs = [
        (p, q)
        for p in winding
        for q in winding
        if tuple(x - y for x, y in zip(winding[p], winding[q])) == target
    ]
    return count, pairs
