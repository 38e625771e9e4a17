"""Refinements: marking assignments realizing the valuations, and moves between them.

A refinement of a diagram is a T-diagram over it that validates.  This module
constructs them (reference, minimal, nonnegative, positive), describes the
lattice of solutions, and connects any two refinements by local moves.
"""
from __future__ import annotations

from dataclasses import dataclass

from .admit import ADMISSIBLE, NOT_WEAKLY, check_admissible, transition_graph
from .diagrams import DecoratedGaussDiagram, TDiagram, canonical_serialize, require_valid
from .errors import InvalidDiagram, NotAdmissible, NotWeaklyAdmissible


def _counts_to_markings(counts) -> tuple[tuple[int, ...], ...]:
    return tuple((1,) * c if c >= 0 else (-1,) * (-c) for c in counts)


def find_refinement(g: DecoratedGaussDiagram) -> TDiagram:
    """Some refinement, O(n), deterministic; signs follow the solved counts."""
    return TDiagram(g, _counts_to_markings(g.reference_counts))


def kernel_basis(g: DecoratedGaussDiagram) -> tuple[tuple[int, ...], ...]:
    """Integer basis of the lattice of count vectors with all valuations zero.

    One vector per arrow beyond the first: bumping that arrow's marking pair
    (a move of the second kind) changes counts by exactly this vector.  The
    vectors of all arrows sum to zero, so dropping the first still spans.
    """
    n = g.n
    if n <= 1:
        return ()
    return tuple(_pair_vector(g, a.id) for a in g.arrows[1:])


def _pair_vector(g: DecoratedGaussDiagram, arrow_id: int) -> tuple[int, ...]:
    m = 2 * g.n
    h, t = g.positions[arrow_id]
    vec = [0] * m
    vec[h] += 1
    vec[t] += 1
    vec[(h - 1) % m] -= 1
    vec[(t - 1) % m] -= 1
    return tuple(vec)


# -- nonnegative and positive refinements -------------------------------------


def _nonnegative_counts(g: DecoratedGaussDiagram) -> list[int]:
    """An everywhere-nonnegative solution; sound once weak admissibility holds.

    Works on the transition graph, where consistent count vectors differ by
    coboundaries of vertex potentials and weak admissibility says every
    directed cycle has nonnegative count.  Edges are frozen left to right;
    freezing an edge glues its endpoints, and the safe window for its value
    follows from shortest directed paths between its endpoints among the
    still-free edges.  The window is never empty and its lower end is never
    negative while the no-negative-cycle invariant holds, so always freezing
    the smallest safe value pins every edge at a nonnegative count.
    """
    counts = list(g.reference_counts)
    n = g.n
    if n == 0:
        return counts
    m = 2 * n
    ends = [(u, v) for (u, v, _, _) in transition_graph(g).edges]
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    free = [True] * m

    def shortest(src: int, dst: int) -> int | None:
        dist = {src: 0}
        for _ in range(n):
            changed = False
            for j in range(m):
                if not free[j]:
                    continue
                du = dist.get(find(ends[j][0]))
                if du is None:
                    continue
                nd = du + counts[j]
                rv = find(ends[j][1])
                if nd < dist.get(rv, nd + 1):
                    dist[rv] = nd
                    changed = True
            if not changed:
                break
        return dist.get(dst)

    for i in range(m):
        free[i] = False
        ra, rb = find(ends[i][0]), find(ends[i][1])
        if ra == rb:
            # the value is pinned by earlier choices; the cycle invariant
            # keeps pinned values nonnegative
            assert counts[i] >= 0, counts
            continue
        toward = shortest(ra, rb)
        backward = shortest(rb, ra)
        lo = 0 if toward is None else max(0, counts[i] - toward)
        hi = None if backward is None else counts[i] + backward
        assert hi is None or lo <= hi, (lo, hi, counts)
        dz = lo - counts[i]
        if dz:
            for j in range(m):
                u, v = ends[j]
                counts[j] += dz * ((find(v) == rb) - (find(u) == rb))
        assert counts[i] == lo
        parent[rb] = ra
    return counts


def non_negative_refinement(g: DecoratedGaussDiagram) -> TDiagram:
    """A refinement with every marking sign +1; needs weak admissibility.

    Raises :class:`NotWeaklyAdmissible` with the certificate loop otherwise.
    """
    report = check_admissible(g)
    if report.verdict == NOT_WEAKLY:
        raise NotWeaklyAdmissible(report.certificate, report.homology)
    return TDiagram(g, _counts_to_markings(_nonnegative_counts(g)))


def positive_refinement(g: DecoratedGaussDiagram) -> TDiagram:
    """A nonnegative refinement with at least one marking; needs admissibility.

    Raises :class:`NotAdmissible` with a certificate loop of class <= 0
    otherwise.  The circle valuation of an admissible diagram is positive, so
    the nonnegative construction is automatically positive.
    """
    report = check_admissible(g)
    if report.verdict != ADMISSIBLE:
        raise NotAdmissible(report.certificate, report.homology)
    t = TDiagram(g, _counts_to_markings(_nonnegative_counts(g)))
    assert t.is_positive
    return t


# -- the minimal refinement ----------------------------------------------------


def minimal_refinement(g: DecoratedGaussDiagram) -> TDiagram:
    """The refinement with the fewest markings; ties broken by smallest counts.

    Count vectors are prefix differences of integer values on token gaps, one
    free offset per arrow not containing the basepoint.  Branch and bound over
    those offsets: any solution of cost C keeps every prefix value within
    (C + |w|) / 2 of zero, so the incumbent from the reference solution boxes
    the search.
    """
    n = g.n
    w = g.circle_valuation
    if n == 0:
        return TDiagram(g, _counts_to_markings((w,)))
    m = 2 * n
    pairs = []
    for a in g.arrows:
        h, t = g.positions[a.id]
        delta = a.valuation if h < t else a.valuation - w
        pairs.append((h, t, delta) if h < t else (t, h, -delta))
    pairs.sort()

    ref = g.reference_counts
    best_cost = sum(abs(x) for x in ref)
    best_x: tuple[int, ...] | None = None
    box = (best_cost + abs(w)) // 2

    prefix: list[int | None] = [None] * (m + 1)
    prefix[0] = 0
    prefix[m] = w

    def lower_bound() -> int:
        # consecutive known values cost their exact gap; a run of unknowns
        # in between costs at least the jump across it
        total = 0
        last = 0
        for r in range(1, m + 1):
            val = prefix[r]
            if val is not None:
                total += abs(val - last)
                last = val
        return total

    def descend(i: int) -> None:
        nonlocal best_cost, best_x
        if lower_bound() > best_cost:
            return
        if i == len(pairs):
            x = tuple(prefix[r + 1] - prefix[r] for r in range(m))
            cost = sum(abs(v) for v in x)
            if cost < best_cost or (cost == best_cost and (best_x is None or x < best_x)):
                best_cost, best_x = cost, x
            return
        p, q, d = pairs[i]
        if p == 0:
            prefix[q] = d
            descend(i + 1)
            prefix[q] = None
            return
        for s in range(-box, box + 1):
            if abs(s + d) > box:
                continue
            prefix[p], prefix[q] = s, s + d
            descend(i + 1)
        prefix[p] = prefix[q] = None

    descend(0)
    if best_x is None:  # the reference solution was never beaten or matched in-search
        best_x = ref
    return TDiagram(g, _counts_to_markings(best_x))


# -- moves ---------------------------------------------------------------------


@dataclass(frozen=True)
class TypeIInsert:
    """Insert a cancelling marking pair (sign, -sign) at a position on an edge."""

    edge: int
    pos: int
    sign: int


@dataclass(frozen=True)
class TypeIDelete:
    """Delete the adjacent opposite pair sitting at (pos, pos + 1) on an edge."""

    edge: int
    pos: int


@dataclass(frozen=True)
class TypeIIPlus:
    """Push a +1 past each token of the arrow: prepend +1 on the edges after
    its endpoints, append -1 on the edges before them."""

    arrow: int


@dataclass(frozen=True)
class TypeIIMinus:
    """Mirror of :class:`TypeIIPlus` with both signs flipped."""

    arrow: int


Move = TypeIInsert | TypeIDelete | TypeIIPlus | TypeIIMinus


def apply_move(t: TDiagram, move: Move) -> TDiagram:
    marks = [list(e) for e in t.markings]
    if isinstance(move, (TypeIInsert, TypeIDelete)):
        if not 0 <= move.edge < len(marks):
            raise InvalidDiagram(f"no edge {move.edge}")
        row = marks[move.edge]
        if isinstance(move, TypeIInsert):
            if move.sign not in (1, -1):
                raise InvalidDiagram(f"marking sign must be +1 or -1, got {move.sign}")
            if not 0 <= move.pos <= len(row):
                raise InvalidDiagram(f"position {move.pos} out of range on edge {move.edge}")
            row[move.pos:move.pos] = [move.sign, -move.sign]
        else:
            if not 0 <= move.pos < len(row) - 1:
                raise InvalidDiagram(f"no adjacent pair at {move.pos} on edge {move.edge}")
            if row[move.pos] != -row[move.pos + 1]:
                raise InvalidDiagram(
                    f"markings at {move.pos}, {move.pos + 1} on edge {move.edge} do not cancel"
                )
            del row[move.pos:move.pos + 2]
    else:
        g = t.base
        if move.arrow not in g.arrow_map:
            raise InvalidDiagram(f"no arrow {move.arrow}")
        _apply_bump(g, marks, move.arrow, 1 if isinstance(move, TypeIIPlus) else -1)
    return TDiagram(t.base, tuple(tuple(e) for e in marks))


def move_to_json(move: Move) -> dict:
    if isinstance(move, TypeIInsert):
        return {"op": "I+", "edge": move.edge, "pos": move.pos, "sign": move.sign}
    if isinstance(move, TypeIDelete):
        return {"op": "I-", "edge": move.edge, "pos": move.pos}
    if isinstance(move, TypeIIPlus):
        return {"op": "II+", "arrow": move.arrow}
    if isinstance(move, TypeIIMinus):
        return {"op": "II-", "arrow": move.arrow}
    raise InvalidDiagram(f"unknown move {move!r}")


def move_from_json(data: dict) -> Move:
    op = data.get("op")
    if op == "I+":
        return TypeIInsert(int(data["edge"]), int(data["pos"]), int(data["sign"]))
    if op == "I-":
        return TypeIDelete(int(data["edge"]), int(data["pos"]))
    if op == "II+":
        return TypeIIPlus(int(data["arrow"]))
    if op == "II-":
        return TypeIIMinus(int(data["arrow"]))
    raise InvalidDiagram(f"unknown move op {op!r}")


# -- connecting two refinements --------------------------------------------------


def _normalize_blocks(marks: list[list[int]]) -> list[tuple[int, int, int]]:
    """Cancel adjacent opposite pairs, leftmost first, until single-sign rows.

    Returns the performed deletions as (edge, pos, removed leading sign).
    """
    done = []
    changed = True
    while changed:
        changed = False
        for e, row in enumerate(marks):
            for p in range(len(row) - 1):
                if row[p] == -row[p + 1]:
                    done.append((e, p, row[p]))
                    del row[p:p + 2]
                    changed = True
                    break
            if changed:
                break
    return done


def connect_refinements(t1: TDiagram, t2: TDiagram) -> list[Move]:
    """Moves rewriting ``t1``'s markings into ``t2``'s, insertions and bumps only
    in the upward direction.

    Both must refine the same diagram.  Replaying the returned moves on ``t1``
    gives a T-diagram serializing identically to ``t2``.
    """
    base = t1.base
    if canonical_serialize(t2.base) != canonical_serialize(base):
        raise InvalidDiagram("the two refinements decorate different diagrams")
    require_valid(t1)
    require_valid(t2)
    target = [list(e) for e in t2.markings]  # same indexing: stored words agree
    cur = [list(e) for e in t1.markings]
    if cur == target:
        return []

    moves: list[Move] = []
    for e, p, _ in _normalize_blocks(cur):
        moves.append(TypeIDelete(e, p))
    goal = [list(e) for e in target]
    undo = _normalize_blocks(goal)

    x1 = [sum(r) for r in cur]
    x2 = [sum(r) for r in goal]
    coeffs = _bump_coefficients(base, [b - a for a, b in zip(x1, x2)])
    for arrow_id in sorted(coeffs):
        for _ in range(coeffs[arrow_id]):
            move = TypeIIPlus(arrow_id)
            moves.append(move)
            _apply_bump(base, cur, arrow_id, 1)
    for e, p, _ in _normalize_blocks(cur):
        moves.append(TypeIDelete(e, p))
    assert cur == goal, (cur, goal)
    for e, p, s in reversed(undo):
        moves.append(TypeIInsert(e, p, s))
        cur[e][p:p] = [s, -s]
    assert cur == target
    return moves


def _apply_bump(g: DecoratedGaussDiagram, marks: list[list[int]], arrow_id: int, s: int) -> None:
    h, t = g.positions[arrow_id]
    m = 2 * g.n
    for p in (h, t):
        marks[p].insert(0, s)
    for p in (h, t):
        marks[(p - 1) % m].append(-s)


def _bump_coefficients(g: DecoratedGaussDiagram, delta: list[int]) -> dict[int, int]:
    """Nonnegative bump multiplicities per arrow realizing the count change.

    Count changes with zero valuations are exactly potential differences on
    the transition graph; propagating the potential along the circle and
    shifting it to be nonnegative (bumping every arrow once is a no-op) gives
    the multiplicities.
    """
    n = g.n
    if n == 0:
        assert all(d == 0 for d in delta)
        return {}
    m = 2 * n
    potential = {g.tokens[0].arrow: 0}
    for r in range(m):
        u = g.tokens[r].arrow
        v = g.tokens[(r + 1) % m].arrow
        val = potential[u] + delta[r]
        if v in potential:
            assert potential[v] == val, "count change does not preserve valuations"
        else:
            potential[v] = val
    coeffs = {k: -y for k, y in potential.items()}
    shift = -min(coeffs.values())
    return {k: c + shift for k, c in coeffs.items()}
