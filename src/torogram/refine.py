"""Refinements: marking assignments realizing the valuations, and moves between them.

A refinement of a diagram is a T-diagram over it that validates.  This module
constructs them (reference, minimal, nonnegative, positive), describes the
lattice of solutions, and connects any two refinements by local moves.

Refinement counts are exactly ``reference_counts + δπ``, where a potential
``π`` on the arrows adds ``π(v) - π(u)`` to transition edge ``u -> v``.  The
nonnegative and minimal refinements are the lexicographically least such
vectors under one sign constraint per edge, found by one core, ``_lex_least``.
"""
from __future__ import annotations

from heapq import heappop, heappush

from .admit import (
    ADMISSIBLE,
    NOT_WEAKLY,
    TransitionGraph,
    _admissibility,
    _pessimal_cycle,
    transition_graph,
)
from .diagrams import DecoratedGaussDiagram, TDiagram, canonical_serialize, require_valid, validate
from .diagrams import record
from .errors import InvalidDiagram, NotAdmissible, NotWeaklyAdmissible


# Markings are stored one by one, so a refinement holds at most this many in
# total; a larger one is refused as out of domain before it is built.
MAX_MARKINGS = 1_000_000


def _counts_to_markings(counts) -> tuple[tuple[int, ...], ...]:
    total = sum(map(abs, counts))
    if total > MAX_MARKINGS:
        raise InvalidDiagram(f"a refinement with {total} markings exceeds the limit {MAX_MARKINGS}")
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


# -- the lexicographic core ----------------------------------------------------


def _lex_least(tg: TransitionGraph, counts: list[int], signs: list[int]) -> list[int]:
    """The lexicographically least ``counts + δπ`` with ``signs[e] * x_e >= 0``.

    A zero sign means ``x_e = 0``; ``counts`` meets the constraints, and they
    bound every ``x_e`` below.  A constraint is an arc costing its value,
    ``u -> v`` costing ``x_e`` or ``v -> u`` costing ``-x_e``.  ``= 0`` edges are
    contracted, then edges frozen in index order, each glueing its ends into
    one component moving as a unit (a union-find by size whose vertices keep
    their potential as an offset).  Edge ``u -> v`` can drop by exactly the
    distance ``D`` from ``u``'s component to ``v``'s, found by one Dijkstra;
    raising each component settled at ``d`` by ``D - d`` moves it there and
    keeps every reduced cost nonnegative (Johnson's reweighting).  Freezing
    each edge at its least value given the earlier ones is lexicographic.
    """
    n = tg.vertex_count
    ends = [(u, v) for (u, v, _, _) in tg.edges]
    comp = list(range(n + 1))
    members = [[v] for v in range(n + 1)]
    lift = [0] * (n + 1)  # potential of a component
    off = [0] * (n + 1)  # potential of a vertex over its component's
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]  # per component
    for e, ((u, v), s) in enumerate(zip(ends, signs)):
        if s:
            out[u if s > 0 else v].append((e, v if s > 0 else u, s))

    def value(e: int) -> int:
        u, v = ends[e]
        return counts[e] + off[v] + lift[comp[v]] - off[u] - lift[comp[u]]

    def merge(a: int, b: int) -> None:
        a, b = comp[a], comp[b]
        if len(members[a]) < len(members[b]):  # into the larger; a on a tie
            a, b = b, a
        for v in members[b]:
            comp[v] = a
            off[v] += lift[b] - lift[a]
        members[a] += members[b]
        out[a] += out[b]
        members[b], out[b] = [], []

    for (u, v), s in zip(ends, signs):
        if s == 0 and comp[u] != comp[v]:
            merge(u, v)
    for i, (u, v) in enumerate(ends):
        if comp[u] == comp[v]:
            continue
        # a >= 0 edge is itself a path of cost x_i: only the ball below it matters
        reach = value(i) if signs[i] > 0 else None
        heap = [(0, comp[u])] if reach != 0 else []
        settled: dict[int, int] = {}
        while heap:
            d, c = heappop(heap)
            if c in settled:
                continue
            settled[c] = d
            if c == comp[v]:
                reach = d
                break
            out[c] = [arc for arc in out[c] if comp[arc[1]] != c]  # drop arcs gone internal
            for e, b, s in out[c]:
                nd = d + s * value(e)
                if comp[b] not in settled and (reach is None or nd < reach):
                    heappush(heap, (nd, comp[b]))
        if reach is None:
            raise RuntimeError(f"circle edge {i} is unbounded below under its constraints")
        for c, d in settled.items():
            lift[c] += reach - d
        merge(u, v)
    return [value(e) for e in range(len(ends))]


def _refinement(
    g: DecoratedGaussDiagram,
    tg: TransitionGraph,
    potential: tuple[int, ...] | list[int],
    signs: list[int],
) -> TDiagram:
    """Run the core from a feasible ``potential`` of the constraint arcs; check its answer."""
    start = [w + potential[u] - potential[v] for (u, v, w, _) in tg.edges]
    counts = _lex_least(tg, start, signs) if g.n else [g.circle_valuation]
    broken = [e for e, (x, s) in enumerate(zip(counts, signs)) if x * s < 0 or (x and not s)]
    t = TDiagram(g, _counts_to_markings(counts))
    problems = validate(t).problems
    if broken or problems:
        raise RuntimeError(f"refinement core broke its postcondition: edges {broken}, {problems}")
    return t


# -- nonnegative and positive refinements -------------------------------------


def non_negative_refinement(g: DecoratedGaussDiagram) -> TDiagram:
    """The lexicographically least refinement with every marking sign +1.

    Needs weak admissibility: no transition cycle is negative, so the
    transition graph itself is the constraint graph of ``x >= 0``, and the
    admissibility check's Bellman-Ford potential is feasible for it.  Raises
    :class:`NotWeaklyAdmissible` with the certificate loop otherwise.
    """
    report, potential = _admissibility(g)
    if report.verdict == NOT_WEAKLY:
        raise NotWeaklyAdmissible(report.certificate, report.homology)
    tg = transition_graph(g)
    return _refinement(g, tg, potential, [1] * len(tg.edges))


def positive_refinement(g: DecoratedGaussDiagram) -> TDiagram:
    """A nonnegative refinement with at least one marking; needs admissibility.

    Raises :class:`NotAdmissible` with a certificate loop of class <= 0
    otherwise.  The circle valuation of an admissible diagram is positive, so
    the nonnegative construction is automatically positive.
    """
    report, potential = _admissibility(g)
    if report.verdict != ADMISSIBLE:
        raise NotAdmissible(report.certificate, report.homology)
    tg = transition_graph(g)
    t = _refinement(g, tg, potential, [1] * len(tg.edges))
    if not t.is_positive:
        raise RuntimeError("admissible diagram without a positive refinement")
    return t


# -- the minimal refinement ----------------------------------------------------


def minimal_refinement(g: DecoratedGaussDiagram) -> TDiagram:
    """The refinement with the fewest markings; ties broken by smallest counts.

    Minimizing ``sum |x_e|`` over potentials is a linear program; its dual
    is a circulation ``-1 <= f_e <= 1`` of cost ``sum w_e f_e`` (``w`` the
    reference counts), with optimum minus the least marking count.  The
    search starts from the circle flow ``f_e = -sign(c)``, ``c`` the circle
    valuation, a circulation since the circle walks the transition graph.
    Every refinement's counts sum to ``c``, so it has at least ``|c|``
    markings, and the circle flow's cost ``-|c|`` is already optimal whenever
    a one-signed refinement exists.  Otherwise negative residual cycles are
    cancelled one unit at a time, each lowering the cost by at least 1.  By
    complementary slackness with any optimal flow, the minimal count vectors
    are exactly those with ``x_e = 0`` where ``f_e = 0``, ``x_e >= 0`` where
    ``f_e = -1`` and ``x_e <= 0`` where ``f_e = +1``, so the optimal face does
    not depend on where the search starts: the residual arcs are their
    constraint arcs, and the lexicographic core picks the least.
    """
    tg = transition_graph(g)
    m = len(tg.edges)
    c = g.circle_valuation
    flow = [(c < 0) - (c > 0)] * m
    while True:
        # forward arc e raises f_e at cost w_e, backward arc e + m lowers it at -w_e
        arcs = [(u, v, w, e) for (u, v, w, e) in tg.edges if flow[e] < 1]
        arcs += [(v, u, -w, e + m) for (u, v, w, e) in tg.edges if flow[e] > -1]
        scale = len(arcs) + 1
        cycle, dist = _pessimal_cycle(TransitionGraph(tg.vertex_count, tuple(arcs)), scale, 1)
        if cycle is None:
            return _refinement(g, tg, [d // scale for d in dist], [-f for f in flow])
        for a in cycle:
            flow[a % m] += 1 if a < m else -1


# -- moves ---------------------------------------------------------------------


@record
class TypeIInsert:
    """Insert a cancelling marking pair (sign, -sign) at a position on an edge."""

    edge: int
    pos: int
    sign: int


@record
class TypeIDelete:
    """Delete the adjacent opposite pair sitting at (pos, pos + 1) on an edge."""

    edge: int
    pos: int


@record
class TypeIIPlus:
    """Push a +1 past each token of the arrow: prepend +1 on the edges after
    its endpoints, append -1 on the edges before them."""

    arrow: int


@record
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
    for e, row in enumerate(marks):
        p = 0  # no pair cancels left of p
        while p < len(row) - 1:
            if row[p] == -row[p + 1]:
                done.append((e, p, row[p]))
                del row[p:p + 2]
                p = max(p - 1, 0)
            else:
                p += 1
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

    moves: list[Move] = [TypeIDelete(e, p) for e, p, _ in _normalize_blocks(cur)]
    goal = [list(e) for e in target]
    undo = _normalize_blocks(goal)

    x1 = [sum(r) for r in cur]
    x2 = [sum(r) for r in goal]
    coeffs = _bump_coefficients(base, [b - a for a, b in zip(x1, x2)])
    for arrow_id in sorted(coeffs):
        for _ in range(coeffs[arrow_id]):
            moves.append(TypeIIPlus(arrow_id))
            _apply_bump(base, cur, arrow_id, 1)
    moves += [TypeIDelete(e, p) for e, p, _ in _normalize_blocks(cur)]
    if cur != goal:
        raise RuntimeError("bump moves did not reach the target's net counts")
    for e, p, s in reversed(undo):
        moves.append(TypeIInsert(e, p, s))
        cur[e][p:p] = [s, -s]
    if cur != target:
        raise RuntimeError("replayed insertions did not rebuild the target markings")
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
        if any(delta):
            raise RuntimeError("count change on the bare circle does not preserve its valuation")
        return {}
    m = 2 * n
    potential = {g.tokens[0].arrow: 0}
    for r in range(m):
        u = g.tokens[r].arrow
        v = g.tokens[(r + 1) % m].arrow
        val = potential[u] + delta[r]
        if v not in potential:
            potential[v] = val
        elif potential[v] != val:
            raise RuntimeError("count change does not preserve valuations")
    coeffs = {k: -y for k, y in potential.items()}
    shift = -min(coeffs.values())
    return {k: c + shift for k, c in coeffs.items()}
