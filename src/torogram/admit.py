"""Braid-admissibility verdicts and level decompositions.

A diagram is admissible when every nonempty reduced orientation-respecting
loop has homology class >= 1, weakly admissible when every such loop has
class >= 0.  Verdicts come with a certificate loop whenever the answer is
negative, so callers can re-check the claim with ``loop_homology``.
"""
from __future__ import annotations

from .diagrams import (
    ArrowJump,
    CircleForward,
    DecoratedGaussDiagram,
    DiagramLoop,
    TDiagram,
    _stored,
    loop_homology,
    loop_to_json,
    record,
)
from .errors import NoLevels, NotPositive

ADMISSIBLE = "admissible"
WEAKLY_ONLY = "weakly_only"
NOT_WEAKLY = "not_weakly"


@record
class TransitionGraph:
    """Directed multigraph tracking how loops hop between arrows.

    One vertex per arrow; circle edge ``r`` becomes a graph edge from the
    arrow owning token ``r`` to the arrow owning token ``r + 1``, weighted by
    the marking count a refinement would place on that circle edge.  Closed
    walks correspond exactly to nonempty reduced orientation-respecting loops
    of the same homology class, so all verdicts reduce to cycle searches.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int, int], ...]  # (from arrow, to arrow, weight, circle edge)


@_stored("_transitions")
def transition_graph(g: DecoratedGaussDiagram) -> TransitionGraph:
    counts = g.reference_counts
    m = 2 * g.n
    edges = tuple(
        (g.tokens[r].arrow, g.tokens[(r + 1) % m].arrow, counts[r], r) for r in range(m)
    )
    return TransitionGraph(g.n, edges)


def _walk_to_loop(g: DecoratedGaussDiagram, circle_edges: list[int]) -> DiagramLoop:
    """Closed walk in the transition graph, as a loop on the diagram."""
    m = 2 * g.n
    steps: list[CircleForward | ArrowJump] = []
    for i, e in enumerate(circle_edges):
        steps.append(CircleForward(e))
        nxt = circle_edges[(i + 1) % len(circle_edges)]
        if (e + 1) % m != nxt:
            tok = g.tokens[nxt]
            steps.append(ArrowJump(tok.arrow, "head" if tok.kind == "H" else "tail"))
    return DiagramLoop(tuple(steps))


def bellman_ford(
    tg: TransitionGraph, scale: int, bias: int
) -> tuple[list[int], dict[int, tuple[int, int]], int | None]:
    """Bellman-Ford under ``scale*w + bias`` from a virtual everywhere-source.

    Returns ``(dist, pred, last)``.  ``last`` is None once a pass relaxes
    nothing: no cycle is negative and ``dist`` is a feasible potential.
    Otherwise it was relaxed in the final pass and ``pred`` leads back onto a
    negative cycle.
    """
    n = tg.vertex_count
    edges = [(u, v, scale * w + bias, ce) for (u, v, w, ce) in tg.edges]
    dist = [0] * (n + 1)
    pred: dict[int, tuple[int, int]] = {}
    last = None
    for _ in range(n):
        last = None
        for u, v, wt, ce in edges:
            nd = dist[u] + wt
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = (u, ce)
                last = v
        if last is None:
            break
    return dist, pred, last


def _pessimal_cycle(tg: TransitionGraph, scale: int, bias: int) -> tuple:
    """A directed cycle with ``sum(scale*w + bias) < 0``, as circle-edge walk,
    and the Bellman-Ford distances (a feasible potential when there is none).

    With ``scale = E + 1`` the search is exact: a simple cycle's rescaled
    weight is ``scale*W + bias*L`` with ``0 < L < scale``, never 0, so the
    predecessor-cycle extraction cannot return a zero-weight impostor.  Bias
    +1 finds a cycle of weight ``W <= -1`` and keeps ``W >= 0`` positive; bias
    -1 finds ``W = 0`` once negative cycles are ruled out.  When bias +1 finds
    none, shortest paths are simple, under ``scale`` edges, so ``dist //
    scale`` is the unscaled shortest distance, a feasible potential.

    The predecessor chain of a vertex still relaxed in the last Bellman-Ford
    pass is long enough to be guaranteed to wrap around one.
    """
    dist, pred, last = bellman_ford(tg, scale, bias)
    if last is None:
        return None, dist
    seen: dict[int, int] = {}
    order: list[int] = []
    cur = last
    while cur not in seen:
        seen[cur] = len(order)
        order.append(cur)
        cur = pred[cur][0]
    cyc = order[seen[cur]:]  # backward list: pred(cyc[i]) == cyc[i + 1], wrapping
    c = len(cyc)
    return [pred[cyc[i]][1] for i in range(c - 2, -1, -1)] + [pred[cyc[c - 1]][1]], dist


def _zero_cycle(tg: TransitionGraph) -> list[int] | None:
    """A cycle of weight exactly 0; only sound once negative cycles are ruled out."""
    return _pessimal_cycle(tg, len(tg.edges) + 1, -1)[0]


def _has_tight_cycle(tg: TransitionGraph, pi: tuple[int, ...]) -> bool:
    """Whether some cycle weighs exactly 0: whether the edges of reduced cost 0
    under the feasible potential ``pi`` survive Kahn's peel, O(n + m)."""
    out: list[list[int]] = [[] for _ in pi]
    indegree = [0] * len(pi)
    for u, v, w, _ in tg.edges:
        if w + pi[u] - pi[v] == 0:
            out[u].append(v)
            indegree[v] += 1
    free = [v for v, d in enumerate(indegree) if d == 0]
    for u in free:
        for v in out[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                free.append(v)
    return len(free) < len(pi)


@record
class AdmissibilityReport:
    verdict: str  # one of ADMISSIBLE, WEAKLY_ONLY, NOT_WEAKLY
    certificate: DiagramLoop | None
    homology: int | None

    def to_json(self) -> dict:
        data: dict = {"verdict": self.verdict}
        if self.certificate is not None:
            data["class"] = self.homology
            data["loop"] = loop_to_json(self.certificate)
        return data


def _certified(
    g: DecoratedGaussDiagram, verdict: str, loop: DiagramLoop, homology: int
) -> AdmissibilityReport:
    actual = loop_homology(g, loop)
    if actual != homology:
        raise RuntimeError(f"certificate loop has class {actual}, not the claimed {homology}")
    return AdmissibilityReport(verdict, loop, homology)


def check_admissible(g: DecoratedGaussDiagram) -> AdmissibilityReport:
    """Classify the diagram, certifying negative answers with an explicit loop.

    Certificates prefer loops a reader can see at a glance: a distinguished
    loop of an offending arrow, then the circle, then a composite cycle dug
    out of the transition graph.
    """
    return _admissibility(g)[0]


@_stored("_admitted")
def _admissibility(g: DecoratedGaussDiagram) -> tuple[AdmissibilityReport, tuple[int, ...] | None]:
    """The report of :func:`check_admissible`, and the feasible potential of
    the transition graph that its Bellman-Ford found; None when the diagram
    has no arrows or is not weakly admissible."""
    w = g.circle_valuation
    if g.n == 0:
        if w < 0:
            return _certified(g, NOT_WEAKLY, g.circle_loop(), w), None
        if w == 0:
            return _certified(g, WEAKLY_ONLY, g.circle_loop(), 0), None
        return AdmissibilityReport(ADMISSIBLE, None, None), None
    for a in g.arrows:  # sorted by id
        if a.valuation < 0:
            return _certified(g, NOT_WEAKLY, g.distinguished_loop(a.id), a.valuation), None
    if w < 0:
        return _certified(g, NOT_WEAKLY, g.circle_loop(), w), None
    tg = transition_graph(g)
    scale = len(tg.edges) + 1
    walk, dist = _pessimal_cycle(tg, scale, 1)
    if walk is not None:
        loop = _walk_to_loop(g, walk)
        counts = g.reference_counts
        return _certified(g, NOT_WEAKLY, loop, sum(counts[e] for e in walk)), None
    potential = tuple(d // scale for d in dist)
    for a in g.arrows:
        if a.valuation == 0:
            return _certified(g, WEAKLY_ONLY, g.distinguished_loop(a.id), 0), potential
    if w == 0:
        return _certified(g, WEAKLY_ONLY, g.circle_loop(), 0), potential
    if _has_tight_cycle(tg, potential):
        walk = _zero_cycle(tg)
        if walk is None:
            raise RuntimeError("a tight cycle exists but Bellman-Ford finds no zero cycle")
        return _certified(g, WEAKLY_ONLY, _walk_to_loop(g, walk), 0), potential
    return AdmissibilityReport(ADMISSIBLE, None, None), potential


# -- level decomposition ------------------------------------------------------


def level_decomposition(t: TDiagram, require_positive: bool = True) -> dict[int, int]:
    """Assign each arrow the round in which it peels off between markings.

    An arrow peels once both of its endpoints are anchored: at least one
    marking lies in the merged gap behind them (markings of removed arrows'
    edges merge into the surviving gaps).  Returns ``{arrow id: level}``
    starting at 1, ascending ids within a level, or raises :class:`NoLevels`
    carrying a marking-free loop of homology class 0 that witnesses the
    blockage.  O(m): the live tokens form a doubly linked ring, and since
    every peeled token was anchored, a round can only anchor the survivor
    right after a peeled block, so only that survivor's arrow can get ready.

    The positive decomposition, or its :class:`NoLevels` or
    :class:`NotPositive`, is found once and stored on ``t``; each call gets
    its own copy of the dict.
    """
    if require_positive:
        return dict(_positive_levels(t))
    return _peel(t)


@_stored("_leveled", (NoLevels, NotPositive))
def _positive_levels(t: TDiagram) -> dict[int, int]:
    """The positive level decomposition of ``t``; callers must not mutate it."""
    if not t.is_positive:
        raise NotPositive("level decomposition needs a positive marking set")
    return _peel(t)


def _peel(t: TDiagram) -> dict[int, int]:
    g = t.base
    m = 2 * g.n
    anchored = [bool(t.markings[p - 1]) for p in range(m)]
    nxt = [(p + 1) % m for p in range(m)]
    prv = [(p - 1) % m for p in range(m)]
    levels: dict[int, int] = {}
    ready = {k for k, (h, tl) in g.positions.items() if anchored[h] and anchored[tl]}
    level = 0
    while ready:
        level += 1
        followers = []
        for k in sorted(ready):
            levels[k] = level
            for p in g.positions[k]:  # unlink p from the ring
                nxt[prv[p]], prv[nxt[p]] = nxt[p], prv[p]
                followers.append(nxt[p])
        ready = set()
        for p in followers:
            k = g.tokens[p].arrow
            if k not in levels and not anchored[p]:
                anchored[p] = True
                h, tl = g.positions[k]
                if anchored[h] and anchored[tl]:
                    ready.add(k)
    if len(levels) < g.n:
        if not any(anchored):  # no markings: the circle itself avoids them all
            raise NoLevels(g.circle_loop())
        alive_pos = [p for p in range(m) if g.tokens[p].arrow not in levels]
        raise NoLevels(_stuck_certificate(g, alive_pos, anchored))
    return levels


def _stuck_certificate(
    g: DecoratedGaussDiagram, alive_pos: list[int], anchored: list[bool]
) -> DiagramLoop:
    """A class-0 loop avoiding every marking, built from the blocked round.

    From each anchored token, jump its arrow and walk backward to the
    previous anchored token; iterating this map must cycle, and reversing
    the cycle yields an orientation-respecting loop that only ever crosses
    markless stretches of the circle.
    """
    m = 2 * g.n
    idx_of = {p: i for i, p in enumerate(alive_pos)}

    def other_end(p: int) -> int:
        h, tl = g.positions[g.tokens[p].arrow]
        return tl if p == h else h

    def back_to_anchor(p: int) -> int:
        # p is never anchored here: its arrow would have peeled otherwise
        while not anchored[p]:
            p = alive_pos[idx_of[p] - 1]
        return p

    start = next(p for p in alive_pos if anchored[p])
    seen: dict[int, int] = {}
    chain: list[int] = []
    a = start
    while a not in seen:
        seen[a] = len(chain)
        chain.append(a)
        a = back_to_anchor(other_end(a))
    cyc = chain[seen[a]:]
    steps: list[CircleForward | ArrowJump] = []
    c = len(cyc)
    for i in range(c - 1, -1, -1):
        here, target = cyc[(i + 1) % c], other_end(cyc[i])
        e = here
        while e != target:
            steps.append(CircleForward(e))
            e = (e + 1) % m
        tok = g.tokens[cyc[i]]
        steps.append(ArrowJump(tok.arrow, "head" if tok.kind == "H" else "tail"))
    return DiagramLoop(tuple(steps))
