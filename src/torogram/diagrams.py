"""Decorated Gauss diagrams of knots in a solid torus.

A diagram is a cyclic word of arrow endpoints on an oriented circle, one
``H`` (overpass) and one ``T`` (underpass) token per arrow, plus a sign and
an integer valuation per arrow and one integer valuation for the circle.
A T-diagram adds an ordered list of signed markings to every edge (the arc
between two consecutive tokens).

Instances are stored in a canonical rotation chosen once, at construction,
so edge indices are reproducible across runs: edge ``i`` is the arc directly
after the ``i``-th stored token, and edge ``2n - 1`` wraps back to token 0.
The stored rotation has the least relabel-insensitive key (token kinds with
arrows numbered by first appearance, then signs, then valuations), so it
always starts at an ``H``.  When several rotations tie for that key, a
T-diagram serializes from the tied rotation with the least marking tuple.
"""
from __future__ import annotations

from functools import wraps
from itertools import accumulate, chain
from operator import add, attrgetter, sub
from typing import Iterable, NamedTuple

from .errors import InvalidDiagram, ParseError

# stores a record field past the record's raising __setattr__
_set_field = object.__setattr__


def record(cls=None, *, hidden: tuple[str, ...] = ()):
    """Class decorator for value records: ``@dataclass`` without its import.

    The fields are the class annotations, in order.  The record gets an
    ``__init__`` by position or name that calls ``__post_init__``, unless the
    class writes its own; the dataclass repr; ``__eq__`` within one class and
    ``__hash__``, both over the fields not named in ``hidden``; and raising
    ``__setattr__``/``__delattr__``, so fields are set with ``_set_field``
    (never through ``self.__dict__``, which would give the instance a real
    dict and slow every attribute read).  Nothing is compiled at run time:
    importing ``dataclasses`` and compiling its generated methods cost every
    CLI process ~25 ms.
    """
    if cls is None:
        return lambda c: record(c, hidden=hidden)
    names = tuple(cls.__annotations__)
    count = len(names)
    shown = tuple(f for f in names if f not in hidden)
    key = attrgetter(*shown)
    single = len(shown) == 1
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:  # bind by name, as a dataclass does
            values = dict(zip(names, args))
            if len(args) > count or kwargs.keys() != set(names) - values.keys():
                raise TypeError(f"{cls.__name__}() takes each of the fields {', '.join(names)} "
                                f"once, got {len(args)} by position and {sorted(kwargs)} by name")
            values.update(kwargs)
            args = [values[f] for f in names]
        for name, value in zip(names, args):
            _set_field(self, name, value)
        if post is not None:
            post(self)

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in shown)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):  # the hash of the field tuple, as a dataclass has it
        return hash((key(self),) if single else key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__, "__hash__": __hash__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    for name, method in methods.items():
        if name not in cls.__dict__:  # a method the class writes itself stays
            setattr(cls, name, method)
    return cls


def _stored(name: str, failures: tuple = ()):
    """Decorator: the function's value for an object, computed on first use
    and stored on it as ``name``, a class-level ``None`` outside the fields
    (so ``==``, ``hash`` and ``repr`` ignore it; no table spans objects).  A
    failure of a ``failures`` type is stored too, and every call raises a
    fresh copy with its message and certificate; anything else stores nothing."""

    def decorate(build):
        @wraps(build)
        def get(obj):
            value = getattr(obj, name)
            if value is None:
                try:
                    value = build(obj)
                except failures as e:
                    value = e.with_traceback(None)
                _set_field(obj, name, value)
            if isinstance(value, Exception):
                fresh = Exception.__new__(type(value), *value.args)
                fresh.__dict__.update(value.__dict__)  # the certificate
                raise fresh
            return value

        return get

    return decorate


class Token(NamedTuple):
    kind: str  # "H" at the overpass end, "T" at the underpass end
    arrow: int


@record
class Arrow:
    id: int
    sign: int
    valuation: int

    def __init__(self, id: int, sign: int, valuation: int) -> None:
        if id < 1:
            raise InvalidDiagram(f"arrow id must be >= 1, got {id}")
        if sign not in (1, -1):
            raise InvalidDiagram(f"arrow sign must be +1 or -1, got {sign}")
        _set_field(self, "id", id)
        _set_field(self, "sign", sign)
        _set_field(self, "valuation", valuation)


def _least_rotations(heads: list[int], tails: list[int], arrows: tuple) -> tuple[int, ...]:
    """Ascending rotations tying for the least rotation key of the token word
    with arrow k's H at ``heads[k - 1]`` and T at ``tails[k - 1]``.

    A rotation's key numbers arrows by first appearance, so at depth i a
    token reads as its kind and its distance d back to its partner: a partner
    already read (d <= i) gave a smaller number the further back it lies, a
    fresh arrow takes the next one, so the H starts lead.  All candidates
    advance one token at a time and only those with the least symbol stay;
    signs, then valuations, in first-seen order break what is left.  A word
    invariant under a shift by its least period p ties in steps of p, so
    only rotations below p compete.  O(m) unless many candidates agree for long.
    """
    m = 2 * len(arrows)
    if not m:
        return (0,)
    back = [0] * m  # cyclic distance back to the partner token
    kind = [0] * m  # m + 1 at a T
    at = [None] * m  # the arrow at each token
    for a, h, t in zip(arrows, heads, tails):
        kind[t] = m + 1
        at[h] = at[t] = a
        f, q = (h, t) if h < t else (t, h)
        back[q], back[f] = q - f, m - q + f
    p = _closed_period(list(map(add, kind, back)))  # the shape alone
    if p < m:  # a period of the whole word is one of its shape
        p = _closed_period([(kind[q], back[q], at[q].sign, at[q].valuation) for q in range(m)])
    live = [r for r in range(p) if not kind[r]]
    kind2, back2 = kind * 2, back * 2  # read on past the end without a modulo
    for i in range(1, m):
        if len(live) == 1:
            break
        # kind first (T is m + 1), then a partner read, far ones first, then a fresh one
        syms = [kind2[r + i] - (back2[r + i] if back2[r + i] <= i else 0) for r in live]
        least = min(syms)
        live = [r for r, s in zip(live, syms) if s == least]

    def decorations(r: int):
        seen = [at[(r + i) % m] for i in range(m) if back[(r + i) % m] > i]
        return [a.sign for a in seen], [a.valuation for a in seen]

    return tuple(range(live[0] if len(live) == 1 else min(live, key=decorations), m, p))


def _closed_period(word: list) -> int:
    """The least period of ``word`` that closes up round the circle: the least
    divisor d of its length with the word invariant under a shift by d.  A
    divisor is tested in C, and only when the word's first letter recurs at d."""
    m = len(word)
    return next((d for d in range(1, m // 2 + 1)
                 if m % d == 0 and word[d] == word[0] and word[d:] == word[:-d]), m)


@record
class DecoratedGaussDiagram:
    """Arrow endpoints on the circle plus signs, valuations and the circle
    valuation.  Construction checks the tokens in one pass that finds each
    arrow's H and T, reads the canonical rotation off those positions and
    stores them, rotated, as ``positions``: arrow id -> (H position, T position)."""

    tokens: tuple[Token, ...]
    arrows: tuple[Arrow, ...]
    circle_valuation: int
    # set by __post_init__, outside init, repr and compare: the input rotation
    # the stored tokens start at (_rotation), the rotations of the stored
    # tokens tying for the least key, starting with 0 (_tied_rotations), and
    # positions
    _admitted = _transitions = _realized = _texts = _arrows_by_id = _reference = None  # see _stored

    def __post_init__(self) -> None:
        tokens = self.tokens
        if type(tokens) is not tuple or not all(type(tok) is Token for tok in tokens):
            tokens = tuple(Token(k, a) for k, a in tokens)
        arrows = tuple(sorted(self.arrows, key=attrgetter("id")))
        ids = [a.id for a in arrows]
        n = len(arrows)
        if ids != list(range(1, n + 1)):
            raise InvalidDiagram(f"arrow ids must be exactly 1..{n}, got {ids}")
        heads, tails = [-1] * n, [-1] * n  # token positions by id - 1, in one pass
        fine = len(tokens) == 2 * n
        for q, (kind, a) in enumerate(tokens):
            slots = heads if kind == "H" else tails if kind == "T" else None
            if slots is None or type(a) is not int or not 0 < a <= n or slots[a - 1] >= 0:
                fine = False
                break
            slots[a - 1] = q
        if not fine:  # name the first fault in sequence order
            declared, seen = set(ids), set()
            for q, tok in enumerate(tokens):
                if tok.kind not in ("H", "T"):
                    raise InvalidDiagram(f"unknown token kind {tok.kind!r}")
                if tok.arrow not in declared:
                    raise InvalidDiagram(f"token for undeclared arrow {tok.arrow}")
                if tok in seen:
                    raise InvalidDiagram(f"duplicate token {tok.kind}{tok.arrow}")
                seen.add(tok)  # an id of another type equal to one in 1..n fills its slot here
                (heads if tok.kind == "H" else tails)[int(tok.arrow) - 1] = q
            if len(tokens) != 2 * n:
                raise InvalidDiagram(
                    f"expected {2 * n} tokens for {n} arrows, got {len(tokens)}"
                )
        ties = _least_rotations(heads, tails, arrows)
        shift, m = ties[0], 2 * n
        if shift:
            heads, tails = [(h - shift) % m for h in heads], [(t - shift) % m for t in tails]
        _set_field(self, "tokens", tokens[shift:] + tokens[:shift])
        _set_field(self, "arrows", arrows)
        _set_field(self, "_rotation", shift)
        _set_field(self, "_tied_rotations", tuple(r - shift for r in ties))
        _set_field(self, "positions", dict(zip(ids, zip(heads, tails))))

    @property
    def n(self) -> int:
        return len(self.arrows)

    @property
    def edge_count(self) -> int:
        return 2 * self.n if self.n else 1

    @property
    def arrow_map(self) -> dict[int, Arrow]:
        return _arrow_map(self)

    @property
    def reference_counts(self) -> tuple[int, ...]:
        """One integer solution of the marking-count equations, per edge."""
        return _reference_counts(self)

    def distinguished_loop(self, arrow_id: int) -> "DiagramLoop":
        """Head to tail along the circle, then back across the arrow."""
        if arrow_id not in self.arrow_map:
            raise InvalidDiagram(f"unknown arrow {arrow_id}")
        h, t = self.positions[arrow_id]
        m = 2 * self.n
        steps: list[CircleForward | ArrowJump] = []
        e = h
        while e != t:
            steps.append(CircleForward(e))
            e = (e + 1) % m
        steps.append(ArrowJump(arrow_id, "head"))
        return DiagramLoop(tuple(steps))

    def circle_loop(self) -> "DiagramLoop":
        steps = tuple(CircleForward(e) for e in range(self.edge_count))
        return DiagramLoop(steps)

    def __str__(self) -> str:
        return canonical_serialize(self)


@_stored("_arrows_by_id")
def _arrow_map(g: DecoratedGaussDiagram) -> dict[int, Arrow]:
    return {a.id: a for a in g.arrows}


@_stored("_reference")
def _reference_counts(g: DecoratedGaussDiagram) -> tuple[int, ...]:
    """One integer solution of the marking-count equations, per edge, in
    O(n): the steps of prefix sums running from 0 to w, each arrow's smaller
    end pinned at 0 (every position sits on one arrow) and its larger end
    set so that its edges, H to T cyclically, sum to its valuation."""
    w = g.circle_valuation
    if not g.n:
        return (w,)
    prefix = [0] * (2 * g.n) + [w]
    for arrow in g.arrows:
        h, t = g.positions[arrow.id]
        if h < t:
            prefix[t] = arrow.valuation
        else:
            prefix[h] = w - arrow.valuation
    return tuple(map(sub, prefix[1:], prefix[:-1]))


@record
class TDiagram:
    """A decorated Gauss diagram with ordered signed markings on every edge.
    Construction also counts them, outside the fields: ``marking_count``,
    ``is_nonnegative`` (no -1) and ``is_positive`` (no -1, at least one +1)."""

    base: DecoratedGaussDiagram
    markings: tuple[tuple[int, ...], ...]
    _leveled = _braid = None  # see _stored

    def __post_init__(self) -> None:
        marks = tuple(map(tuple, self.markings))
        if len(marks) != self.base.edge_count:
            raise InvalidDiagram(
                f"expected marking lists for {self.base.edge_count} edges, got {len(marks)}"
            )
        flat = list(chain.from_iterable(marks))
        plus, minus = flat.count(1), flat.count(-1)
        if plus + minus != len(flat):
            bad = next(s for s in flat if s not in (1, -1))
            raise InvalidDiagram(f"marking sign must be +1 or -1, got {bad}")
        _set_field(self, "markings", marks)
        _set_field(self, "marking_count", len(flat))
        _set_field(self, "is_nonnegative", not minus)
        _set_field(self, "is_positive", not minus and plus >= 1)

    def net_counts(self) -> tuple[int, ...]:
        return tuple(map(sum, self.markings))

    def __str__(self) -> str:
        return canonical_serialize(self)


def forget_markings(t: TDiagram) -> DecoratedGaussDiagram:
    return t.base


def assemble_tdiagram(
    tokens: Iterable[tuple[str, int]],
    arrows: Iterable[Arrow],
    circle_valuation: int,
    markings: Iterable[Iterable[int]],
) -> TDiagram:
    """Build a T-diagram with markings indexed by the given token order.

    The base diagram stores a canonical rotation of ``tokens``, so marking
    lists supplied alongside an arbitrary rotation must be re-indexed to the
    stored edge order; this does that bookkeeping.
    """
    g = DecoratedGaussDiagram(tuple(tokens), tuple(arrows), circle_valuation)
    marks = list(map(tuple, markings))
    if len(marks) != g.edge_count:
        raise InvalidDiagram(f"expected {g.edge_count} marking lists, got {len(marks)}")
    return TDiagram(g, tuple(marks[g._rotation:] + marks[:g._rotation]))


@record
class CircleForward:
    """Advance along the circle across one edge, in the circle orientation."""

    edge: int


@record
class ArrowJump:
    """Cross an arrow from one endpoint to the other; ``to`` names the landing end."""

    arrow: int
    to: str  # "head" or "tail"


@record
class DiagramLoop:
    steps: tuple[CircleForward | ArrowJump, ...]


def _loop_endpoints(
    g: DecoratedGaussDiagram, step: CircleForward | ArrowJump
) -> tuple[int, int]:
    """(start token position, end token position) of one step."""
    m = 2 * g.n
    if isinstance(step, CircleForward):
        if not 0 <= step.edge < g.edge_count:
            raise InvalidDiagram(f"loop step crosses unknown edge {step.edge}")
        if g.n == 0:
            return (0, 0)
        return (step.edge, (step.edge + 1) % m)
    if step.to not in ("head", "tail"):
        raise InvalidDiagram(f"arrow jump must land on 'head' or 'tail', got {step.to!r}")
    if step.arrow not in g.arrow_map:
        raise InvalidDiagram(f"loop step jumps unknown arrow {step.arrow}")
    h, t = g.positions[step.arrow]
    return (t, h) if step.to == "head" else (h, t)


def check_loop(g: DecoratedGaussDiagram, loop: DiagramLoop) -> None:
    """Raise unless the loop is a nonempty closed walk on the diagram."""
    if not loop.steps:
        raise InvalidDiagram("a loop needs at least one step")
    ends = [_loop_endpoints(g, s) for s in loop.steps]
    for i, (_, stop) in enumerate(ends):
        start_next = ends[(i + 1) % len(ends)][0]
        if stop != start_next:
            raise InvalidDiagram(
                f"loop step {i} ends at token {stop} but step {i + 1} starts at {start_next}"
            )


def is_reduced(g: DecoratedGaussDiagram, loop: DiagramLoop) -> bool:
    """No arrow jump immediately undone by the reverse jump."""
    steps = loop.steps
    for i, step in enumerate(steps):
        nxt = steps[(i + 1) % len(steps)]
        if (
            isinstance(step, ArrowJump)
            and isinstance(nxt, ArrowJump)
            and step.arrow == nxt.arrow
            and step.to != nxt.to
        ):
            return False
    return True


def loop_homology(g: DecoratedGaussDiagram, loop: DiagramLoop) -> int:
    """Homology class of the loop in the solid torus.

    Equals the number of markings the loop would cross in any valid
    refinement, so it is computed against one fixed integer solution.
    """
    check_loop(g, loop)
    counts = g.reference_counts
    return sum(counts[s.edge] for s in loop.steps if isinstance(s, CircleForward))


def is_full(g: DecoratedGaussDiagram) -> bool:
    """At least one valuation (arrow or circle) is nonzero."""
    return g.circle_valuation != 0 or any(a.valuation != 0 for a in g.arrows)


@record
class ValidationReport:
    ok: bool
    arrow_violations: tuple[tuple[int, int, int], ...]  # (arrow id, expected, actual)
    circle_violation: tuple[int, int] | None  # (expected, actual)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "arrows": [
                {"arrow": a, "expected": e, "actual": x} for a, e, x in self.arrow_violations
            ],
            "circle": None
            if self.circle_violation is None
            else {"expected": self.circle_violation[0], "actual": self.circle_violation[1]},
        }

    @property
    def problems(self) -> tuple[str, ...]:
        """One line per violated valuation: arrows by id, then the circle."""
        lines = [f"arrow {a}: expected {e}, marked {x}" for a, e, x in self.arrow_violations]
        if self.circle_violation is not None:
            e, x = self.circle_violation
            lines.append(f"circle: expected {e}, marked {x}")
        return tuple(lines)


def validate(t: TDiagram) -> ValidationReport:
    """Check every arrow valuation and the circle valuation against the markings.

    O(m): an arrow's total is a difference of prefix sums of the net counts.
    """
    g = t.base
    prefix = list(accumulate(t.net_counts(), initial=0))
    circle_total = prefix[-1]
    bad = []
    for arrow in g.arrows:
        h, tl = g.positions[arrow.id]
        total = prefix[tl] - prefix[h] + (0 if h < tl else circle_total)
        if total != arrow.valuation:
            bad.append((arrow.id, arrow.valuation, total))
    circle = None if circle_total == g.circle_valuation else (g.circle_valuation, circle_total)
    return ValidationReport(not bad and circle is None, tuple(bad), circle)


def require_valid(t: TDiagram) -> None:
    """Raise :class:`InvalidDiagram` unless the markings realize every valuation."""
    report = validate(t)
    if not report.ok:
        raise InvalidDiagram("not a refinement: " + "; ".join(report.problems))


# -- serialization ----------------------------------------------------------


_MARK_TEXT = {1: "M+", -1: "M-"}


@_stored("_texts")
def _token_texts(g: DecoratedGaussDiagram) -> tuple[list[str], str]:
    """The stored tokens' texts, arrows relabelled by first appearance, and
    the arrow lines in that numbering.  Every tied rotation reads the same
    relabelled word, so these serve whichever one a T-diagram starts at."""
    relabel: dict[int, int] = {}
    texts = []
    for kind, arrow in g.tokens:
        texts.append(f"{kind}{relabel.setdefault(arrow, len(relabel) + 1)}")
    lines = []
    for old, new in relabel.items():
        a = g.arrows[old - 1]  # ids are 1..n in order
        lines.append(f"arrow {new} sign {'+' if a.sign == 1 else '-'} val {a.valuation}\n")
    return texts, "".join(lines)


def canonical_serialize(d: DecoratedGaussDiagram | TDiagram) -> str:
    """Deterministic text form, identical for rotated or relabeled copies."""
    g = d if isinstance(d, DecoratedGaussDiagram) else d.base
    texts, arrow_lines = _token_texts(g)
    if g is d:
        items = texts
    elif g.n == 0:  # one edge: its least rotation
        marks = d.markings[0]
        r = _least_rotation(marks)
        items = [_MARK_TEXT[s] for s in marks[r:] + marks[:r]]
    else:
        shift = 0
        if len(g._tied_rotations) > 1:  # ties at 0, p, 2p, ...: compare blocks of p edges
            p = g._tied_rotations[1]
            shift = p * _least_rotation([d.markings[b:b + p] for b in range(0, g.edge_count, p)])
        # token i follows edge i - 1 of the rotation at shift
        start = (shift - 1) % len(texts)
        items = []
        for row, text in zip(d.markings[start:] + d.markings[:start], texts):
            items += map(_MARK_TEXT.__getitem__, row)
            items.append(text)
    seq = ("seq " + " ".join(items)).rstrip()
    return f"circle {g.circle_valuation}\narrows {g.n}\n{seq}\n{arrow_lines}"


def _least_rotation(seq) -> int:
    """The least start of the least rotation of ``seq``, O(len) by the
    two-pointer scan: when the rotations at ``i`` and ``j`` first differ
    ``k`` items in, the greater one's starts up to ``k`` on are beaten too."""
    n, i, j, k = len(seq), 0, 1, 0
    while j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        i, j, k = min(i, j), max(i, j), 0
    return i


_TOKEN_KINDS = ("H", "T")


def _int(value: str, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {value!r}", lineno) from None


def parse_diagram(text: str) -> DecoratedGaussDiagram | TDiagram:
    """Parse the ``.gd`` format; returns a T-diagram iff markings appear.

    T-diagram consistency is not checked here; run :func:`validate` for that.
    """
    lines = text.splitlines()
    fields: dict[str, tuple[int, list[str]]] = {}
    arrow_lines: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        head = parts[0]
        if head == "arrow":
            arrow_lines.append((lineno, parts[1:]))
        elif head in ("circle", "arrows", "seq"):
            if head in fields:
                raise ParseError(f"duplicate '{head}' line", lineno)
            fields[head] = (lineno, parts[1:])
        else:
            raise ParseError(f"unexpected line starting with {head!r}", lineno)
    for need in ("circle", "arrows", "seq"):
        if need not in fields:
            raise ParseError(f"missing '{need}' line")

    lineno, vals = fields["circle"]
    if len(vals) != 1:
        raise ParseError("'circle' takes exactly one integer", lineno)
    circle = _int(vals[0], lineno, "circle valuation")
    lineno, vals = fields["arrows"]
    if len(vals) != 1:
        raise ParseError("'arrows' takes exactly one integer", lineno)
    n = _int(vals[0], lineno, "arrow count")
    if n < 0:
        raise ParseError("arrow count must be >= 0", lineno)

    seq_line, seq_items = fields["seq"]
    tokens: list[Token] = []
    pending: list[int] = []
    leading: list[int] = []
    edge_marks: dict[int, list[int]] = {}
    any_marks = False
    for j, item in enumerate(seq_items):
        if item == "M+" or item == "M-":
            any_marks = True
            pending.append(1 if item == "M+" else -1)
        elif item[:1] in _TOKEN_KINDS and item[1:]:
            arrow_id = _int(item[1:], seq_line, "arrow id")
            if not tokens:
                leading = pending
            else:
                edge_marks[len(tokens) - 1] = pending
            pending = []
            tokens.append(Token(item[:1], arrow_id))
        else:  # the column: each item looked up in the line after the one before
            raw, col = lines[seq_line - 1], 0
            for seen in seq_items[:j + 1]:
                col = raw.index(seen, col) + len(seen)
            col += 1 - len(item)
            if item in _TOKEN_KINDS:
                raise ParseError(f"token {item!r} is missing its arrow id", seq_line, col)
            raise ParseError(f"unknown token {item!r}", seq_line, col)
    if len(tokens) != 2 * n:
        raise ParseError(
            f"'seq' lists {len(tokens)} endpoints but 'arrows {n}' needs {2 * n}", seq_line
        )
    edge_count = max(2 * n, 1)
    edge_marks[edge_count - 1] = pending + leading

    counts: dict[tuple[str, int], int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    for kind in _TOKEN_KINDS:
        for a in range(1, n + 1):
            c = counts.get((kind, a), 0)
            if c == 0:
                raise ParseError(f"missing endpoint {kind}{a}", seq_line)
            if c > 1:
                raise ParseError(f"duplicate endpoint {kind}{a}", seq_line)
    if len(counts) != 2 * n:
        extra = sorted(set(counts) - {(k, a) for k in _TOKEN_KINDS for a in range(1, n + 1)})
        k, a = extra[0]
        raise ParseError(f"endpoint {k}{a} is out of range for {n} arrows", seq_line)

    arrows: dict[int, Arrow] = {}
    for lineno, parts in arrow_lines:
        if len(parts) != 5 or parts[1] != "sign" or parts[3] != "val":
            raise ParseError("arrow line must read 'arrow <k> sign <+|-> val <int>'", lineno)
        aid = _int(parts[0], lineno, "arrow id")
        if parts[2] not in ("+", "-"):
            raise ParseError(f"arrow sign must be + or -, got {parts[2]!r}", lineno)
        if aid in arrows:
            raise ParseError(f"duplicate 'arrow {aid}' line", lineno)
        if not 1 <= aid <= n:
            raise ParseError(f"arrow id {aid} out of range 1..{n}", lineno)
        arrows[aid] = Arrow(aid, 1 if parts[2] == "+" else -1, _int(parts[4], lineno, "valuation"))
    if len(arrows) != n:
        missing = sorted(set(range(1, n + 1)) - set(arrows))
        raise ParseError(f"missing 'arrow {missing[0]}' line")

    arrow_t = tuple(arrows[a] for a in sorted(arrows))
    if not any_marks:
        return DecoratedGaussDiagram(tuple(tokens), arrow_t, circle)
    marks = [edge_marks.get(e, ()) for e in range(edge_count)]
    return assemble_tdiagram(tokens, arrow_t, circle, marks)


# -- loop JSON ---------------------------------------------------------------


def loop_to_json(loop: DiagramLoop) -> list[dict]:
    out = []
    for step in loop.steps:
        if isinstance(step, CircleForward):
            out.append({"step": "circle", "edge": step.edge})
        else:
            out.append({"step": "arrow", "arrow": step.arrow, "to": step.to})
    return out


def loop_from_json(data: list[dict]) -> DiagramLoop:
    steps: list[CircleForward | ArrowJump] = []
    for item in data:
        if item.get("step") == "circle":
            steps.append(CircleForward(int(item["edge"])))
        elif item.get("step") == "arrow":
            steps.append(ArrowJump(int(item["arrow"]), str(item["to"])))
        else:
            raise InvalidDiagram(f"unknown loop step {item!r}")
    return DiagramLoop(tuple(steps))
