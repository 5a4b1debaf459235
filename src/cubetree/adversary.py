"""Adversary structures presented as stagewise enumerations of positive facts.

A fact stream is an append-only sequence of positive atomic facts (W, E, P,
S) about elements of a copy with universe a subset of the naturals.  Each
fact carries a step stamp; a budget-s query sees exactly the facts stamped
at most s, and the age of an element is the stamp of its first occurrence.

Faithful copies replay the ground structure through a permutation of the
element enumeration, with every stamp shifted by a configurable delay; they
are generated incrementally so the constructions can read copies of the very
structure they are building.  Defective variants drop designated facts.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterator
from itertools import takewhile
from typing import NamedTuple

from .structure import (
    CubeElem,
    Elem,
    NatString,
    StringKey,
    UElem,
    UniverseSchedule,
    format_string,
    holds_P,
    ladder_key,
    parse_string,
    sorts,
)

Fact = tuple  # ("W", sigma, sort, x) | ("S", n, x) | ("E", i, x, y) | ("P", x, y)


class _Hole:
    """Placeholder for the unknown element slot in query conjuncts."""

    def __repr__(self) -> str:
        return "?"


HOLE = _Hole()


def format_fact(step: int, fact: Fact) -> str:
    kind = fact[0]
    if kind == "W":
        _, sigma, sort, x = fact
        stok = "-" if sort is None else str(sort)
        return f"{step} W {format_string(sigma)} {stok} {x}"
    if kind == "S":
        _, n, x = fact
        return f"{step} S {n} {x}"
    if kind == "E":
        _, i, x, y = fact
        return f"{step} E {i} {x} {y}"
    _, x, y = fact
    return f"{step} P {x} {y}"


# The fields of each kind of fact line after its step and kind.  Each is a
# number at least 0, save a W fact's string and its sort, "-" for none.
FACT_FIELDS = {"W": ("string", "sort", "element"), "S": ("label", "element"),
               "E": ("color", "element", "element"), "P": ("element", "element")}
# Index of a fact's first element argument: the elements are fact[k:].
FACT_ARG0 = {kind: names.index("element") + 1 for kind, names in FACT_FIELDS.items()}


def _natural(name: str, token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{name} must be a natural number, got {token}")
    return int(token)


def parse_fact_line(line: str, run_sorts: tuple[int | None, ...]) -> tuple[int, Fact]:
    """A fact line's step and fact; a W fact's sort must be one of run_sorts."""
    parts = line.split()
    kind = parts[1] if len(parts) > 1 else ""
    if kind not in FACT_FIELDS:
        raise ValueError(f"bad fact line: {line!r}")
    names = FACT_FIELDS[kind]
    if len(parts) != len(names) + 2:
        raise ValueError(f"{kind} fact needs {len(names) + 2} fields, got {len(parts)}")
    step = _natural("step", parts[0])
    if kind != "W":
        return step, (kind, *map(_natural, names, parts[2:]))
    sort = None if parts[3] == "-" else _natural("sort", parts[3])
    if sort not in run_sorts:
        raise ValueError(f"W sort {parts[3]} is not one of the run's sorts")
    return step, ("W", parse_string(parts[2]), sort, _natural("element", parts[4]))


class FactStream:
    """Ordered fact log with first-occurrence indexes."""

    def __init__(self) -> None:
        self._first: dict[Fact, int] = {}  # fact -> step, in order
        self._age: dict[int, int] = {}
        self._w_index: dict[tuple, list[int]] = {}  # (age, x) order
        self._e_index: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def append(self, step: int, fact: Fact) -> None:
        if self._first and step < next(reversed(self._first.values())):
            raise ValueError("fact steps must be non-decreasing")
        if fact in self._first:
            return  # duplicate enumeration keeps the earliest stamp
        self._first[fact] = step
        for x in fact[FACT_ARG0[fact[0]]:]:
            self._age.setdefault(x, step)
        if fact[0] == "W":
            # An element's age is set by its first mention, at latest this one.
            insort(self._w_index.setdefault((fact[1], fact[2]), []), fact[3],
                   key=lambda x: (self._age[x], x))
        elif fact[0] == "E":
            self._e_index.setdefault((fact[1], fact[2]), []).append((step, fact[3]))

    def __len__(self) -> int:
        return len(self._first)

    def holds_within(self, fact: Fact, budget: int) -> bool:
        step = self._first.get(fact)
        return step is not None and step <= budget

    def age(self, x: int) -> int | None:
        return self._age.get(x)

    def elements(self, budget: int) -> list[int]:
        return sorted(
            (x for x, a in self._age.items() if a <= budget),
            key=lambda x: (self._age[x], x),
        )

    def facts_within(self, budget: int) -> list[tuple[int, Fact]]:
        rows = ((step, fact) for fact, step in self._first.items())
        return list(takewhile(lambda row: row[0] <= budget, rows))

    def witnesses_W(self, sigma: NatString, sort: int | None, budget: int) -> list[int]:
        xs = self._w_index.get((tuple(sigma), sort), [])
        return [x for x in xs if self._first[("W", tuple(sigma), sort, x)] <= budget]

    def edge_targets(self, color: int, x: int, budget: int) -> list[int]:
        """Neighbors of x across the given edge color, oldest first."""
        hits = [(s, y) for s, y in self._e_index.get((color, x), []) if s <= budget]
        return [y for _s, y in sorted(hits)]

    def oldest_satisfying(self, conjuncts: list[Fact], budget: int) -> int | None:
        """Oldest x (earliest first mention, ties to smaller x) satisfying a
        conjunction of positive facts with HOLE marking the unknown slot.  The
        first conjunct is a W fact on HOLE; its witnesses come in that order."""
        (_, sigma, sort, _), rest = conjuncts[0], conjuncts[1:]
        for x in self.witnesses_W(sigma, sort, budget):
            if all(self.holds_within(_instantiate(c, x), budget) for c in rest):
                return x
        return None

    def to_lines(self) -> Iterator[str]:
        """The fact file's lines, in order, formatted as they are read."""
        return (format_fact(s, f) for f, s in self._first.items())


def _instantiate(conjunct: Fact, x: int) -> Fact:
    return tuple(x if part is HOLE else part for part in conjunct)


def stream_from_lines(lines, run_sorts: tuple[int | None, ...],
                      source: str = "fact lines") -> FactStream:
    """Parse a fact file's lines; errors name the source and the line."""
    rows = []
    for k, line in enumerate(lines, 1):
        if line.strip() and not line.startswith("#"):
            try:
                rows.append(parse_fact_line(line, run_sorts))
            except ValueError as exc:
                from .config import ConfigError  # deferred: config imports this module

                raise ConfigError(f"{source}, line {k}: {exc}") from None
    rows.sort(key=lambda r: r[0])
    stream = FactStream()
    for step, fact in rows:
        stream.append(step, fact)
    return stream


# ---------------------------------------------------------------------------
# Permutations of the copy's element numbering.

class PermSpec(NamedTuple):
    kind: str = "identity"  # "identity" | "block_rotate"
    block: int = 1
    shift: int = 0

    def apply(self, i: int) -> int:
        if self.kind == "identity":
            return i
        if self.kind == "block_rotate":
            base = self.block * (i // self.block)
            return base + (i % self.block + self.shift) % self.block
        raise ValueError(f"unknown permutation kind {self.kind!r}")


class Defect(NamedTuple):
    kind: str  # "omit_label" | "break_p" | "freeze_after"
    n: int | None = None
    sigma: NatString | None = None
    j: int | None = None
    sort: int | None = None
    step: int | None = None


# ---------------------------------------------------------------------------
# Faithful copies, generated stage by stage from the ground structure.

class Adversary:
    """A fact stream plus (for generated copies) its ground truth."""

    def __init__(self, stream: FactStream, label: str = "adversary", *,
                 to_copy: dict[Elem, int] | None = None, delay: int = 0) -> None:
        self.stream = stream
        self.label = label
        self.to_ground: dict[int, Elem] = {}
        self.to_copy = {} if to_copy is None else to_copy
        self.delay = delay


class Incidence:
    """The E and P relation among the elements added so far.

    Cube elements are filed under their (sigma, sort) key in the order
    added, each key with the sorted last symbols of its child keys; the u
    pair, if present, is added before any cube element.  `ids` names the
    elements and may be shared with a copy's `to_copy`.
    """

    def __init__(self, ids: dict[Elem, int] | None = None) -> None:
        self.ids = {} if ids is None else ids
        self.by_key: dict[StringKey, list[CubeElem]] = {}
        self.children: dict[StringKey, list[int]] = {}
        self.us: list[UElem] = []

    def add(self, e: Elem, x: int) -> None:
        self.ids[e] = x
        if isinstance(e, UElem):
            self.us.append(e)
            return
        group = self.by_key.get((e.sigma, e.sort))
        if group is None:
            group = self.by_key[(e.sigma, e.sort)] = []
            if e.sigma:
                insort(self.children.setdefault((e.sigma[:-1], e.sort), []), e.sigma[-1])
        group.append(e)

    def links(self, e: CubeElem) -> Iterator[Fact]:
        """The facts between cube element e and the elements added so far: E
        both ways to each neighbour on e's key, P from each parent, P to each
        child, then P from the u pair."""
        ids = self.ids
        x = ids[e]
        for other in self.by_key[(e.sigma, e.sort)]:
            diff = other.fset ^ e.fset
            if len(diff) == 1:
                (i,) = diff
                y = ids[other]
                yield ("E", i, x, y)
                yield ("E", i, y, x)
        if e.sigma:
            for other in self.by_key.get((e.sigma[:-1], e.sort), ()):
                if holds_P(other, e):
                    yield ("P", ids[other], x)
        for j in self.children.get((e.sigma, e.sort), ()):
            for other in self.by_key[(e.sigma + (j,), e.sort)]:
                if holds_P(e, other):
                    yield ("P", x, ids[other])
        for u in self.us:
            if holds_P(u, e):
                yield ("P", ids[u], x)


class FaithfulGenerator:
    """Incrementally enumerates the ground structure as a fact stream.

    ingest(stage, ground) must be called once per ground stage in order,
    after the stage's declarations are final; the ground is a running or a
    finished engine, read up to the stage.  Elements enter in a canonical
    ladder: the u pair first (two-sorted variant), then per stage the strings
    entering the slice crossed with the vertex support window, strings
    ordered by (birth, length, lex) and vertices by (size, lex).  Label facts
    are emitted with stamp max(declaration stage, visibility stage) plus
    delay; labels on any one element are emitted in index order, which
    matches the contiguous way the construction declares them.
    """

    def __init__(
        self,
        variant: str,
        schedule: UniverseSchedule,
        permutation: PermSpec = PermSpec(),
        delay: int = 1,
        defects: tuple[Defect, ...] = (),
        label: str = "faithful",
    ) -> None:
        self.variant = variant
        self.schedule = schedule
        self.permutation = permutation
        self.delay = delay
        self.defects = tuple(defects)
        self.adversary = Adversary(FactStream(), label=label, delay=delay)
        self.index = Incidence(self.adversary.to_copy)
        self._next_label: dict[CubeElem, int] = {}
        self._frozen = False

    def _alloc(self, e: Elem) -> None:
        x = self.permutation.apply(len(self.adversary.to_ground))
        self.adversary.to_ground[x] = e
        self.index.add(e, x)

    def _emit(self, step: int, fact: Fact) -> None:
        if self._frozen:
            return
        for d in self.defects:
            if d.kind == "freeze_after" and step > d.step:
                self._frozen = True
                return
            if d.kind == "omit_label" and fact[0] == "S":
                ge = self.adversary.to_ground[fact[2]]
                if (
                    isinstance(ge, CubeElem)
                    and fact[1] == d.n
                    and ge.sigma == d.sigma
                    and (d.sort is None or ge.sort == d.sort)
                ):
                    return
            if d.kind == "break_p" and fact[0] == "P":
                ge1 = self.adversary.to_ground[fact[1]]
                ge2 = self.adversary.to_ground[fact[2]]
                if (
                    isinstance(ge1, CubeElem)
                    and isinstance(ge2, CubeElem)
                    and ge1.sigma == d.sigma
                    and ge2.sigma == d.sigma + (d.j,)
                    and (d.sort is None or ge1.sort == d.sort)
                ):
                    return
        self.adversary.stream.append(step, fact)

    def _emit_labels(self, step: int, e: CubeElem, store, stage: int) -> None:
        """Emit e's labels stamped by stage that are not out yet.  On every
        vertex the labels are a prefix S_0, S_1, ... whose stamps never
        decrease in n, so the top label stamped by stage bounds them."""
        top = store.top_label(e, before=stage + 1)
        end = 0 if top is None else top + 1
        x = self.adversary.to_copy[e]
        for n in range(self._next_label.get(e, 0), end):
            self._emit(step, ("S", n, x))
        self._next_label[e] = end

    def ingest(self, stage: int, ground) -> None:
        """Reveal the ground's stage: the strings entering its slice (final
        once the stage ends, since a chosen string enters at its birth, after
        the stage that chose it) and the labels stamped in it.  Only the keys
        the store relabelled in the stage get fresh labels on old elements."""
        step = stage + self.delay
        store = ground.store
        sort_values = sorts(self.variant)
        new_elems: list[Elem] = []
        if stage == 1 and self.variant == "dc":
            new_elems.extend(UElem(k) for k in (0, 1))
        fsets = self.schedule.fsets(stage)
        before = self.schedule.fsets(stage - 1)  # the vertex window only grows
        widened = [f for f in fsets if f not in before]
        for sigma in ground.universe_strings(stage - 1) if widened else ():
            for f in widened:
                for sort in sort_values:
                    new_elems.append(CubeElem(f, sigma, sort))
        for sigma in ground.entering(stage):
            for f in fsets:
                for sort in sort_values:
                    new_elems.append(CubeElem(f, sigma, sort))
        # The whole batch is filed before any links are read, so a link
        # inside the batch comes out twice and the stream keeps the first.
        for e in new_elems:
            self._alloc(e)
        cube = [e for e in new_elems if isinstance(e, CubeElem)]
        for e in cube:
            self._emit(step, ("W", e.sigma, e.sort, self.adversary.to_copy[e]))
        for e in cube:
            for fact in self.index.links(e):
                self._emit(step, fact)
        # Label backlog for new elements, fresh declarations for relabelled
        # keys.  A key relabelled by a direct declaration is a string entering
        # this stage, whose backlog already holds it.
        for e in cube:
            self._emit_labels(step, e, store, stage)
        relabelled = set(store.relabelled(stage))
        for key in sorted(relabelled, key=lambda k: (ladder_key(k[0]), -1 if k[1] is None else k[1])):
            for e in self.index.by_key.get(key, []):
                self._emit_labels(step, e, store, stage)


def make_faithful_copy(
    ground,
    permutation: PermSpec = PermSpec(),
    delay: int = 1,
    defects: tuple[Defect, ...] = (),
    label: str = "faithful",
) -> Adversary:
    """Post-hoc faithful copy of a completed run (identical facts to what the
    live generator produces during the run)."""
    gen = FaithfulGenerator(
        ground.variant, ground.schedule, permutation, delay, defects, label
    )
    for stage in range(1, ground.horizon + 1):
        gen.ingest(stage, ground)
    return gen.adversary
