"""Adversary structures presented as stagewise enumerations of positive facts.

A fact stream is an append-only sequence of positive atomic facts (W, E, P,
S) about elements of a copy with universe a subset of the naturals.  Each
fact carries a step stamp; a budget-s query sees exactly the facts stamped
at most s, and the age of an element is the stamp of its first occurrence.

Faithful copies replay one stagewise enumeration of the ground structure per
run through a permutation, with every stamp shifted by a delay, so the
constructions can read copies of the very structure they are building.
Defective variants drop designated facts.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Iterator
from itertools import chain, takewhile
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
        self.extend(step, (fact,))

    def extend(self, step: int, facts: Iterable[Fact]) -> None:
        """Append facts stamped step; a fact already in keeps its stamp."""
        first, age = self._first, self._age
        if first and step < next(reversed(first.values())):
            raise ValueError("fact steps must be non-decreasing")
        for fact in facts:
            if fact in first:
                continue  # duplicate enumeration keeps the earliest stamp
            first[fact] = step
            kind, x = fact[0], fact[-1]
            age.setdefault(x, step)
            if kind in ("E", "P"):
                age.setdefault(fact[-2], step)
            if kind == "W":
                # An element's age is set by its first mention, at latest this one.
                insort(self._w_index.setdefault(fact[1:3], []), x, key=lambda z: (age[z], z))
            elif kind == "E":
                self._e_index.setdefault(fact[1:3], []).append((step, x))

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
    """The E and P relation among the elements of `elems` added so far, each
    named by its place there (for the ground enumeration, its allocation index).

    Cube elements are filed under their (sigma, sort) key in the order added,
    and each key with the sorted last symbols of its child keys; the u pair,
    if present, is added before any cube element.
    """

    def __init__(self, elems: list[Elem]) -> None:
        self.elems = elems
        self.by_key: dict[StringKey, list[int]] = {}
        self.children: dict[StringKey, list[int]] = {}
        self.us: list[int] = []

    def add(self, x: int) -> None:
        e = self.elems[x]
        if isinstance(e, UElem):
            self.us.append(x)
            return
        group = self.by_key.get((e.sigma, e.sort))
        if group is None:
            group = self.by_key[(e.sigma, e.sort)] = []
            if e.sigma:
                insort(self.children.setdefault((e.sigma[:-1], e.sort), []), e.sigma[-1])
        group.append(x)

    def links(self, x: int) -> Iterator[Fact]:
        """The facts between cube element x and the elements added so far: E
        both ways to each neighbour on its key, P from each parent, P to each
        child, then P from the u pair."""
        elems, e = self.elems, self.elems[x]
        for y in self.by_key[(e.sigma, e.sort)]:
            diff = elems[y].fset ^ e.fset
            if len(diff) == 1:
                (i,) = diff
                yield ("E", i, x, y)
                yield ("E", i, y, x)
        if e.sigma:
            for y in self.by_key.get((e.sigma[:-1], e.sort), ()):
                if holds_P(elems[y], e):
                    yield ("P", y, x)
        for j in self.children.get((e.sigma, e.sort), ()):
            for y in self.by_key[(e.sigma + (j,), e.sort)]:
                if holds_P(e, elems[y]):
                    yield ("P", x, y)
        for y in self.us:
            if holds_P(elems[y], e):
                yield ("P", y, x)


class GroundEnumeration:
    """The ground structure enumerated once per run for all its faithful copies.

    Elements enter in a canonical ladder: the u pair first (two-sorted
    variant), then per stage the strings entering the slice crossed with the
    vertex support window, strings ordered by (birth, length, lex) and
    vertices by (size, lex).  Each is named by its allocation index, its
    place in `elems`.  The ground is a running or a finished engine.
    """

    def __init__(self, variant: str, schedule: UniverseSchedule) -> None:
        self.variant = variant
        self.schedule = schedule
        self.elems: list[Elem] = []
        self.index = Incidence(self.elems)
        self._next_label: list[int] = []  # per allocation index
        self._window = schedule.fsets(0)
        self.stage = 0
        self.facts: list[Fact] = []

    def batch(self, stage: int, ground) -> list[Fact]:
        """The stage's facts over allocation indices, built on the first call
        for it: its new cube elements' W facts, links and label backlog, then
        fresh labels on the keys relabelled in it.  Stages come in order, each
        once final (a chosen string enters at its birth, after the stage that
        chose it).  On every vertex the labels are a prefix S_0, S_1, ...
        whose stamps never decrease in n, so one top label per element and
        relabelling finds those stamped by the stage."""
        if stage == self.stage:
            return self.facts
        store = ground.store
        sort_values = sorts(self.variant)
        new: list[Elem] = [UElem(0), UElem(1)] if stage == 1 and self.variant == "dc" else []
        fsets = self.schedule.fsets(stage)
        widened = [f for f in fsets if f not in self._window]  # the window only grows
        self._window = fsets
        for sigma in ground.universe_strings(stage - 1) if widened else ():
            new.extend(CubeElem(f, sigma, sort) for f in widened for sort in sort_values)
        for sigma in ground.entering(stage):
            new.extend(CubeElem(f, sigma, sort) for f in fsets for sort in sort_values)
        # The whole batch is filed before any links are read, so a link
        # inside the batch comes out twice and each stream keeps the first.
        elems, added = self.elems, list(range(len(self.elems), len(self.elems) + len(new)))
        elems += new
        self._next_label += [0] * len(new)
        for x in added:
            self.index.add(x)
        cube = [x for x in added if isinstance(elems[x], CubeElem)]
        facts: list[Fact] = [("W", elems[x].sigma, elems[x].sort, x) for x in cube]
        for x in cube:
            facts.extend(self.index.links(x))
        # Label backlog for new elements, then fresh labels on relabelled keys
        # (one relabelled by a direct declaration enters now: it has a backlog).
        keys = sorted(set(store.relabelled(stage)),
                      key=lambda k: (ladder_key(k[0]), -1 if k[1] is None else k[1]))
        for x in chain(cube, *(self.index.by_key.get(key, ()) for key in keys)):
            top = store.top_label(elems[x], before=stage + 1)
            end = 0 if top is None else top + 1
            facts.extend(("S", n, x) for n in range(self._next_label[x], end))
            self._next_label[x] = end
        self.stage, self.facts = stage, facts
        return facts


def _renamed(fact: Fact, ids: list[int]) -> Fact:
    """The fact with each allocation index i replaced by ids[i]."""
    kind = fact[0]
    if kind == "W":
        return ("W", fact[1], fact[2], ids[fact[3]])
    if kind == "S":
        return ("S", fact[1], ids[fact[2]])
    if kind == "E":
        return ("E", fact[1], ids[fact[2]], ids[fact[3]])
    return ("P", ids[fact[1]], ids[fact[2]])


class FaithfulGenerator:
    """A faithful copy of the ground, written from the run's shared enumeration.

    ingest(stage, ground) is called once per ground stage in order.  The
    first copy to ingest a stage has the enumeration build its batch; each
    copy names allocation index i `permutation.apply(i)`, stamps the batch
    stage plus its delay and drops single facts by its defects.  The batch's
    order and dedup do not depend on the delay or on the permutation, a
    bijection, so each stream is the one the copy would enumerate alone.
    """

    def __init__(self, enumeration: GroundEnumeration, permutation: PermSpec = PermSpec(),
                 delay: int = 1, defects: tuple[Defect, ...] = (), label: str = "faithful") -> None:
        self.enumeration = enumeration
        self.permutation = permutation
        self.defects = tuple(defects)
        self.adversary = Adversary(FactStream(), label=label, delay=delay)
        self.ids: list[int] = []  # allocation index -> copy element

    def ingest(self, stage: int, ground) -> None:
        enumeration = self.enumeration
        facts = enumeration.batch(stage, ground)
        ids, to_ground, to_copy = self.ids, self.adversary.to_ground, self.adversary.to_copy
        for i in range(len(ids), len(enumeration.elems)):
            e, x = enumeration.elems[i], self.permutation.apply(i)
            ids.append(x)
            to_ground[x], to_copy[e] = e, x
        step = stage + self.adversary.delay
        if self.defects:
            if any(d.kind == "freeze_after" and step > d.step for d in self.defects):
                return
            facts = [fact for fact in facts if self._kept(fact)]
        if self.permutation.kind != "identity":
            facts = [_renamed(fact, ids) for fact in facts]
        self.adversary.stream.extend(step, facts)

    def _kept(self, fact: Fact) -> bool:
        """False when one of the copy's defects drops the fact."""
        elems = self.enumeration.elems
        for d in self.defects:
            if d.kind == "omit_label" and fact[0] == "S" and fact[1] == d.n:
                ge = elems[fact[2]]
                if isinstance(ge, CubeElem) and ge.sigma == d.sigma and d.sort in (None, ge.sort):
                    return False
            if d.kind == "break_p" and fact[0] == "P":
                ge1, ge2 = elems[fact[1]], elems[fact[2]]
                if (isinstance(ge1, CubeElem) and isinstance(ge2, CubeElem) and ge1.sigma == d.sigma
                        and ge2.sigma == d.sigma + (d.j,) and d.sort in (None, ge1.sort)):
                    return False
        return True


def make_faithful_copy(
    ground,
    permutation: PermSpec = PermSpec(),
    delay: int = 1,
    defects: tuple[Defect, ...] = (),
    label: str = "faithful",
) -> Adversary:
    """Post-hoc faithful copy of a completed run: one ground enumeration over
    its stages, mapped as a live copy maps it (identical facts)."""
    gen = FaithfulGenerator(GroundEnumeration(ground.variant, ground.schedule),
                            permutation, delay, defects, label)
    for stage in range(1, ground.horizon + 1):
        gen.ingest(stage, ground)
    return gen.adversary
