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

from bisect import bisect_right
from dataclasses import dataclass, field

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


def fact_args(fact: Fact) -> tuple[int, ...]:
    """Element arguments of a fact."""
    kind = fact[0]
    if kind == "W":
        return (fact[3],)
    if kind == "S":
        return (fact[2],)
    if kind == "E":
        return (fact[2], fact[3])
    if kind == "P":
        return (fact[1], fact[2])
    raise ValueError(f"unknown fact kind {kind!r}")


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


# Whitespace-separated fields of a fact line, step and kind included.
FACT_FIELDS = {"W": 5, "S": 4, "E": 5, "P": 4}


def parse_fact_line(line: str) -> tuple[int, Fact]:
    parts = line.split()
    kind = parts[1] if len(parts) > 1 else ""
    if kind not in FACT_FIELDS:
        raise ValueError(f"bad fact line: {line!r}")
    if len(parts) != FACT_FIELDS[kind]:
        raise ValueError(f"{kind} fact needs {FACT_FIELDS[kind]} fields, got {len(parts)}")
    step = int(parts[0])
    if kind == "W":
        sort = None if parts[3] == "-" else int(parts[3])
        return step, ("W", parse_string(parts[2]), sort, int(parts[4]))
    if kind == "S":
        return step, ("S", int(parts[2]), int(parts[3]))
    if kind == "E":
        return step, ("E", int(parts[2]), int(parts[3]), int(parts[4]))
    return step, ("P", int(parts[2]), int(parts[3]))


@dataclass
class FactStream:
    """Ordered fact log with first-occurrence indexes."""

    _steps: list[int] = field(default_factory=list)
    _facts: list[Fact] = field(default_factory=list)
    _first: dict[Fact, int] = field(default_factory=dict)
    _age: dict[int, int] = field(default_factory=dict)
    _w_index: dict[tuple, list[int]] = field(default_factory=dict)
    _e_index: dict[tuple[int, int], list[tuple[int, int]]] = field(default_factory=dict)

    def append(self, step: int, fact: Fact) -> None:
        if self._steps and step < self._steps[-1]:
            raise ValueError("fact steps must be non-decreasing")
        if fact in self._first:
            return  # duplicate enumeration keeps the earliest stamp
        self._steps.append(step)
        self._facts.append(fact)
        self._first[fact] = step
        for x in fact_args(fact):
            self._age.setdefault(x, step)
        if fact[0] == "W":
            self._w_index.setdefault((fact[1], fact[2]), []).append(fact[3])
        elif fact[0] == "E":
            self._e_index.setdefault((fact[1], fact[2]), []).append((step, fact[3]))

    def __len__(self) -> int:
        return len(self._facts)

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
        hi = bisect_right(self._steps, budget)
        return list(zip(self._steps[:hi], self._facts[:hi]))

    def witnesses_W(self, sigma: NatString, sort: int | None, budget: int) -> list[int]:
        xs = self._w_index.get((tuple(sigma), sort), [])
        return [x for x in xs if self._first[("W", tuple(sigma), sort, x)] <= budget]

    def edge_targets(self, color: int, x: int, budget: int) -> list[int]:
        """Neighbors of x across the given edge color, oldest first."""
        hits = [(s, y) for s, y in self._e_index.get((color, x), []) if s <= budget]
        return [y for _s, y in sorted(hits)]

    def oldest_satisfying(self, conjuncts: list[Fact], budget: int) -> int | None:
        """Oldest x (earliest first mention, ties to smaller x) satisfying a
        conjunction of positive facts with None marking the unknown slot."""
        pool: list[int] | None = None
        for c in conjuncts:
            if c[0] == "W" and c[3] is HOLE:
                pool = self.witnesses_W(c[1], c[2], budget)
                break
        if pool is None:
            pool = [x for x, a in self._age.items() if a <= budget]
        pool = sorted(set(pool), key=lambda x: (self._age[x], x))
        for x in pool:
            if all(self.holds_within(_instantiate(c, x), budget) for c in conjuncts):
                return x
        return None

    def to_lines(self) -> list[str]:
        return [format_fact(s, f) for s, f in zip(self._steps, self._facts)]


def _instantiate(conjunct: Fact, x: int) -> Fact:
    return tuple(x if part is HOLE else part for part in conjunct)


def stream_from_lines(lines, source: str = "fact lines") -> FactStream:
    """Parse a fact file's lines; errors name the source and the line."""
    rows = []
    for k, line in enumerate(lines, 1):
        if line.strip() and not line.startswith("#"):
            try:
                rows.append(parse_fact_line(line))
            except ValueError as exc:
                raise ValueError(f"{source}, line {k}: {exc}") from None
    rows.sort(key=lambda r: r[0])
    stream = FactStream()
    for step, fact in rows:
        stream.append(step, fact)
    return stream


# ---------------------------------------------------------------------------
# Permutations of the copy's element numbering.

@dataclass(frozen=True)
class PermSpec:
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


@dataclass(frozen=True)
class Defect:
    kind: str  # "omit_label" | "break_p" | "freeze_after"
    n: int | None = None
    sigma: NatString | None = None
    j: int | None = None
    sort: int | None = None
    step: int | None = None


# ---------------------------------------------------------------------------
# Faithful copies, generated stage by stage from the ground structure.

@dataclass
class Adversary:
    """A fact stream plus (for generated copies) its ground truth."""

    stream: FactStream
    label: str = "adversary"
    to_ground: dict[int, Elem] = field(default_factory=dict)
    to_copy: dict[Elem, int] = field(default_factory=dict)
    delay: int = 0
    permutation: PermSpec | None = None

    def ground_of(self, x: int) -> Elem | None:
        return self.to_ground.get(x)

    def copy_of(self, e: Elem) -> int | None:
        return self.to_copy.get(e)


class FaithfulGenerator:
    """Incrementally enumerates the ground structure as a fact stream.

    ingest(stage, ...) must be called once per ground stage in order, after
    the stage's declarations are final.  Elements enter in a canonical
    ladder: the u pair first (two-sorted variant), then per stage the newly
    visible strings crossed with the vertex support window, strings ordered
    by (birth, length, lex) and vertices by (size, lex).  Label facts are
    emitted with stamp max(declaration stage, visibility stage) plus delay;
    labels on any one element are emitted in index order, which matches the
    contiguous way the construction declares them.
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
        self.adversary = Adversary(
            FactStream(), label=label, delay=delay, permutation=permutation
        )
        self._positions = 0
        self._visible: dict[Elem, int] = {}
        self._by_string: dict[StringKey, list[CubeElem]] = {}
        self._strings: set[NatString] = set()
        self._fsets: list = []
        self._next_label: dict[CubeElem, int] = {}
        self._frozen = False

    def _alloc(self, e: Elem) -> int:
        x = self.permutation.apply(self._positions)
        self._positions += 1
        self._visible[e] = x
        self.adversary.to_ground[x] = e
        self.adversary.to_copy[e] = x
        if isinstance(e, CubeElem):
            self._by_string.setdefault((e.sigma, e.sort), []).append(e)
        return x

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

    def _emit_labels(self, step: int, e: CubeElem, store, upto_stage: int) -> None:
        n = self._next_label.get(e, 0)
        while True:
            stamp = store.label_stamp(n, e)
            if stamp is None or stamp > upto_stage:
                break
            self._emit(step, ("S", n, self._visible[e]))
            n += 1
        self._next_label[e] = n

    def ingest(
        self,
        stage: int,
        store,
        chosen_birth: dict[NatString, int],
        touched: set[StringKey] | None = None,
    ) -> None:
        """Reveal stage's new elements and declarations.  `touched` limits the
        fresh-label sweep to strings that gained labels this stage; None
        sweeps everything (slow, used by tests)."""
        step = stage + self.delay
        sort_values = sorts(self.variant)
        new_elems: list[Elem] = []
        if stage == 1 and self.variant == "dc":
            new_elems.extend(UElem(k) for k in (0, 1))
        universe = set(self.schedule.base_strings(stage))
        universe.update(s for s, b in chosen_birth.items() if b <= stage)
        new_strings = sorted(universe - self._strings, key=ladder_key)
        fsets = self.schedule.fsets(stage)
        new_fsets = [f for f in fsets if f not in self._fsets]
        for sigma in sorted(self._strings, key=ladder_key):
            for f in new_fsets:
                for sort in sort_values:
                    new_elems.append(CubeElem(f, sigma, sort))
        for sigma in new_strings:
            for f in fsets:
                for sort in sort_values:
                    new_elems.append(CubeElem(f, sigma, sort))
        self._strings.update(new_strings)
        self._fsets = fsets

        for e in new_elems:
            self._alloc(e)
        for e in new_elems:
            if isinstance(e, CubeElem):
                self._emit(step, ("W", e.sigma, e.sort, self._visible[e]))
        # Structural facts touching the new elements.
        for e in new_elems:
            if not isinstance(e, CubeElem):
                continue
            x = self._visible[e]
            for other in self._by_string.get((e.sigma, e.sort), []):
                if other == e:
                    continue
                diff = other.fset ^ e.fset
                if len(diff) == 1:
                    i = next(iter(diff))
                    y = self._visible[other]
                    self._emit(step, ("E", i, x, y))
                    self._emit(step, ("E", i, y, x))
            for parent_sigma in (e.sigma[:-1],) if e.sigma else ():
                for other in self._by_string.get((parent_sigma, e.sort), []):
                    if holds_P(other, e):
                        self._emit(step, ("P", self._visible[other], x))
            # Links to already-visible children of the new element.
            for j in sorted({t[len(e.sigma)] for t in self._strings
                             if len(t) == len(e.sigma) + 1 and t[: len(e.sigma)] == e.sigma}):
                for other in self._by_string.get((e.sigma + (j,), e.sort), []):
                    if holds_P(e, other):
                        self._emit(step, ("P", x, self._visible[other]))
            if self.variant == "dc":
                for k in (0, 1):
                    u = UElem(k)
                    if u in self._visible and holds_P(u, e):
                        self._emit(step, ("P", self._visible[u], x))
        # Label backlog for new elements, fresh declarations for touched strings.
        for e in new_elems:
            if isinstance(e, CubeElem):
                self._emit_labels(step, e, store, stage)
        keys = touched if touched is not None else set(self._by_string)
        for key in sorted(keys, key=lambda k: (ladder_key(k[0]), -1 if k[1] is None else k[1])):
            for e in self._by_string.get(key, []):
                self._emit_labels(step, e, store, stage)

    def result(self) -> Adversary:
        return self.adversary


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
    touched = ground.touched_by_stage()
    for stage in range(1, ground.horizon + 1):
        gen.ingest(stage, ground.store, ground.chosen_birth, touched.get(stage, set()))
    return gen.result()


def make_defective_copy(ground, defect: Defect, **kwargs) -> Adversary:
    return make_faithful_copy(ground, defects=(defect,), label="defective", **kwargs)
