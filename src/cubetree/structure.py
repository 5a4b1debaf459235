"""The labeled structure in both variants, with its c.e. label bookkeeping.

The universe couples a cube vertex (a finite set) with a tree address (a
finite string of naturals) and, in the two-sorted variant, a sort bit plus
the two distinguished elements u0/u1.  W, E and P are decidable and defined
here directly.  The S_n labels are declared stagewise; `LabelStore` records
the declaration *events* (growth events and direct declarations) and answers
membership/stamp queries lazily, since a single growth event implies labels
on every vertex below the stage bound.

The stage-s slice of the universe follows a configurable schedule: a width
function W(s) gives the breadth-covered strings W(s)^{<W(s)}, and strings
chosen by strategies enter at their natural birth stage (the first s with
sigma in s^{<s}).  With rate=1 and no cap the schedule is the literal
s^{<s} ladder.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

NatString = tuple[int, ...]


class VariantMismatch(ValueError):
    """Element or query does not fit the structure variant."""


class UndefinedLabel(LookupError):
    """n_sigma consulted before any label exists on the empty-set vertex."""


class GrowOutOfOrder(ValueError):
    """A string grew at a stage below its last growth: the stage loop is broken."""


class Record:
    """An immutable record where a NamedTuple does not fit: a kind that must not
    equal another kind with equal fields, or that checks or derives a field.  A
    subclass names its fields in `_fields` and `__slots__`."""

    __slots__ = ("_values",)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        set_field = object.__setattr__
        set_field(self, "_values", values)
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __reduce__(self):
        return type(self), self._values

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values)
        return f"{type(self).__name__}({', '.join(fields)})"


class CubeElem(NamedTuple):
    fset: frozenset[int]
    sigma: NatString
    sort: int | None = None  # None in the single-sorted variant


class UElem(NamedTuple):
    k: int  # 0 or 1


Elem = CubeElem | UElem


def sorts(variant: str) -> tuple[int | None, ...]:
    """The sort values of a variant: None alone when single-sorted."""
    return (None,) if variant == "cc" else (0, 1)


def elem(fset, sigma, sort=None) -> CubeElem:
    return CubeElem(frozenset(fset), tuple(sigma), sort)


# ---------------------------------------------------------------------------
# Canonical element syntax: {0,2}@<1,4>, optionally #0/#1 for the sort,
# and u0/u1 for the distinguished pair.

def format_string(sigma: NatString) -> str:
    return "<" + ",".join(str(i) for i in sigma) + ">"


def parse_string(text: str) -> NatString:
    m = re.fullmatch(r"<((?:[0-9]+(?:,[0-9]+)*)?)>", text)
    if not m:
        raise ValueError(f"bad string token: {text!r}")
    body = m.group(1)
    return tuple(int(p) for p in body.split(",")) if body else ()


def format_elem(e: Elem) -> str:
    if isinstance(e, UElem):
        return f"u{e.k}"
    fpart = "{" + ",".join(str(i) for i in sorted(e.fset)) + "}"
    spart = format_string(e.sigma)
    tail = "" if e.sort is None else f"#{e.sort}"
    return f"{fpart}@{spart}{tail}"


# ---------------------------------------------------------------------------
# Decidable relations W, E, P.

def holds_W(sigma: NatString, sort: int | None, e: Elem) -> bool:
    """W_sigma (single-sorted) or W^Q_sigma / W^R_sigma (sort 0 / 1)."""
    if isinstance(e, UElem):
        return False
    if (sort is None) != (e.sort is None):
        raise VariantMismatch(f"sort {sort!r} against element {format_elem(e)}")
    return e.sigma == tuple(sigma) and e.sort == sort


def holds_E(i: int, e1: Elem, e2: Elem) -> bool:
    if isinstance(e1, UElem) or isinstance(e2, UElem):
        return False
    return (
        e1.sigma == e2.sigma
        and e1.sort == e2.sort
        and e1.fset ^ e2.fset == {i}
    )


def holds_P(e1: Elem, e2: Elem) -> bool:
    if isinstance(e1, UElem):
        return (
            isinstance(e2, CubeElem)
            and e2.sort == 0
            and e2.sigma == ()
            and (e1.k + len(e2.fset)) % 2 == 0
        )
    if isinstance(e2, UElem):
        return False
    if e1.sort != e2.sort:
        return False
    if len(e2.sigma) != len(e1.sigma) + 1 or e2.sigma[: len(e1.sigma)] != e1.sigma:
        return False
    i = e2.sigma[-1]
    if len(e2.fset) % 2 == 0:
        return i not in e1.fset
    return i in e1.fset


# ---------------------------------------------------------------------------
# Universe schedule.

def birth_stage(sigma: NatString) -> int:
    """First s with sigma in s^{<s}."""
    top = max(sigma) + 1 if sigma else 1
    return max(len(sigma) + 1, top)


def ladder_key(sigma: NatString) -> tuple:
    """Ladder order of strings: birth stage, then length, then lex."""
    return (birth_stage(sigma), len(sigma), sigma)


class UniverseSchedule(NamedTuple):
    """Growth schedule for the breadth-covered slice of omega^{<omega}.

    width(s) = min(cap, max(1, s // rate)); the stage-s base is
    width(s)^{<width(s)}.  rate=1 with no cap is the untruncated ladder.
    f_rate/f_cap control the support window for nonempty cube vertices used
    when a finite slice of elements must be materialized (dumps, streams).
    """

    rate: int = 1
    cap: int | None = 4
    f_rate: int = 1
    f_cap: int = 2

    def width(self, s: int) -> int:
        if s < 1:
            return 0
        w = max(1, s // self.rate)
        return w if self.cap is None else min(self.cap, w)

    def f_width(self, s: int) -> int:
        return min(self.f_cap, max(0, s // self.f_rate))

    def base_strings(self, s: int) -> list[NatString]:
        return strings_of_width(self.width(s))

    def fsets(self, s: int) -> list[frozenset[int]]:
        return fsets_over(range(self.f_width(s)))


def fsets_over(support) -> list[frozenset[int]]:
    """All subsets of the support, smallest and lexicographically first."""
    items = sorted(set(support))
    sets = []
    for mask in range(1 << len(items)):
        sets.append(frozenset(items[i] for i in range(len(items)) if mask >> i & 1))
    return sorted(sets, key=lambda f: (len(f), tuple(sorted(f))))


@lru_cache(maxsize=32)
def strings_of_width(w: int) -> list[NatString]:
    """All of w^{<w} ordered by (birth stage, length, lex)."""
    out: list[NatString] = []
    for length in range(w):
        out.extend(product(range(w), repeat=length))
    out.sort(key=ladder_key)
    return out


# ---------------------------------------------------------------------------
# Label store.

StringKey = tuple[NatString, int | None]  # (sigma, sort)


class GrowEvent(NamedTuple):
    stage: int
    pre_top: int  # largest n already on the empty-set vertex, -1 if none
    sigma: NatString
    sort: int | None


def declared_by(ev: GrowEvent, fset: frozenset[int]) -> int:
    """How many labels S_0, S_1, ... one growth event declares on vertex fset.

    Along one string's events this never decreases (pre-tops rise strictly
    and stages never go down), so every label query bisects on it.
    """
    if not fset:
        return ev.pre_top + 2
    return max(ev.pre_top, 0) if max(fset) < ev.stage else 0


class KeyRecord:
    """One grown (sigma, sort) key of a label store: the string object it
    last grew with, its growth events in order, and the top label on its
    empty-set vertex, counting direct declarations there."""

    __slots__ = ("sigma", "events", "top")

    def __init__(self, sigma: NatString, top: int) -> None:
        self.sigma = sigma
        self.events: list[GrowEvent] = []
        self.top = top


class LabelStore:
    """Append-only record of S_n declarations.

    Growth events dominate: a growth with pre-top m raises the empty-set
    vertex to label m+1 and declares labels below m on every nonempty vertex
    within the stage bound.  Direct declarations (the global strategy's S_0
    coverage, and arbitrary declarations in tests) are stored per element.
    Duplicates are ignored, so stamps are first-declaration stages.

    Each grown key is interned: per sort, its record is filed by the id of
    the string object it last grew with, so a grow given that object again
    finds the record without hashing the string.
    """

    def __init__(self, variant: str = "cc") -> None:
        self.variant = variant  # "cc" | "dc"
        self._sorts = sorts(variant)
        # (sigma, sort) -> the record of a grown key.
        self._grows: dict[StringKey, KeyRecord] = {}
        # Per sort, id(record.sigma) -> record for every grown key; each
        # record holds its object, so no id is reused while it is filed.
        self._interned: dict[int | None, dict[int, KeyRecord]] = {s: {} for s in self._sorts}
        self._direct: dict[CubeElem, dict[int, int]] = {}
        # Stamp stage -> the growth events and direct (stage, n, element)
        # declarations stamped then, as recorded.
        self._log: dict[int, list[GrowEvent | tuple[int, int, CubeElem]]] = {}

    def _check_sort(self, sort: int | None) -> None:
        if sort not in self._sorts:
            raise VariantMismatch(f"{self.variant} store given sort {sort!r}")

    def record(self, sigma: NatString, sort: int | None) -> KeyRecord | None:
        """The record of a grown key, None before its first grow."""
        return self._grows.get((sigma, sort))

    def grow(self, sigma: NatString, sort: int | None, stage: int) -> GrowEvent:
        """Record a growth; GrowOutOfOrder if the string last grew at a later stage."""
        interned = self._interned.get(sort)
        rec = None if interned is None else interned.get(id(sigma))
        if rec is None:
            sigma = tuple(sigma)
            rec = self.record(sigma, sort)
            if rec is None:
                # The key's first grow: its top so far is its direct labels'.
                self._check_sort(sort)
                direct = self._direct.get(CubeElem(frozenset(), sigma, sort), ())
                rec = self._grows[(sigma, sort)] = KeyRecord(sigma, max(direct, default=-1))
            else:
                del interned[id(rec.sigma)]
                rec.sigma = sigma
            interned[id(sigma)] = rec
        events = rec.events
        if events and stage < events[-1].stage:
            raise GrowOutOfOrder(f"grow of {format_string(rec.sigma)} at stage {stage} "
                                 f"after one at stage {events[-1].stage}")
        ev = GrowEvent(stage, rec.top, rec.sigma, sort)
        rec.top += 1
        events.append(ev)
        self._log.setdefault(stage, []).append(ev)
        return ev

    def declare(self, n: int, e: CubeElem, stage: int) -> bool:
        """Direct declaration of S_n(e); returns False if already present."""
        self._check_sort(e.sort)
        if self.label_stamp(n, e) is not None:
            return False
        self._direct.setdefault(e, {})[n] = stage
        self._log.setdefault(stage, []).append((stage, n, e))
        if not e.fset:
            rec = self.record(e.sigma, e.sort)
            if rec is not None and n > rec.top:
                rec.top = n
        return True

    def relabelled(self, stage: int) -> list[StringKey]:
        """The keys whose empty-set vertex got a label stamped at stage: the
        only keys whose n_sigma(key, stage + 1) can differ from
        n_sigma(key, stage)."""
        return [(ev.sigma, ev.sort) if isinstance(ev, GrowEvent) else (ev[2].sigma, ev[2].sort)
                for ev in self._log.get(stage, ())
                if isinstance(ev, GrowEvent) or not ev[2].fset]

    def grows(self, sigma: NatString, sort: int | None) -> list[GrowEvent]:
        rec = self._grows.get((tuple(sigma), sort))
        return [] if rec is None else rec.events

    def _grown(self, e: CubeElem, before: int | None) -> int:
        """How many labels the growth events stamped < before declare on e."""
        events = self.grows(e.sigma, e.sort)
        i = len(events)
        if before is not None:
            i = bisect_left(events, before, key=itemgetter(0))
        return declared_by(events[i - 1], e.fset) if i else 0

    def label_stamp(self, n: int, e: CubeElem, before: int | None = None) -> int | None:
        """Stage stamping S_n(e), or None; `before` restricts to stamps < before."""
        best = self._direct.get(e, {}).get(n)
        events = self.grows(e.sigma, e.sort)
        i = bisect_right(events, n, key=lambda ev: declared_by(ev, e.fset))
        if i < len(events) and (best is None or events[i].stage < best):
            best = events[i].stage
        if best is not None and before is not None and best >= before:
            return None
        return best

    def has_label(self, n: int, e: CubeElem, upto: int | None = None) -> bool:
        """True if S_n(e) was declared with stamp <= upto (any stage if None)."""
        before = None if upto is None else upto + 1
        return self.label_stamp(n, e, before=before) is not None

    def top_label(self, e: CubeElem, before: int | None = None) -> int | None:
        """Largest n with S_n(e) stamped < before (anywhere if None)."""
        top = self._grown(e, before) - 1
        for n, stamp in self._direct.get(e, {}).items():
            if (before is None or stamp < before) and n > top:
                top = n
        return None if top < 0 else top

    def labels(self, e: CubeElem, upto: int | None = None) -> list[int]:
        k = self._grown(e, None if upto is None else upto + 1)
        direct = self._direct.get(e, {}).items()
        return [*range(k), *sorted(n for n, stamp in direct
                                   if n >= k and (upto is None or stamp <= upto))]

    def n_sigma(self, sigma: NatString, sort: int | None, s: int) -> int:
        """Largest n with S_n declared on the empty-set vertex before stage s."""
        top = self.top_label(CubeElem(frozenset(), tuple(sigma), sort), before=s)
        if top is None:
            raise UndefinedLabel(
                f"no label on (empty, {format_string(tuple(sigma))}, sort={sort}) before stage {s}"
            )
        return top

    def declaration_events(self) -> Iterator[GrowEvent | tuple[int, int, CubeElem]]:
        """The growth events and direct declarations by stage, ties as recorded."""
        for stage in sorted(self._log):
            yield from self._log[stage]


# ---------------------------------------------------------------------------
# Snapshots: an immutable stage-bounded view of a store plus element window.

class Snapshot(NamedTuple):
    variant: str
    stage: int
    store: LabelStore
    strings: tuple[tuple[NatString, int | None], ...]  # window, (sigma, sort)
    fsets: tuple[frozenset[int], ...]

    def elements(self) -> list[CubeElem]:
        return [CubeElem(f, sigma, sort)
                for sigma, sort in self.strings for f in self.fsets]

    def has_label(self, n: int, e: CubeElem) -> bool:
        return self.store.has_label(n, e, upto=self.stage)

    def labels(self, e: CubeElem) -> list[int]:
        return self.store.labels(e, upto=self.stage)

    def declarations(self) -> Iterator[tuple[int, int, CubeElem]]:
        """Expanded (stamp, n, element) rows stamped by the snapshot's stage
        on the window's vertices, in event order, then label index, then
        vertex order, yielded as they are expanded.  Rows are not filtered
        by `strings`: a string chosen before its birth stage has rows here
        before it enters the window.

        Growth events declare contiguous label prefixes, so a cursor per
        (string, vertex) makes the expansion linear in the output; sparse
        direct declarations are tracked separately.  Strings are keyed by
        (sigma, sort) and window vertices by index, and each element is
        built once, when its first row is emitted.
        """
        window_f = sorted(self.fsets, key=lambda f: (len(f), tuple(sorted(f))))
        vertices = [frozenset(), *(f for f in window_f if f)]
        slot_of = {f: v for v, f in enumerate(vertices)}
        # (sigma, sort) -> per window vertex: labels emitted from growth
        # events, and the element once built.
        cursor: dict[StringKey, list[int]] = {}
        elems: dict[StringKey, list[CubeElem | None]] = {}
        # (sigma, sort) -> (n, vertex) of the direct declarations emitted.
        sparse: dict[StringKey, set[tuple[int, frozenset[int]]]] = {}
        for ev in self.store.declaration_events():
            stage = ev[0]
            if stage > self.stage:
                break
            if not isinstance(ev, GrowEvent):
                _, n, e = ev
                key = (e.sigma, e.sort)
                v = slot_of.get(e.fset)
                done = cursor[key][v] if v is not None and key in cursor else 0
                seen = sparse.setdefault(key, set())
                if n >= done and (n, e.fset) not in seen:
                    seen.add((n, e.fset))
                    yield stage, n, e
                continue
            key = (ev.sigma, ev.sort)
            done = cursor.get(key)
            if done is None:
                done = cursor[key] = [0] * len(vertices)
                elems[key] = [None] * len(vertices)
            built = elems[key]
            seen = sparse.get(key)
            for v, f in enumerate(vertices):
                start, upto = done[v], declared_by(ev, f)
                if upto > start:
                    e = built[v]
                    if e is None:
                        e = built[v] = CubeElem(f, ev.sigma, ev.sort)
                    for n in range(start, upto):
                        if seen is None or (n, f) not in seen:
                            yield stage, n, e
                    done[v] = upto

    def dump_lines(self, rows: Iterable[tuple[int, int, CubeElem]] | None = None,
                   texts: dict[int, str] | None = None) -> list[str]:
        """The text lines of `rows`, declarations() rows, all of them by
        default.  Rows of one element share one object, so its text is cached
        by identity in `texts` and no element is hashed per row; a caller
        formatting one declarations() run in blocks passes one cache for all
        of them, as the run keeps every element it yielded alive."""
        texts = {} if texts is None else texts
        lines = []
        for stage, n, e in self.declarations() if rows is None else rows:
            text = texts.get(id(e))
            if text is None:
                text = texts[id(e)] = format_elem(e)
            lines.append(f"{stage} {n} {text}")
        return lines


def snapshot_from_declarations(
    variant: str,
    rows: list[tuple[int, int, CubeElem]],
    strings: list[tuple[NatString, int | None]],
    fsets: list[frozenset[int]],
    stage: int,
) -> Snapshot:
    """Build a snapshot from explicit (stamp, n, element) declarations."""
    store = LabelStore(variant=variant)
    for stamp, n, e in rows:
        store.declare(n, e, stamp)
    return Snapshot(variant, stage, store, tuple(strings), tuple(fsets))
