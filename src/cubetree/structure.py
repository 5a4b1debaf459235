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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

NatString = tuple[int, ...]

ROOT: NatString = ()


class VariantMismatch(ValueError):
    """Element or query does not fit the structure variant."""


class UndefinedLabel(LookupError):
    """n_sigma consulted before any label exists on the empty-set vertex."""


class UnmatchedCarrier(LookupError):
    """Long-form lift found no carrier for a required declaration."""


@dataclass(frozen=True)
class CubeElem:
    fset: frozenset[int]
    sigma: NatString
    sort: int | None = None  # None in the single-sorted variant

    def key(self) -> tuple:
        return (tuple(sorted(self.fset)), self.sigma, self.sort)


@dataclass(frozen=True)
class UElem:
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
    m = re.fullmatch(r"<([\d,]*)>", text)
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


def parse_elem(text: str) -> Elem:
    if text in ("u0", "u1"):
        return UElem(int(text[1]))
    m = re.fullmatch(r"\{([\d,]*)\}@(<[\d,]*>)(?:#([01]))?", text)
    if not m:
        raise ValueError(f"bad element token: {text!r}")
    fbody, stext, sort = m.groups()
    fset = frozenset(int(p) for p in fbody.split(",")) if fbody else frozenset()
    return CubeElem(fset, parse_string(stext), None if sort is None else int(sort))


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


@dataclass(frozen=True)
class UniverseSchedule:
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


@dataclass(frozen=True)
class GrowEvent:
    stage: int
    seq: int  # global event order
    pre_top: int  # largest n already on the empty-set vertex, -1 if none


@dataclass
class LabelStore:
    """Append-only record of S_n declarations.

    Growth events dominate: a growth with pre-top m raises the empty-set
    vertex to label m+1 and declares labels below m on every nonempty vertex
    within the stage bound.  Direct declarations (the global strategy's S_0
    coverage, and arbitrary declarations in tests) are stored per element.
    Duplicates are ignored, so stamps are first-declaration stages.
    """

    variant: str = "cc"  # "cc" | "dc"
    _grows: dict[StringKey, list[GrowEvent]] = field(default_factory=dict)
    _direct: dict[tuple, dict[int, int]] = field(default_factory=dict)
    _direct_order: list[tuple[int, int, int, CubeElem]] = field(default_factory=list)
    _seq: int = 0

    def _check_sort(self, sort: int | None) -> None:
        if sort not in sorts(self.variant):
            raise VariantMismatch(f"{self.variant} store given sort {sort!r}")

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def grow(self, sigma: NatString, sort: int | None, stage: int) -> GrowEvent:
        self._check_sort(sort)
        key = (tuple(sigma), sort)
        empty = CubeElem(frozenset(), tuple(sigma), sort)
        pre = self.top_label(empty)
        ev = GrowEvent(stage, self._next_seq(), -1 if pre is None else pre)
        self._grows.setdefault(key, []).append(ev)
        return ev

    def declare(self, n: int, e: CubeElem, stage: int) -> bool:
        """Direct declaration of S_n(e); returns False if already present."""
        self._check_sort(e.sort)
        if self.label_stamp(n, e) is not None:
            return False
        self._direct.setdefault(e.key(), {})[n] = stage
        self._direct_order.append((stage, self._next_seq(), n, e))
        return True

    def grows(self, sigma: NatString, sort: int | None) -> list[GrowEvent]:
        return self._grows.get((tuple(sigma), sort), [])

    def label_stamp(self, n: int, e: CubeElem, before: int | None = None) -> int | None:
        """Stage stamping S_n(e), or None; `before` restricts to stamps < before."""
        best = self._direct.get(e.key(), {}).get(n)
        events = self.grows(e.sigma, e.sort)
        if not e.fset:
            # A growth with pre-top m declares labels k < m + 2 on the empty
            # set; pre-tops are strictly increasing across events.
            for ev in events:
                if n < ev.pre_top + 2:
                    if best is None or ev.stage < best:
                        best = ev.stage
                    break
        else:
            top = max(e.fset)
            for ev in events:
                if n < ev.pre_top and top < ev.stage:
                    if best is None or ev.stage < best:
                        best = ev.stage
                    break
        if best is not None and before is not None and best >= before:
            return None
        return best

    def has_label(self, n: int, e: CubeElem, upto: int | None = None) -> bool:
        """True if S_n(e) was declared with stamp <= upto (any stage if None)."""
        before = None if upto is None else upto + 1
        return self.label_stamp(n, e, before=before) is not None

    def top_label(self, e: CubeElem, before: int | None = None) -> int | None:
        """Largest n with S_n(e) stamped < before (anywhere if None)."""
        best: int | None = None
        live = [ev for ev in self.grows(e.sigma, e.sort)
                if before is None or ev.stage < before]
        if not e.fset:
            if live:
                best = max(ev.pre_top + 1 for ev in live)
        else:
            top = max(e.fset)
            tops = [ev.pre_top - 1 for ev in live if top < ev.stage]
            if tops and max(tops) >= 0:
                best = max(tops)
        for n, stamp in self._direct.get(e.key(), {}).items():
            if (before is None or stamp < before) and (best is None or n > best):
                best = n
        return best

    def labels(self, e: CubeElem, upto: int | None = None) -> list[int]:
        top = self.top_label(e, before=None if upto is None else upto + 1)
        if top is None:
            return []
        return [n for n in range(top + 1) if self.has_label(n, e, upto)]

    def n_sigma(self, sigma: NatString, sort: int | None, s: int) -> int:
        """Largest n with S_n declared on the empty-set vertex before stage s."""
        top = self.top_label(CubeElem(frozenset(), tuple(sigma), sort), before=s)
        if top is None:
            raise UndefinedLabel(
                f"no label on (empty, {format_string(tuple(sigma))}, sort={sort}) before stage {s}"
            )
        return top

    def declaration_events(self) -> list[tuple[int, int, str, object]]:
        """All events in (stage, seq) order: ('grow', ...) and ('decl', ...)."""
        out: list[tuple[int, int, str, object]] = []
        for key, events in self._grows.items():
            for ev in events:
                out.append((ev.stage, ev.seq, "grow", (key, ev.pre_top)))
        for stage, seq, n, e in self._direct_order:
            out.append((stage, seq, "decl", (n, e)))
        out.sort(key=lambda t: (t[0], t[1]))
        return out


# ---------------------------------------------------------------------------
# Snapshots: an immutable stage-bounded view of a store plus element window.

@dataclass(frozen=True)
class Snapshot:
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

    def n_sigma(self, sigma: NatString, sort: int | None = None) -> int:
        return self.store.n_sigma(sigma, sort, self.stage + 1)

    def declarations(self) -> list[tuple[int, int, CubeElem]]:
        """Expanded (stamp, n, element) rows within the window, in carrier
        allocation order: event order, then label index, then vertex order.

        Growth events declare contiguous label prefixes, so a cursor per
        element makes the expansion linear in the output; sparse direct
        declarations are tracked separately.
        """
        rows: list[tuple[int, int, CubeElem]] = []
        cursor: dict[tuple, int] = {}
        sparse: set[tuple[int, tuple]] = set()
        window_f = sorted(self.fsets, key=lambda f: (len(f), tuple(sorted(f))))

        def extend(e: CubeElem, upto: int, stage: int) -> None:
            key = e.key()
            start = cursor.get(key, 0)
            for n in range(start, upto):
                if (n, key) not in sparse:
                    rows.append((stage, n, e))
            if upto > start:
                cursor[key] = upto

        for stage, _seq, kind, payload in self.store.declaration_events():
            if stage > self.stage:
                continue
            if kind == "decl":
                n, e = payload
                key = e.key()
                if n >= cursor.get(key, 0) and (n, key) not in sparse:
                    sparse.add((n, key))
                    rows.append((stage, n, e))
                continue
            (sigma, sort), pre_top = payload
            extend(CubeElem(frozenset(), sigma, sort), pre_top + 2, stage)
            if pre_top > 0:
                for f in window_f:
                    if not f or max(f) >= stage:
                        continue
                    extend(CubeElem(f, sigma, sort), pre_top, stage)
        return rows

    def dump_lines(self) -> list[str]:
        return [f"{stage} {n} {format_elem(e)}" for stage, n, e in self.declarations()]


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


# ---------------------------------------------------------------------------
# Long form: the carrier encoding that turns the c.e. labels into a
# presentation with U, (V_n) and f over an explicit carrier set C.

@dataclass(frozen=True)
class LongForm:
    snapshot: Snapshot
    carriers: tuple[tuple[int, CubeElem], ...]  # index k -> (n, labeled element)

    def carrier_count(self) -> int:
        return len(self.carriers)

    def V(self, n: int, k: int) -> bool:
        return self.carriers[k][0] == n

    def f(self, k: int) -> CubeElem:
        return self.carriers[k][1]

    def U(self, k: int) -> bool:
        return 0 <= k < len(self.carriers)

    def index(self) -> dict[tuple[int, tuple], int]:
        return {(n, e.key()): k for k, (n, e) in enumerate(self.carriers)}

    def dump_lines(self) -> list[str]:
        return [
            f"carrier {k} V{n} f={format_elem(e)}"
            for k, (n, e) in enumerate(self.carriers)
        ]


def export_long_form(snapshot: Snapshot) -> LongForm:
    """Allocate carriers in declaration order: first unused element of C each."""
    carriers = tuple((n, e) for _stage, n, e in snapshot.declarations())
    return LongForm(snapshot, carriers)


def reduced_view(long_form: LongForm) -> list[tuple[int, int, CubeElem]]:
    """Forget carriers: recover the reduced declaration rows."""
    decls = long_form.snapshot.declarations()
    return [(decls[k][0], n, e) for k, (n, e) in enumerate(long_form.carriers)]


def lift_isomorphism(g, source: LongForm, target: LongForm) -> dict[int, int]:
    """Extend an element-level isomorphism to the carriers.

    For each source carrier x with V_n(x) and f(x) = y, finds the target
    carrier x' with f(x') = g(y) and V_n(x').  Raises UnmatchedCarrier when
    the target lacks the matching declaration.
    """
    target_index = target.index()
    mapping: dict[int, int] = {}
    for k, (n, y) in enumerate(source.carriers):
        gy = g(y)
        hit = target_index.get((n, gy.key()))
        if hit is None:
            raise UnmatchedCarrier(f"target has no carrier for S_{n}({format_elem(gy)})")
        mapping[k] = hit
    return mapping
