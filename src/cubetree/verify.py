"""Oracles and claim checkers.

Covers the two constructive directions of the orbit-coding claim (build an
automorphism from branches, read branches back off an automorphism), the
labeling behavior of chosen versus unchosen strings, isomorphism checking
against fact sources (adversary streams, and snapshots read as streams with
lag 0), orbit probing on test trees, a bounded back-and-forth equivalence
approximation, and the trace invariant suite.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator
from operator import itemgetter
from typing import NamedTuple

from .adversary import FACT_ARG0, Adversary, Fact, FactStream, Incidence
from .engine import (
    Node,
    ReqM,
    ReqN,
    ReqU,
    RunResult,
    TPEntry,
    check_left_kill,
)
from .structure import (
    CubeElem,
    Elem,
    NatString,
    Snapshot,
    StringKey,
    UElem,
    UndefinedLabel,
    birth_stage,
    format_elem,
    format_string,
    fsets_over,
    holds_P,
    snapshot_from_declarations,
    sorts,
)
from .trees import Branch, TestTree


class InvariantBroken(RuntimeError):
    """The automorphism failed a forced transfer step: not an automorphism."""


class BranchOutsideTree(ValueError):
    pass


class CheckResult(NamedTuple):
    name: str
    ok: bool
    locus: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        tail = f" ({self.locus})" if self.locus else ""
        return f"{status} {self.name}{tail}"


class Report:
    def __init__(self) -> None:
        self.results: list[CheckResult] = []

    def add(self, name: str, ok: bool, locus: str = "") -> None:
        self.results.append(CheckResult(name, ok, locus))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


# ---------------------------------------------------------------------------
# Orbit-coding claim, forward and converse directions.

class BuiltAutomorphism(NamedTuple):
    """Piecewise translation automorphism driven by a branch family.

    Sends the empty vertex at `sigma` to `target` there, twists by the next
    branch symbol along each designated branch, and below `sigma` is the
    identity or a single-bit twist depending on the parity of the target.
    In the two-sorted variant an optional root branch swaps the u pair and
    drives the sort-0 twists.
    """

    sigma: NatString
    target: frozenset[int]
    paths: tuple[tuple[int, Branch], ...]
    sort: int | None = None
    uswap: Branch | None = None

    def twist(self, tau: NatString, sort: int | None) -> frozenset[int]:
        if self.uswap is not None and sort == 0:
            if self.uswap.has_prefix(tau):
                return frozenset({self.uswap.value(len(tau))})
            return frozenset()
        if sort != self.sort:
            return frozenset()
        tau = tuple(tau)
        if tau == self.sigma:
            return frozenset(self.target)
        if len(tau) < len(self.sigma) and self.sigma[: len(tau)] == tau:
            if len(self.target) % 2 == 0:
                return frozenset()
            return frozenset({self.sigma[len(tau)]})
        for _i, branch in self.paths:
            if len(tau) > len(self.sigma) and branch.has_prefix(tau):
                return frozenset({branch.value(len(tau))})
        return frozenset()

    def __call__(self, e: Elem) -> Elem:
        if isinstance(e, UElem):
            return UElem(1 - e.k) if self.uswap is not None else e
        return CubeElem(e.fset ^ self.twist(e.sigma, e.sort), e.sigma, e.sort)


def automorphism_from_paths(
    tree: TestTree,
    paths: dict[int, Branch],
    target,
    sigma,
    sort: int | None = None,
    uswap: Branch | None = None,
) -> BuiltAutomorphism:
    """Converse direction: branches through the designated tree yield an
    automorphism moving the empty vertex at sigma onto the target vertex."""
    sigma = tuple(sigma)
    target = frozenset(target)
    if set(paths) != set(target):
        raise ValueError("need exactly one branch per target color")
    for i, branch in paths.items():
        if not branch.has_prefix(sigma + (i,)):
            raise BranchOutsideTree(
                f"branch for color {i} does not pass through {format_string(sigma + (i,))}"
            )
        if branch not in tree.branches:
            probe = branch.initial_segment(max(tree.depth() + 1, len(sigma) + 2))
            if probe not in tree:
                raise BranchOutsideTree(
                    f"branch for color {i} leaves the designated tree"
                )
    if uswap is not None and uswap not in tree.branches:
        raise BranchOutsideTree("u-swap branch must be designated")
    return BuiltAutomorphism(sigma, target, tuple(sorted(paths.items())), sort, uswap)


def path_from_automorphism(
    g,
    sigma,
    depth_budget: int,
    sort: int | None = None,
    tree: TestTree | None = None,
) -> list[NatString]:
    """Forward direction: walk the moved empty vertices downward, at each
    level stepping into the least color the image carries.  Fails with
    InvariantBroken when the image stops moving, which certifies the input
    was not an automorphism of the coded structure."""
    sigma = tuple(sigma)
    start = g(CubeElem(frozenset(), sigma, sort))
    if not isinstance(start, CubeElem) or start.sigma != sigma:
        raise InvariantBroken(f"image of the base vertex left the copy at {format_string(sigma)}")
    if not start.fset:
        raise ValueError("automorphism fixes the base vertex; nothing to trace")
    chain: list[NatString] = []
    current = sigma
    moved = start.fset
    for _ in range(depth_budget):
        k = min(moved)
        current = current + (k,)
        chain.append(current)
        if tree is not None and current not in tree:
            raise InvariantBroken(f"walk left the designated tree at {format_string(current)}")
        image = g(CubeElem(frozenset(), current, sort))
        if not isinstance(image, CubeElem) or image.sigma != current:
            raise InvariantBroken(f"image left the copy at {format_string(current)}")
        moved = image.fset
        if not moved:
            raise InvariantBroken(f"image fixed the empty vertex at {format_string(current)}")
    return chain


def orbit_probe(tree: TestTree, sigma, i: int) -> bool:
    """Whether the split vertex pair at sigma/color i lies in one orbit: the
    extended string must reach a designated branch (or, on a purely finite
    tree, a maximal-depth node)."""
    si = tuple(sigma) + (i,)
    if any(b.has_prefix(si) for b in tree.branches):
        return True
    if not tree.branches:
        d = tree.depth()
        return any(len(t) == d and t[: len(si)] == si for t in tree.nodes)
    return False


def orbit_witness(tree: TestTree, sigma, i: int) -> BuiltAutomorphism | None:
    branch = tree.branch_through(tuple(sigma) + (i,))
    if branch is None:
        return None
    return automorphism_from_paths(tree, {i: branch}, {i}, sigma)


def ideal_tree_snapshot(
    tree: TestTree,
    depth: int,
    label_count: int = 8,
    variant: str = "cc",
) -> Snapshot:
    """The limit labeling a test tree codes, truncated for finite checks.

    Strings on the tree (including designated-branch prefixes to `depth`)
    carry every label below `label_count` on every vertex of the support
    window; strings one step off the tree carry only the base label on the
    empty vertex.  The vertex window is the full powerset of the tree's
    symbols, so it is closed under the twists branch-built automorphisms
    apply.
    """
    symbols = tree.symbols()
    if len(symbols) > 8:
        raise ValueError("test tree support too wide to materialize")
    fsets = fsets_over(symbols)
    strings: set[NatString] = set(tree.nodes)
    for b in tree.branches:
        for k in range(depth + 1):
            strings.add(b.initial_segment(k))
    border: set[NatString] = set()
    for sigma in list(strings):
        if len(sigma) >= depth:
            continue
        for j in symbols:
            child = sigma + (j,)
            if child not in tree:
                border.add(child)
    sort_values = sorts(variant)
    rows = []
    stamp = 1
    for sigma in sorted(strings, key=lambda t: (len(t), t)):
        for sort in sort_values:
            for n in range(label_count):
                for fset in fsets:
                    rows.append((stamp, n, CubeElem(fset, sigma, sort)))
                stamp += 1
    for sigma in sorted(border, key=lambda t: (len(t), t)):
        for sort in sort_values:
            rows.append((stamp, 0, CubeElem(frozenset(), sigma, sort)))
    window = [(sigma, sort)
              for sigma in sorted(strings | border, key=lambda t: (len(t), t))
              for sort in sort_values]
    return snapshot_from_declarations(variant, rows, window, fsets, stamp + 1)


# ---------------------------------------------------------------------------
# Isomorphism checking.

def true_facts(elems: list[Elem], labels: Callable[[CubeElem], Iterable[int]]) -> Iterator[Fact]:
    """The W, S, E and P facts that hold among `elems`, each once, each
    element named by its index there; the u pair, if present, comes first.
    Per cube element in order: W, then S_n for each n in `labels(e)`, then
    its links to the elements before it (`Incidence.links`)."""
    index = Incidence(elems)
    for x, e in enumerate(elems):
        index.add(x)
        if isinstance(e, CubeElem):
            yield ("W", e.sigma, e.sort, x)
            for n in labels(e):
                yield ("S", n, x)
            yield from index.links(x)


def snapshot_view(snap: Snapshot) -> Adversary:
    """A snapshot as a fact source with lag 0.  Each window element gets an
    id in `to_copy`, the u pair first in the two-sorted variant, and every W,
    S, E and P fact among those ids is enumerated at step 0.  It has no
    `to_ground`, so a check against it takes its elements from the source."""
    elems = ([UElem(0), UElem(1)] if snap.variant == "dc" else []) + snap.elements()
    view = Adversary(FactStream(), to_copy={e: x for x, e in enumerate(elems)})
    view.stream.extend(0, true_facts(elems, snap.labels))
    return view


def check_isomorphism(g, source: Snapshot, target, horizon: int | None = None) -> Report:
    """Check a map from the source's elements into a fact source.

    The stream is positive-information only, so relation preservation is
    checked as: source-true facts must appear by the horizon (allowing the
    copy's enumeration lag), and stream facts among mapped elements must be
    source-true.  The cube elements checked are those a copy with ground
    truth has enumerated by the horizon, else the source elements on strings
    the stream has witnessed; in the two-sorted variant the u pair as well.
    A target snapshot is read through `snapshot_view` at the source's stage,
    with the map composed with the view's ids; a stream target is read by
    the horizon, the source's stage when none is given.
    """
    if isinstance(target, Snapshot):
        view = snapshot_view(target)
        return check_isomorphism(lambda e: view.to_copy.get(g(e)), source, view, source.stage)
    if horizon is None:
        horizon = source.stage
    report = Report()
    stream = target.stream
    enumerated = stream.elements(horizon)
    if target.to_ground:
        cube = [target.to_ground[x] for x in enumerated
                if isinstance(target.to_ground.get(x), CubeElem)]
    else:
        cube = [e for e in source.elements() if stream.witnesses_W(e.sigma, e.sort, horizon)]
    elems = ([UElem(0), UElem(1)] if source.variant == "dc" else []) + cube
    images = [g(e) for e in elems]
    if None in images:
        report.add("total", False, format_elem(elems[images.index(None)]))
        return report
    report.add("total", True)
    covered = set(images)
    injective = len(covered) == len(images)
    report.add("injective", injective)
    uncovered = [x for x in enumerated if x not in covered]
    report.add("covers-enumerated", not uncovered,
               f"{len(uncovered)} elements uncovered" if uncovered else "")
    # One pass over the true facts, each renamed by its kind.  Completeness:
    # each due by the lag holds at the images.  Soundness: each stream fact
    # among the images is the image of a true fact on the chosen (last)
    # preimages; an injective map chooses every element.
    chosen = None
    if not injective:
        back = {x: k for k, x in enumerate(images)}
        chosen = [back[x] == k for k, x in enumerate(images)]
    first = stream.first_stamps
    label_bound = max(0, min(source.stage, horizon) - target.delay)
    due: dict[int, set[int]] = {}  # element -> its labels due, built at a missing S fact
    sound: set[Fact] = set()
    locus: dict[str, str] = {}
    for fact in true_facts(elems, source.labels):
        # x and y are the fact's element arguments, at FACT_ARG0 and after
        # in the layout of `adversary.FACT_FIELDS`.
        kind = fact[0]
        if kind == "W":
            x = y = fact[3]
            image = ("W", fact[1], fact[2], images[x])
        elif kind == "S":
            x = y = fact[2]
            image = ("S", fact[1], images[x])
        elif kind == "E":
            x, y = fact[2], fact[3]
            image = ("E", fact[1], images[x], images[y])
        else:
            x, y = fact[1], fact[2]
            image = ("P", images[x], images[y])
        if chosen is None or chosen[x] and chosen[y]:
            sound.add(image)
        if kind in locus or first.get(image, horizon + 1) <= horizon:
            continue
        if kind == "S":
            if x not in due:
                due[x] = set(source.store.labels(elems[x], upto=label_bound))
            if fact[1] not in due[x]:
                continue
        names = format_elem(elems[x])
        if kind in "EP":
            names += ("-" if kind == "E" else "->") + format_elem(elems[y])
        locus[kind] = f"S_{fact[1]} {names}" if kind == "S" else names
    for _step, fact in stream.facts_within(horizon):
        args = fact[FACT_ARG0[fact[0]]:]
        if fact not in sound and covered.issuperset(args):
            head = f"S_{fact[1]}" if fact[0] == "S" else fact[0]
            locus["sound"] = f"{head} at {','.join(map(str, args))}"
            break
    for kind in "WSEP":
        report.add(f"respects-{kind}", kind not in locus, locus.get(kind, ""))
    report.add("sound", "sound" not in locus, locus.get("sound", ""))
    return report


# ---------------------------------------------------------------------------
# Labeling behavior of chosen versus unchosen strings across horizons.

def check_labeling(result: RunResult, tp_entries: list[TPEntry],
                   s0: int, s1: int) -> Report:
    report = Report()
    growing_on_path: set[tuple[NatString, int | None]] = set()
    for entry in tp_entries:
        node = result.nodes[entry.addr]
        if isinstance(node.req, ReqN):
            growing_on_path.add((node.state.sigma, None))
    if result.variant == "dc":
        # The root pairs are grown by the global strategy every stage.
        growing_on_path.update({((), 0), ((), 1)})
    store = result.store
    fsets0 = result.schedule.fsets(s0)
    for sigma, sort in sorted(growing_on_path, key=lambda k: (k[0], k[1] or 0)):
        grew = True
        for fset in fsets0:
            e = CubeElem(fset, sigma, sort)
            c0 = len(store.labels(e, upto=s0))
            c1 = len(store.labels(e, upto=s1))
            if c1 <= c0:
                grew = False
        report.add("labels-grow", grew, format_string(sigma))
    for sigma in result.universe_strings(s0):
        for sort in sorts(result.variant):
            if result.chosen.get((sigma, sort)) or store.grows(sigma, sort):
                continue
            try:
                n0 = store.n_sigma(sigma, sort, s0 + 1)
                n1 = store.n_sigma(sigma, sort, s1 + 1)
            except UndefinedLabel:
                report.add("top-label-stable", False, format_string(sigma))
                continue
            only_empty = all(
                not store.has_label(n1, CubeElem(fset, sigma, sort), upto=s1)
                for fset in result.schedule.fsets(s1)
                if fset
            )
            report.add(
                "top-label-stable",
                n0 == n1 and only_empty,
                f"{format_string(sigma)}"
                + ("" if sort is None else f"#{sort}"),
            )
    return report


# ---------------------------------------------------------------------------
# Bounded back-and-forth equivalence.

def atomic_equivalent(snap: Snapshot, t1: tuple[Elem, ...], t2: tuple[Elem, ...]) -> bool:
    if len(t1) != len(t2):
        return False
    for a, b in zip(t1, t2):
        if isinstance(a, UElem) != isinstance(b, UElem):
            return False
        if isinstance(a, UElem):
            if a.k != b.k:
                return False
        else:
            if a.sigma != b.sigma or a.sort != b.sort:
                return False
            if snap.labels(a) != snap.labels(b):
                return False
    for i, a in enumerate(t1):
        for j, b in enumerate(t1):
            if (a == b) != (t2[i] == t2[j]):
                return False
            if isinstance(a, CubeElem) and isinstance(b, CubeElem) \
                    and isinstance(t2[i], CubeElem) and isinstance(t2[j], CubeElem):
                d1 = a.fset ^ b.fset if (a.sigma, a.sort) == (b.sigma, b.sort) else None
                d2 = t2[i].fset ^ t2[j].fset \
                    if (t2[i].sigma, t2[i].sort) == (t2[j].sigma, t2[j].sort) else None
                c1 = next(iter(d1)) if d1 is not None and len(d1) == 1 else None
                c2 = next(iter(d2)) if d2 is not None and len(d2) == 1 else None
                if c1 != c2:
                    return False
            if holds_P(a, b) != holds_P(t2[i], t2[j]):
                return False
    return True


def bf_equiv(
    snap: Snapshot,
    t1: tuple[Elem, ...],
    t2: tuple[Elem, ...],
    alpha: int,
    support: list[Elem],
) -> bool:
    """Back-and-forth equivalence to depth alpha with witnesses drawn from
    the support set only.  An approximation: a False answer may flip with a
    larger support."""
    if alpha < 0 or alpha > 3:
        raise ValueError("alpha must be between 0 and 3")
    if alpha == 0:
        return atomic_equivalent(snap, tuple(t1), tuple(t2))
    for c in support:
        if not any(
            bf_equiv(snap, tuple(t1) + (c,), tuple(t2) + (d,), alpha - 1, support)
            for d in support
        ):
            return False
        if not any(
            bf_equiv(snap, tuple(t1) + (d,), tuple(t2) + (c,), alpha - 1, support)
            for d in support
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Trace invariant suite.

def check_trace_invariants(result: RunResult) -> Report:
    """The trace checks scan `result.trace.records`, each Idle tail one
    record, which is exact: an Idle node holds no state and takes "o", so a
    tail holds no mstat, xtau or gamma event and no infinite outcome, and
    left-kill (`check_left_kill`) needs none of its events.  The
    responsibility checks keep each matcher's B from one visit to the next
    (`ReplayedB`), so a visit costs what changed since the matcher's last."""
    report = Report()
    ok, locus = check_left_kill(result.trace.records)
    report.add("left-kill", ok, locus or "")
    _check_n_sigma_definedness(result, report)
    _check_choice_discipline(result, report)
    _check_gamma_lengths(result, report)
    _check_b_sets(result, report)
    _check_witness_ages(result, report)
    return report


def _check_n_sigma_definedness(result: RunResult, report: Report) -> None:
    """Labels are never retracted, so checking each string one stage after it
    enters, in (entry stage, ladder) order, finds the first stage lacking one."""
    bad = None
    strings = result.universe_strings(result.horizon)
    for sigma in sorted(strings, key=result.entered.__getitem__):
        s = result.entered[sigma] + 1
        if s > result.horizon:
            break
        try:
            for sort in sorts(result.variant):
                result.store.n_sigma(sigma, sort, s)
        except UndefinedLabel:
            bad = f"{format_string(sigma)} at stage {s}"
            break
    report.add("top-label-defined", bad is None, bad or "")


def _check_choice_discipline(result: RunResult, report: Report) -> None:
    # Strings are chosen fresh: the first choice precedes the string's entry
    # into the universe slice, so an unchosen resident is never chosen later.
    late = None
    for (sigma, _sort), records in result.chosen.items():
        if sigma and records[0][1] >= birth_stage(sigma):
            late = f"{format_string(sigma)} chosen at {records[0][1]}"
            break
    report.add("chosen-before-birth", late is None, late or "")
    bad = None
    for (sigma, sort), records in result.chosen.items():
        if len(records) <= 1:
            continue
        if result.variant == "cc":
            bad = f"{format_string(sigma)} chosen twice"
            break
        first = records[0][0]
        for node, _stage in records[1:]:
            if not isinstance(node.req, ReqU):
                bad = f"{format_string(sigma)} re-chosen by a non-diagonalizer"
                break
            if first.addr[: len(node.addr) + 1] != node.addr + ("0",):
                bad = f"{format_string(sigma)} stolen from outside the 0-subtree"
                break
        if bad:
            break
    name = "choose-once" if result.variant == "cc" else "steal-only-by-diagonalizer"
    report.add(name, bad is None, bad or "")


def _check_gamma_lengths(result: RunResult, report: Report) -> None:
    bad = None
    for ev in result.trace.records:
        if ev[0] == "gamma":
            _kind, _s, _addr, gamma, n = ev
            if len(gamma) != n:
                bad = f"{_addr} at stage {_s}"
                break
    report.add("inherited-length", bad is None, bad or "")


def _token_at(node: Node, stage: int) -> str | None:
    """The outcome node took at stage; None when it was not visited then."""
    i = bisect_left(node.outcomes, (stage,))
    if i < len(node.outcomes) and node.outcomes[i][0] == stage:
        return node.outcomes[i][1]
    return None


class _MatcherReplay:
    """One matcher's replayed B and what it was built from: the records
    classified so far, the strings entered by t, and k0's outcome token."""

    __slots__ = ("cursor", "n", "tok", "B", "above", "below")

    def __init__(self) -> None:
        self.cursor = self.n = 0
        self.tok: str | None = None
        self.B: set[StringKey] = set()
        # Keys an ancestor chose at the outcome towards the matcher; per
        # outcome token, the keys chosen at or below it.
        self.above: set[StringKey] = set()
        self.below: dict[str, set[StringKey]] = {}


class ReplayedB:
    """Each matcher's B, replayed from its mstat events and the choice
    records alone, and updated in place from one visit to the next.

    At m's stage-s visit B is every key whose string entered by stage t,
    less the keys that a counting record leaves out.  A record (c, st)
    counts when (st, depth of c) sorts before (s, depth of m), since a stage
    path acts ancestors first.  It leaves its key out when c is an ancestor
    that took the outcome towards m at st, or when c is at or below m's
    finite outcome k0.  The records are sorted once by (stage, depth), so a
    matcher classifies each record once, at the visit it starts counting:
    its key goes to `above` or to the group of m's outcome that c is below.
    The strings entered by t are a prefix of the strings in entry order.  A
    visit drops the keys newly left out (those of strings entered after t,
    if t fell), swaps the k0 group when k0 changes and adds the keys newly
    entered; no visit rebuilds B."""

    def __init__(self, result: RunResult) -> None:
        self.records = sorted(((st, len(c.addr), c, key)
                               for key, records in result.chosen.items()
                               for c, st in records), key=itemgetter(0, 1))
        self.bounds = [r[:2] for r in self.records]
        self.entered = result.entered
        self.strings = sorted(self.entered, key=self.entered.__getitem__)
        self.entry = [self.entered[sigma] for sigma in self.strings]
        self.sorts = sorts(result.variant)
        self.matchers: dict[Node, _MatcherReplay] = {}

    def visit(self, m: Node, s: int, t: int, k0: int) -> tuple[set[StringKey], int, int]:
        """B at m's stage-s visit, and how many keys it dropped and added
        since m's previous visit.  The set is m's own and changes at its
        next visit."""
        rep = self.matchers.get(m)
        if rep is None:
            rep = self.matchers[m] = _MatcherReplay()
        addr, depth, tok = m.addr, len(m.addr), str(k0)
        B, above, below = rep.B, rep.above, rep.below
        end = bisect_left(self.bounds, (s, depth), rep.cursor)
        out = []
        for i in range(rep.cursor, end):
            st, d, c, key = self.records[i]
            if d < depth:
                if c.addr == addr[:d] and _token_at(c, st) == addr[d]:
                    above.add(key)
                    out.append(key)
            elif d > depth and c.addr[:depth] == addr:
                below.setdefault(c.addr[depth], set()).add(key)
                if c.addr[depth] == tok:
                    out.append(key)
        rep.cursor = end
        group = below.get(tok, set())
        n = bisect_right(self.entry, t)
        # A falling t leaves out the strings entered after it; a rising t
        # brings in the strings entered up to it.  One of the slices is empty.
        out += [(sigma, sort) for sigma in self.strings[n:rep.n] for sort in self.sorts]
        entering = [(sigma, sort) for sigma in self.strings[rep.n:n] for sort in self.sorts]
        if tok != rep.tok:
            out += group
            entering += [key for key in below.get(rep.tok, ()) if self.entered[key[0]] <= t]
        dropped = added = 0
        for key in out:
            if key in B:
                B.remove(key)
                dropped += 1
        for key in entering:
            if key not in B and key not in above and key not in group:
                B.add(key)
                added += 1
        rep.n, rep.tok = n, tok
        return B, dropped, added


def _check_b_sets(result: RunResult, report: Report) -> None:
    """At each matcher visit (an `mstat` event) B is replayed by `ReplayedB`:
    its size must be the event's |B|, and it must contain B at the matcher's
    previous visit, and equal it unless the matcher took an infinite outcome
    in between.  Both follow from the keys the visit dropped and added."""
    replay = ReplayedB(result)
    last: dict[Node, int] = {}
    moved: set[Node] = set()
    bad_size = None
    bad_mono = None
    bad_eq = None
    for ev in result.trace.records:
        if ev[0] == "outcome" and ev[3].startswith("i"):
            moved.add(ev[2])
        elif ev[0] == "mstat":
            _kind, stage, node, t, k0, _k1, bsize = ev
            current, dropped, added = replay.visit(node, stage, t, k0)
            if bad_size is None and bsize != len(current):
                bad_size = f"{node} at {stage}: {bsize} against {len(current)}"
            if node in last and (dropped or added and node not in moved):
                where = f"{node} between {last[node]} and {stage}"
                if bad_mono is None and dropped:
                    bad_mono = where
                if bad_eq is None and node not in moved:
                    bad_eq = where
            last[node] = stage
            moved.discard(node)
    report.add("responsibility-size", bad_size is None, bad_size or "")
    report.add("responsibility-monotone", bad_mono is None, bad_mono or "")
    report.add("responsibility-stable", bad_eq is None, bad_eq or "")


def _check_witness_ages(result: RunResult, report: Report) -> None:
    """Successive defined, unequal stability witnesses must get younger."""
    bad = None
    per_key: dict[tuple, list[tuple[int, int]]] = {}
    for ev in result.trace.records:
        if ev[0] != "xtau":
            continue
        # A single-sorted event omits the sort.
        _kind, s, node, sigma, *sort, x = ev
        if x is not None:
            per_key.setdefault((node, sigma, *sort), []).append((s, x))
    for (node, sigma, *_sort), rows in per_key.items():
        if not isinstance(node.req, ReqM):
            continue
        stream = result.adversaries[node.req.index].stream
        for (s0, x0), (s1, x1) in zip(rows, rows[1:]):
            if x0 == x1:
                continue
            a0, a1 = stream.age(x0), stream.age(x1)
            if (a1, x1) <= (a0, x0):
                bad = f"{node} {format_string(sigma)} at {s1}"
                break
        if bad:
            break
    report.add("witness-age-growth", bad is None, bad or "")
