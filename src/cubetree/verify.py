"""Oracles and claim checkers.

Covers the two constructive directions of the orbit-coding claim (build an
automorphism from branches, read branches back off an automorphism), the
labeling behavior of chosen versus unchosen strings, isomorphism checking
against snapshots and against adversary streams, orbit probing on test
trees, a bounded back-and-forth equivalence approximation, and the trace
invariant suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .adversary import Adversary
from .engine import (
    ReqM,
    ReqN,
    ReqU,
    RunResult,
    TPEntry,
    check_left_kill,
    format_addr,
    parse_addr,
)
from .structure import (
    CubeElem,
    Elem,
    NatString,
    Snapshot,
    UElem,
    UndefinedLabel,
    format_elem,
    format_string,
    holds_P,
    sorts,
)
from .trees import Branch, TestTree


class InvariantBroken(RuntimeError):
    """The automorphism failed a forced transfer step: not an automorphism."""


class BranchOutsideTree(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    locus: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        tail = f" ({self.locus})" if self.locus else ""
        return f"{status} {self.name}{tail}"


@dataclass
class Report:
    results: list[CheckResult] = field(default_factory=list)

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

@dataclass(frozen=True)
class BuiltAutomorphism:
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
    return BuiltAutomorphism(
        sigma, target, tuple(sorted(paths.items())), sort, uswap
    )


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
    from .structure import fsets_over, snapshot_from_declarations

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

def check_isomorphism(g, source: Snapshot, target, horizon: int | None = None) -> Report:
    if isinstance(target, Snapshot):
        return _check_iso_snapshot(g, source, target)
    return _check_iso_stream(g, source, target, horizon)


def _check_iso_snapshot(g, source: Snapshot, target: Snapshot) -> Report:
    report = Report()
    elems = source.elements()
    if source.variant == "dc":
        elems = elems + [UElem(0), UElem(1)]
    images: dict[Elem, Elem] = {}
    for e in elems:
        img = g(e)
        if img is None:
            report.add("total", False, format_elem(e))
            return report
        images[e] = img
    report.add("total", True)
    report.add("injective", len(set(images.values())) == len(images))
    w_ok = all(
        isinstance(img, CubeElem) == isinstance(e, CubeElem)
        and (not isinstance(e, CubeElem)
             or (img.sigma == e.sigma and img.sort == e.sort))
        for e, img in images.items()
    )
    report.add("respects-W", w_ok)
    by_string: dict[tuple, list[CubeElem]] = {}
    for e in elems:
        if isinstance(e, CubeElem):
            by_string.setdefault((e.sigma, e.sort), []).append(e)
    e_ok = True
    p_ok = True
    locus = ""
    for (sigma, sort), group in by_string.items():
        for e1 in group:
            for e2 in group:
                d0 = e1.fset ^ e2.fset
                d1 = images[e1].fset ^ images[e2].fset
                if (len(d0) == 1) != (len(d1) == 1) or (len(d0) == 1 and d0 != d1):
                    e_ok = False
                    locus = f"{format_elem(e1)},{format_elem(e2)}"
        parent = (sigma[:-1], sort) if sigma else None
        if parent in by_string:
            for e1 in by_string[parent]:
                for e2 in group:
                    if holds_P(e1, e2) != holds_P(images[e1], images[e2]):
                        p_ok = False
                        locus = f"{format_elem(e1)},{format_elem(e2)}"
    for e in elems:
        if isinstance(e, UElem):
            for other in elems:
                if isinstance(other, CubeElem):
                    if holds_P(e, other) != holds_P(images[e], images[other]):
                        p_ok = False
                        locus = f"u{e.k},{format_elem(other)}"
    report.add("respects-E", e_ok, locus if not e_ok else "")
    report.add("respects-P", p_ok, locus if not p_ok else "")
    s_ok = True
    for e in elems:
        if not isinstance(e, CubeElem):
            continue
        if source.labels(e) != target.labels(images[e]):
            s_ok = False
            locus = format_elem(e)
            break
    report.add("respects-S", s_ok, locus if not s_ok else "")
    return report


def _check_iso_stream(g, source: Snapshot, adv: Adversary, horizon: int) -> Report:
    """Check an extracted map against an adversary stream.

    The stream is positive-information only, so relation preservation is
    checked as: source-true facts must appear by the horizon (allowing the
    copy's enumeration lag), and stream facts among mapped elements must be
    source-true.
    """
    report = Report()
    stream = adv.stream
    lag = adv.delay
    enumerated = stream.elements(horizon)
    if adv.to_ground:
        elems = [
            adv.to_ground[x] for x in enumerated
            if isinstance(adv.to_ground.get(x), CubeElem)
        ]
    else:
        elems = [
            e for e in source.elements()
            if stream.witnesses_W(e.sigma, e.sort, horizon)
        ]
    images: dict[CubeElem, int] = {}
    missing = [e for e in elems if g(e) is None]
    if missing:
        report.add("total", False, format_elem(missing[0]))
        return report
    for e in elems:
        images[e] = g(e)
    report.add("total", True)
    report.add(
        "injective",
        len(set(images.values())) == len(images),
    )
    covered = set(images.values())
    uncovered = [x for x in enumerated if x not in covered]
    if adv.to_ground:
        uncovered = [
            x for x in uncovered if isinstance(adv.to_ground.get(x), CubeElem)
        ]
    report.add(
        "covers-enumerated",
        not uncovered,
        f"{len(uncovered)} elements uncovered" if uncovered else "",
    )
    w_ok = True
    s_ok = True
    e_ok = True
    p_ok = True
    locus: dict[str, str] = {}
    by_string: dict[tuple, list[CubeElem]] = {}
    for e in elems:
        by_string.setdefault((e.sigma, e.sort), []).append(e)
    label_bound = max(0, min(source.stage, horizon) - lag)
    for e in elems:
        x = images[e]
        if not stream.holds_within(("W", e.sigma, e.sort, x), horizon):
            w_ok = False
            locus.setdefault("W", format_elem(e))
        for n in source.store.labels(e, upto=label_bound):
            if not stream.holds_within(("S", n, x), horizon):
                s_ok = False
                locus.setdefault("S", f"S_{n} {format_elem(e)}")
    for (sigma, sort), group in by_string.items():
        for e1 in group:
            for e2 in group:
                diff = e1.fset ^ e2.fset
                if len(diff) == 1:
                    i = next(iter(diff))
                    if not stream.holds_within(("E", i, images[e1], images[e2]), horizon):
                        e_ok = False
                        locus.setdefault("E", f"{format_elem(e1)}-{format_elem(e2)}")
        parent = (sigma[:-1], sort) if sigma else None
        if parent in by_string:
            for e1 in by_string[parent]:
                for e2 in group:
                    if holds_P(e1, e2) and not stream.holds_within(
                        ("P", images[e1], images[e2]), horizon
                    ):
                        p_ok = False
                        locus.setdefault("P", f"{format_elem(e1)}->{format_elem(e2)}")
    # Soundness: stream facts among mapped elements must be source-true.
    back = {x: e for e, x in images.items()}
    sound = True
    for step, fact in stream.facts_within(horizon):
        kind = fact[0]
        if kind == "W" and fact[3] in back:
            e = back[fact[3]]
            if (fact[1], fact[2]) != (e.sigma, e.sort):
                sound = False
                locus.setdefault("sound", f"W at {fact[3]}")
        elif kind == "S" and fact[2] in back:
            if not source.store.has_label(fact[1], back[fact[2]]):
                sound = False
                locus.setdefault("sound", f"S_{fact[1]} at {fact[2]}")
        elif kind == "E" and fact[2] in back and fact[3] in back:
            e1, e2 = back[fact[2]], back[fact[3]]
            if e1.fset ^ e2.fset != {fact[1]} or e1.sigma != e2.sigma or e1.sort != e2.sort:
                sound = False
                locus.setdefault("sound", f"E at {fact[2]},{fact[3]}")
        elif kind == "P" and fact[1] in back and fact[2] in back:
            if not holds_P(back[fact[1]], back[fact[2]]):
                sound = False
                locus.setdefault("sound", f"P at {fact[1]},{fact[2]}")
    report.add("respects-W", w_ok, locus.get("W", ""))
    report.add("respects-S", s_ok, locus.get("S", ""))
    report.add("respects-E", e_ok, locus.get("E", ""))
    report.add("respects-P", p_ok, locus.get("P", ""))
    report.add("sound", sound, locus.get("sound", ""))
    return report


# ---------------------------------------------------------------------------
# Labeling behavior of chosen versus unchosen strings across horizons.

def check_labeling(result: RunResult, tp_entries: list[TPEntry],
                   s0: int, s1: int) -> Report:
    report = Report()
    growing_on_path: set[tuple[NatString, int | None]] = set()
    for entry in tp_entries:
        node = result.nodes[entry.addr]
        if isinstance(node.req, ReqN) and "sigma" in node.state:
            growing_on_path.add((node.state["sigma"], None))
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
    report = Report()
    ok, locus = check_left_kill(result.stage_paths())
    report.add("left-kill", ok, locus or "")
    _check_n_sigma_definedness(result, report)
    _check_choice_discipline(result, report)
    _check_gamma_lengths(result, report)
    _check_b_sets(result, report)
    _check_witness_ages(result, report)
    return report


def _check_n_sigma_definedness(result: RunResult, report: Report) -> None:
    bad = None
    for s in range(2, result.horizon + 1):
        for sigma in result.universe_strings(s - 1):
            for sort in sorts(result.variant):
                try:
                    result.store.n_sigma(sigma, sort, s)
                except UndefinedLabel:
                    bad = f"{format_string(sigma)} at stage {s}"
                    break
            if bad:
                break
        if bad:
            break
    report.add("top-label-defined", bad is None, bad or "")


def _check_choice_discipline(result: RunResult, report: Report) -> None:
    from .structure import birth_stage

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
        first_addr = records[0][0]
        for addr, _stage in records[1:]:
            node = result.nodes.get(addr)
            if node is None or not isinstance(node.req, ReqU):
                bad = f"{format_string(sigma)} re-chosen by a non-diagonalizer"
                break
            if first_addr[: len(addr) + 1] != addr + ("0",):
                bad = f"{format_string(sigma)} stolen from outside the 0-subtree"
                break
        if bad:
            break
    name = "choose-once" if result.variant == "cc" else "steal-only-by-diagonalizer"
    report.add(name, bad is None, bad or "")


def _check_gamma_lengths(result: RunResult, report: Report) -> None:
    bad = None
    for ev in result.trace:
        if ev[0] == "gamma":
            _kind, _s, _addr, gamma, n = ev
            if len(gamma) != n:
                bad = f"{_addr} at stage {_s}"
                break
    report.add("inherited-length", bad is None, bad or "")


def _mnode_visit_data(result: RunResult):
    """Per copy-matching node: the (stage, t, k0) triples and outcome kinds."""
    data: dict[tuple, list[tuple[int, int, int]]] = {}
    for ev in result.trace:
        if ev[0] == "mstat":
            _kind, s, addr, t, k0, _k1, _bsize = ev
            data.setdefault(parse_addr(addr), []).append((s, t, k0))
    return data


def _recompute_B(result: RunResult, addr, stage: int, t: int, k0: int):
    """Replay the responsibility set from choice records, as of the moment
    the node was visited (stage paths put ancestors first)."""
    node = result.nodes[addr]

    def chosen_before(records) -> bool:
        return any(
            st < stage or (st == stage and len(a) < len(addr))
            for a, st in records
        )

    def chosen_by_ext(records, prefix) -> bool:
        return any(
            a[: len(prefix)] == prefix
            and (st < stage or (st == stage and len(a) < len(addr)))
            for a, st in records
        )

    fin = addr + (str(k0),)
    out = []
    if result.variant == "cc":
        for sigma in result.universe_strings(t):
            records = result.chosen.get((sigma, None), [])
            if any(len(a) < len(addr) and addr[: len(a)] == a and chosen_before([(a, st)])
                   for a, st in records):
                continue
            if chosen_by_ext(records, fin):
                continue
            out.append((sigma, None))
    else:
        cpairs = set(node.state.get("C", []))
        for sigma in result.universe_strings(t):
            for a in (0, 1):
                if (sigma, a) in cpairs:
                    continue
                records = result.chosen.get((sigma, a), [])
                if chosen_by_ext(records, fin):
                    continue
                out.append((sigma, a))
    return set(out)


def _check_b_sets(result: RunResult, report: Report) -> None:
    inf_stages: dict[tuple, set[int]] = {}
    for ev in result.trace:
        if ev[0] == "outcome" and ev[3].startswith("i"):
            inf_stages.setdefault(parse_addr(ev[2]), set()).add(ev[1])
    bad_mono = None
    bad_eq = None
    for addr, visits in _mnode_visit_data(result).items():
        node = result.nodes.get(addr)
        if node is None or not isinstance(node.req, ReqM):
            continue
        prev = None
        prev_stage = None
        infs = inf_stages.get(addr, set())
        for stage, t, k0 in visits:
            current = _recompute_B(result, addr, stage, t, k0)
            if prev is not None:
                if not prev <= current:
                    bad_mono = f"{format_addr(addr)} between {prev_stage} and {stage}"
                if not any(prev_stage <= q < stage for q in infs) and prev != current:
                    bad_eq = f"{format_addr(addr)} between {prev_stage} and {stage}"
            prev, prev_stage = current, stage
    report.add("responsibility-monotone", bad_mono is None, bad_mono or "")
    report.add("responsibility-stable", bad_eq is None, bad_eq or "")


def _check_witness_ages(result: RunResult, report: Report) -> None:
    """Successive defined, unequal stability witnesses must get younger."""
    bad = None
    per_key: dict[tuple, list[tuple[int, int]]] = {}
    for ev in result.trace:
        if ev[0] != "xtau":
            continue
        if result.variant == "cc":
            _kind, s, addr, sigma, x = ev
            key = (addr, sigma, None)
        else:
            _kind, s, addr, sigma, sort, x = ev
            key = (addr, sigma, sort)
        if x is not None:
            per_key.setdefault(key, []).append((s, x))
    for (addr, sigma, sort), rows in per_key.items():
        node = result.nodes.get(parse_addr(addr))
        if node is None or not isinstance(node.req, ReqM):
            continue
        stream = result.adversaries[node.req.index].stream
        for (s0, x0), (s1, x1) in zip(rows, rows[1:]):
            if x0 == x1:
                continue
            a0, a1 = stream.age(x0), stream.age(x1)
            if (a1, x1) <= (a0, x0):
                bad = f"{addr} {format_string(sigma)} at {s1}"
                break
        if bad:
            break
    report.add("witness-age-growth", bad is None, bad or "")
