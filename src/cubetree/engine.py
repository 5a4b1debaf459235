"""Tree-of-strategies engine: node store, stage loop, trace, true path.

The engine owns the mechanics shared by both constructions: nodes typed
dynamically at first visit, one visit per depth per stage, lexicographic
outcome order with the left-kill discipline, the label store, the freshness
watermark, the live adversary generators, and the replayable event trace.
Strategy behavior lives in the construction modules and is dispatched
through the variant hooks.
"""

from __future__ import annotations

from bisect import insort
from itertools import count, islice
from typing import Any, NamedTuple

from .adversary import Adversary, FaithfulGenerator, GroundEnumeration, stream_from_lines
from .structure import (
    CubeElem,
    GrowEvent,
    LabelStore,
    NatString,
    Record,
    Snapshot,
    StringKey,
    UniverseSchedule,
    birth_stage,
    format_string,
    ladder_key,
    sorts,
)

Addr = tuple[str, ...]


# ---------------------------------------------------------------------------
# Requirements: records, not tuples, as kinds with equal fields meet in
# PathIndex.by_req.

class ReqN(Record):
    __slots__ = _fields = ("pi",)


class ReqM(Record):
    __slots__ = _fields = ("index",)


class ReqMother(Record):
    __slots__ = _fields = ("r", "a")


class ReqDaughter(Record):
    __slots__ = _fields = ("r", "n", "a")


class ReqU(Record):
    # slot: the mother whose sort-0 value it diagonalizes; e: the functional id.
    __slots__ = _fields = ("slot", "e")


class ReqIdle(Record):
    __slots__ = _fields = ()


Requirement = ReqN | ReqM | ReqMother | ReqDaughter | ReqU | ReqIdle


def req_label(req: Requirement) -> str:
    if isinstance(req, ReqN):
        return "N" + format_string(req.pi)
    if isinstance(req, ReqM):
        return f"M{req.index}"
    if isinstance(req, ReqMother):
        return f"Nm{req.r}s{req.a}"
    if isinstance(req, ReqDaughter):
        return f"Nd{req.r}.{req.n}s{req.a}"
    if isinstance(req, ReqU):
        return f"U{req.slot}.{req.e}"
    return "Idle"


# ---------------------------------------------------------------------------
# Outcome tokens and their left-to-right order.
#
# Tokens: "o" (single-outcome strategies); "ii" and "i<k>" and "<k>" for the
# isomorphism strategies; "i" and "<k>" for daughters; "1"/"0" for the
# diagonalizers.  Keys compare only among siblings, which always share a
# strategy type.

def outcome_key(token: str) -> tuple[int, int]:
    if token in ("o", "ii", "i"):
        return (0, 0)
    if token.startswith("i"):
        return (1, -int(token[1:]))
    return (2, -int(token))


def format_addr(addr: Addr) -> str:
    return "/" + "/".join(addr) if addr else "/"


# ---------------------------------------------------------------------------
# Nodes.

class Node:
    __slots__ = ("addr", "req", "label", "state", "outcomes", "kids", "grew")

    def __init__(self, addr: Addr) -> None:
        self.addr = addr
        self.req: Requirement | None = None
        # req_label(req), built when the node is typed; the trace and true path share it.
        self.label = ""
        # The strategy's record, built by its act hook on the first visit: a cc.TreeState,
        # dc.MotherState, DaughterState, DiagonalizerState or match.MatcherState; None for Idle.
        self.state: Any = None
        # (stage, token) per visit, in stage order.
        self.outcomes: list[tuple[int, str]] = []
        # Token -> child, filled as the stage loop first steps to each child;
        # None until then, and for Idle nodes, where the loop stops.
        self.kids: dict[str, Node] | None = None
        # A chooser's last growth event of a key it is recorded as choosing.
        self.grew: GrowEvent | None = None

    @property
    def visits(self) -> list[int]:
        """The stages the node was visited at, read off its outcomes."""
        return [s for s, _token in self.outcomes]

    def outcome_counts(self, window: int | None = None) -> dict[str, int]:
        tail = self.outcomes if window is None else self.outcomes[-window:]
        counts: dict[str, int] = {}
        for _stage, token in tail:
            counts[token] = counts.get(token, 0) + 1
        return counts

    def __str__(self) -> str:
        return format_addr(self.addr)


class Trace:
    """The run's events in order.  `records` is the list `Engine.emit`
    appends to: one event per record, except that each Idle tail is the one
    record ("tail", s, R, k).  At stage s the stage path ends in the chain
    R, R/o, R/o/o, ... of `chains[R]`, down to depth s; each chain node has a
    visit and an "o" outcome event, preceded by its typed event from chain
    offset k on.  Iterating yields the events with every tail expanded over
    its chain nodes, and len counts those events.  `lines` writes them in
    one pass, whose text cache is keyed by object id and lives as long as
    the pass: the records hold every node and string it caches, so no id is
    reused while the cache is alive."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        # Per tail head R, its chain of Idle nodes, R first.
        self.chains: dict[Node, list[Node]] = {}
        # The events the tail records hold beyond one each.
        self._extra = 0

    def add_tail(self, s: int, head: Node, k: int) -> None:
        self.records.append(("tail", s, head, k))
        # Three events per chain node down to depth s, less the k typed
        # events written at earlier stages.
        self._extra += 3 * (s - len(head.addr) + 1) - k - 1

    def __len__(self) -> int:
        return len(self.records) + self._extra

    def __iter__(self):
        for rec in self.records:
            if rec[0] == "tail":
                yield from self._tail(rec)
            else:
                yield rec

    def _tail(self, rec: tuple):
        """The events of tail record rec, in order."""
        _kind, s, head, k = rec
        for j, node in enumerate(self.chains[head][:s - len(head.addr) + 1]):
            if j >= k:
                yield ("typed", s, node, node.label)
            yield ("visit", s, node, node.label)
            yield ("outcome", s, node, "o")

    def lines(self):
        """The text lines of every event, in order, in one pass over the
        records.  One `format_event` cache serves the whole pass, so each
        node's address and each string is formatted once.

        A tail's events come from `_tail`; each chain node's text is its
        head's text plus "/o" per chain step.  Those chain texts stay out of
        the pass-wide cache and are kept only while consecutive tail records
        share a head: kept for the whole pass, they would hold the text of
        every chain node at once."""
        texts: dict[int, str] = {}
        head = None
        for rec in self.records:
            if rec[0] != "tail":
                yield format_event(rec, texts)
                continue
            _kind, s, node, _k = rec
            if node is not head:
                head = node
                text = texts.get(id(head))
                if text is None:
                    text = texts[id(head)] = format_addr(head.addr)
                chain = [text]
                stem = text if head.addr else ""
                top = len(head.addr)
            for j in range(len(chain), s - top + 1):
                chain.append(stem + "/o" * j)
            for kind, _s, n, last in self._tail(rec):
                yield f"{kind} {s} {chain[len(n.addr) - top]} {last}"


class PathIndex:
    """The current stage path, kept as the stage loop descends: its nodes in
    order, each node by its requirement, its matchers, and what the
    two-sorted typing reads off it (the mothers, the largest daughter n per
    (slot, sort), and the frozen diagonalizers whose 1-outcome the path
    takes).  `lead` is the index of the first priority-order entry not on
    the path, as far as `first_fit` has looked; the path only grows within
    a stage, so the lead only moves forward."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.by_req: dict[Requirement, Node] = {}
        self.lead = 0
        self.matchers: list[Node] = []
        self.mothers: list[Node] = []
        self.coverage: dict[tuple[int, int], int] = {}
        self.frozen: list[Node] = []

    def push(self, node: Node, token: str) -> None:
        req = node.req
        self.nodes.append(node)
        self.by_req[req] = node
        if isinstance(req, ReqDaughter):
            key = (req.r, req.a)
            if req.n > self.coverage.get(key, 0):
                self.coverage[key] = req.n
        elif isinstance(req, ReqMother):
            self.mothers.append(node)
        elif isinstance(req, ReqU) and token == "1":
            # A diagonalizer takes its 1-outcome only once it has frozen.
            self.frozen.append(node)
        elif isinstance(req, ReqM):
            self.matchers.append(node)


# ---------------------------------------------------------------------------
# Engine.

class Engine:
    def __init__(self, config) -> None:
        self.cfg = config
        self.variant: str = config.variant
        self.horizon: int = config.horizon
        self.schedule: UniverseSchedule = config.universe
        self.store = LabelStore(variant=self.variant)
        self.nodes: dict[Addr, Node] = {}
        self.trace = Trace()
        self.watermark = 0
        # Per key, its (chooser, stage) choice records, one per chooser.
        self.chosen: dict[StringKey, list[tuple[Node, int]]] = {}
        # Matcher node -> the keys chosen below its ii outcome.  A matcher's
        # choosers are its descendants, which act only after its first visit,
        # so each choice is filed as it is recorded.
        self._below: dict[Node, set[StringKey]] = {}
        # Every string that has entered the slice, with its entry stage; and
        # per stage, the strings entering then, in ladder order.
        self.entered: dict[NatString, int] = {}
        self._entering: dict[int, list[NatString]] = {}
        self.zprime: dict[int, int] = {}
        # Per (slot, sort), the daughter nodes in typing order.
        self.daughters: dict[tuple[int, int], list[Node]] = {}
        self._witness_next = config.witness_base
        self.path = PathIndex()
        if self.variant == "cc":
            from . import cc as strat
        else:
            from . import dc as strat
        self.strat = strat
        # The priority order drawn so far, shared across nodes.
        self.ordering: list[Requirement] = []
        self._ordering_rest = strat.ordering_iter(config)
        self.adversaries: list[Adversary] = []
        self._generators: list[FaithfulGenerator] = []
        enumeration = GroundEnumeration(self.variant, self.schedule)
        for spec in config.adversaries:
            if spec.kind == "faithful":
                gen = FaithfulGenerator(enumeration, spec.permutation, spec.delay,
                                        spec.defects, spec.label)
                self._generators.append(gen)
                self.adversaries.append(gen.adversary)
            else:
                stream = stream_from_lines(spec.lines, sorts(self.variant), spec.path)
                self.adversaries.append(Adversary(stream, label=spec.label))

    # -- primitives used by the strategy modules ---------------------------

    def emit(self, *event) -> None:
        self.trace.records.append(event)

    def mention(self, n: int) -> None:
        if n > self.watermark:
            self.watermark = n

    def fresh(self, floor: int = 0) -> int:
        v = max(self.watermark, floor) + 1
        self.mention(v)
        return v

    def node_at(self, addr: Addr) -> Node:
        node = self.nodes.get(addr)
        if node is None:
            node = Node(addr=addr)
            self.nodes[addr] = node
        return node

    def path_nodes(self, addr: Addr) -> list[Node]:
        """Proper ancestors of addr, root first.  During the stage loop the
        ancestors are the already-visited prefix of the current path, which
        avoids re-slicing addresses on deep trees."""
        depth = len(addr)
        current = self.path.nodes
        if depth and len(current) >= depth and current[depth - 1].addr == addr[:-1]:
            return current[:depth]
        return [self.nodes[addr[:k]] for k in range(depth)]

    def grow(self, sigma: NatString, sort: int | None, stage: int,
             chooser: Node | None) -> None:
        ev = self.store.grow(sigma, sort, stage)
        sigma = ev.sigma
        self.emit("grow", stage, sigma, sort, ev.pre_top)
        known = chooser.grew if chooser is not None else None
        if known is not None and known.sigma is sigma and known.sort == sort:
            # The chooser's record exists and its numbers were mentioned.
            return
        if sigma:
            self.mention(max(sigma))
        if chooser is not None:
            chooser.grew = ev
            records = self.chosen.setdefault((sigma, sort), [])
            if not any(c is chooser for c, _ in records):
                records.append((chooser, stage))
                self.emit("choose", stage, chooser, sigma, sort)
                # The chooser is being visited: its parent ends the path.
                for anc in self.path.matchers:
                    if chooser.addr[len(anc.addr)] == "ii":
                        self._below.setdefault(anc, set()).add((sigma, sort))
                # Strings are chosen before birth, so this is their entry.
                self._enter(sigma, birth_stage(sigma))

    def declare_base(self, sigma: NatString, sort: int | None, stage: int) -> None:
        if self.store.declare(0, CubeElem(frozenset(), tuple(sigma), sort), stage):
            self.emit("gdecl", stage, tuple(sigma), sort)

    def _enter(self, sigma: NatString, stage: int) -> None:
        if sigma not in self.entered:
            self.entered[sigma] = stage
            insort(self._entering.setdefault(stage, []), sigma, key=ladder_key)

    def universe_strings(self, s: int) -> list[NatString]:
        """The stage-s slice of omega^{<omega} in ladder order."""
        return sorted((t for t, e in self.entered.items() if e <= s), key=ladder_key)

    def entering(self, s: int) -> list[NatString]:
        """The strings that enter the slice at stage s, in ladder order."""
        return list(self._entering.get(s, ()))

    def keys_chosen_below(self, matcher: Node) -> set[StringKey]:
        """The keys chosen below a matcher's ii outcome.  The set is the
        engine's own and grows with later choices, so callers read it and
        must not change it."""
        return self._below.get(matcher, set())

    def first_fit(self, allowed=None) -> Requirement:
        """The first requirement of the priority order off the current path
        that `allowed` (if given) accepts; Idle once a finite order runs out.
        The scan starts at the path's lead, which it first moves past the
        entries on the path: every entry before the lead is on the path."""
        path = self.path
        on_path = path.by_req
        ordering = self.ordering
        for k in count(path.lead):
            if k == len(ordering):
                req = next(self._ordering_rest, None)
                if req is None:
                    return ReqIdle()
                ordering.append(req)
            req = ordering[k]
            if req in on_path:
                if k == path.lead:
                    path.lead = k + 1
            elif allowed is None or allowed(req):
                return req

    def alloc_witness(self) -> int:
        x = self._witness_next
        self._witness_next += 1
        return x

    def enumerate_witness(self, x: int, stage: int) -> None:
        if x not in self.zprime:
            self.zprime[x] = stage
            self.emit("zenum", stage, x)

    # -- the stage loop -----------------------------------------------------

    def run(self) -> Engine:
        emit = self.trace.records.append
        for s in range(1, self.horizon + 1):
            self.mention(s)
            emit(("stage", s))
            emit(("window", s, self.schedule.width(s), self.schedule.f_width(s)))
            for sigma in self.schedule.base_strings(s):
                self._enter(sigma, s)
            self.path = PathIndex()
            # One (stage, token) pair per token taken this stage, shared by
            # the outcome lists of the nodes that take it.
            taken: dict[str, tuple[int, str]] = {}
            node = self.node_at(())
            for depth in range(s + 1):
                if depth:
                    node = self._child(node, token)
                typed = node.req is None
                if typed:
                    node.req = self.strat.assign_type(self, node, s)
                    node.label = req_label(node.req)
                if isinstance(node.req, ReqIdle):
                    self._visit_tail(node, s)
                    break
                if typed:
                    emit(("typed", s, node, node.label))
                emit(("visit", s, node, node.label))
                token = self.strat.act(self, node, s)
                node.outcomes.append(taken.setdefault(token, (s, token)))
                emit(("outcome", s, node, token))
                self.path.push(node, token)
            self.path = PathIndex()
            self.strat.act_G(self, s)
            for gen in self._generators:
                gen.ingest(s, self)
        return self

    def _child(self, node: Node, token: str) -> Node:
        """node's child under token, through node's child links; its address
        is built once, when the link is made."""
        kids = node.kids
        if kids is None:
            kids = node.kids = {}
        child = kids.get(token)
        if child is None:
            child = kids[token] = self.node_at(node.addr + (token,))
        return child

    def _visit_tail(self, head: Node, s: int) -> None:
        """Visit the Idle tail from head down to depth s as one trace record.
        Each chain node is built on its first visit with head's requirement
        and label, untyped by `assign_type`.  That is exact: `first_fit`
        returns Idle only once a finite order has run out with every
        requirement on the path, and a descendant's path holds its
        ancestor's.  An Idle node holds no state and takes "o"."""
        chain = self.trace.chains.setdefault(head, [])
        k = len(chain)
        if not chain:
            chain.append(head)
        for _offset in range(len(chain), s - len(head.addr) + 1):
            node = Node(chain[-1].addr + ("o",))
            node.req, node.label = head.req, head.label
            self.nodes[node.addr] = node
            chain.append(node)
        visit = (s, "o")
        for node in chain:
            node.outcomes.append(visit)
        self.trace.add_tail(s, head, k)

    # -- the finished run ---------------------------------------------------

    def snapshot(self, stage: int | None = None) -> Snapshot:
        stage = self.horizon if stage is None else stage
        strings = [(t, sort) for t in self.universe_strings(stage)
                   for sort in sorts(self.variant)]
        return Snapshot(
            self.variant,
            stage,
            self.store,
            tuple(strings),
            tuple(self.schedule.fsets(stage)),
        )

    def trace_lines(self, lo: int = 0, hi: int | None = None) -> list[str]:
        """The text lines of the trace events [lo:hi], Idle tails expanded."""
        lo, hi, _ = slice(lo, hi).indices(len(self.trace))
        return list(islice(self.trace.lines(), lo, hi))


# A finished run is its engine.
RunResult = Engine


def run_stages(config) -> RunResult:
    """Run the configured construction to its horizon and return the result."""
    return Engine(config).run()


def format_event(ev: tuple, texts: dict[int, str]) -> str:
    """One trace line.  A string is a plain tuple, written <...>; a node is
    written as its address; None as "-"; anything else, a record (a
    NamedTuple too) among them, as its str.  Fields are told apart by exact
    type, most frequent first.

    `texts` caches the text of each node and string by identity, so a deep
    address or long string met at many events is formatted once.  A caller
    keeps one cache for as long as the events it formats are alive (one
    `Trace.lines` pass, which the run's records outlive), so no id in it
    can be reused by another object."""
    parts = []
    for p in ev:
        kind = type(p)
        if kind is str:
            parts.append(p)
        elif kind is int:
            parts.append(str(p))
        elif kind is Node or kind is tuple:
            text = texts.get(id(p))
            if text is None:
                text = texts[id(p)] = format_addr(p.addr) if kind is Node else format_string(p)
            parts.append(text)
        elif p is None:
            parts.append("-")
        else:
            parts.append(str(p))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# True-path approximation.

class TPEntry(NamedTuple):
    addr: Addr
    label: str
    outcome: str | None
    visits: int
    counts: dict[str, int]


def true_path_approx(result: RunResult, threshold: int = 3,
                     window: int | None = None) -> list[TPEntry]:
    """Finite-horizon surrogate of the true path.

    From the root, repeatedly take the leftmost outcome occurring at least
    `threshold` times among the node's last `window` visits (window defaults
    to the larger of twice the threshold and half the visit count).  Reported
    with per-node counts so callers can judge stability.
    """
    entries: list[TPEntry] = []
    addr: Addr = ()
    while True:
        node = result.nodes.get(addr)
        if node is None or node.req is None or isinstance(node.req, ReqIdle):
            break
        win = window
        if win is None:
            win = max(2 * threshold, len(node.outcomes) // 2)
        counts = node.outcome_counts(win)
        qualifying = [t for t, c in counts.items() if c >= threshold]
        chosen = min(qualifying, key=outcome_key) if qualifying else None
        entries.append(TPEntry(addr, node.label, chosen,
                               len(node.outcomes), counts))
        if chosen is None:
            break
        addr = addr + (chosen,)
    return entries


# ---------------------------------------------------------------------------
# Left-kill check.

def check_left_kill(trace: list[tuple]) -> tuple[bool, str | None]:
    """True when no node is visited again after a node strictly to its left
    has been visited in between.  Siblings share their parent, so this reads
    each node's outcome events: taking token t at stage s visits the child
    addr + (t,) unless the node is the bottom of the stage path (depth s).
    A child is killed when its parent takes a token left of it.

    Given `Trace.records`, it skips each Idle tail whole, which is exact: a
    chain node only ever takes "o", so inside the chain nothing kills or is
    killed, and the head's own position is checked by its parent's outcome
    records."""
    last: dict[Node, str] = {}
    # Nodes that have taken two tokens or more: the live tokens with their
    # keys, and the killed ones.
    kids: dict[Node, tuple[dict[str, tuple[int, int]], set[str]]] = {}
    for ev in trace:
        if ev[0] != "outcome":
            continue
        _kind, stage, node, token = ev
        prev = last.get(node)
        if prev == token or len(node.addr) >= stage:
            continue
        last[node] = token
        if prev is None:
            continue
        live, dead = kids.setdefault(node, ({prev: outcome_key(prev)}, set()))
        if token in dead:
            return False, f"stage {stage}: visited {format_addr(node.addr + (token,))} after a left neighbor"
        key = live[token] = outcome_key(token)
        for other in [other for other, k in live.items() if k > key]:
            del live[other]
            dead.add(other)
    return True, None
