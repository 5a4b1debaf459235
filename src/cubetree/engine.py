"""Tree-of-strategies engine: node store, stage loop, trace, true path.

The engine owns the mechanics shared by both constructions: nodes typed
dynamically at first visit, one visit per depth per stage, lexicographic
outcome order with the left-kill discipline, the label store, the freshness
watermark, the live adversary generators, and the replayable event trace.
Strategy behavior lives in the construction modules and is dispatched
through the variant hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .adversary import Adversary, FaithfulGenerator, stream_from_lines
from .config import ConfigError
from .structure import (
    LabelStore,
    NatString,
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
# Requirements.

@dataclass(frozen=True)
class ReqN:
    pi: NatString


@dataclass(frozen=True)
class ReqM:
    index: int


@dataclass(frozen=True)
class ReqMother:
    r: int
    a: int


@dataclass(frozen=True)
class ReqDaughter:
    r: int
    n: int
    a: int


@dataclass(frozen=True)
class ReqU:
    slot: int  # mother index whose sort-0 value this requirement diagonalizes
    e: int  # functional id


@dataclass(frozen=True)
class ReqIdle:
    pass


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


def strictly_left(a: Addr, b: Addr) -> bool:
    """a lies strictly left of b (neither a prefix of the other, split left)."""
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    if k == len(a) or k == len(b):
        return False
    return outcome_key(a[k]) < outcome_key(b[k])


def format_addr(addr: Addr) -> str:
    return "/" + "/".join(addr) if addr else "/"


def parse_addr(text: str) -> Addr:
    if text == "/":
        return ()
    return tuple(text.strip("/").split("/"))


# ---------------------------------------------------------------------------
# Nodes.

@dataclass
class Node:
    addr: Addr
    req: Requirement | None = None
    typed_at: int | None = None
    state: dict = field(default_factory=dict)
    visits: list[int] = field(default_factory=list)
    outcomes: list[tuple[int, str]] = field(default_factory=list)

    def outcome_counts(self, window: int | None = None) -> dict[str, int]:
        tail = self.outcomes if window is None else self.outcomes[-window:]
        counts: dict[str, int] = {}
        for _stage, token in tail:
            counts[token] = counts.get(token, 0) + 1
        return counts

    def depth(self) -> int:
        return len(self.addr)


# ---------------------------------------------------------------------------
# Engine.

class Engine:
    def __init__(self, config) -> None:
        if config.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        self.cfg = config
        self.variant: str = config.variant
        self.horizon: int = config.horizon
        self.schedule: UniverseSchedule = config.universe
        self.store = LabelStore(variant=self.variant)
        self.nodes: dict[Addr, Node] = {}
        self.trace: list[tuple] = []
        self.watermark = 0
        self.chosen: dict[StringKey, list[tuple[Addr, int]]] = {}
        self.chosen_birth: dict[NatString, int] = {}
        self.touched: dict[int, set[StringKey]] = {}
        self._stage_touched: set[StringKey] = set()
        self.zprime: dict[int, int] = {}
        self._witness_next = config.witness_base
        self._current_path: list[Node] = []
        if self.variant == "cc":
            from . import cc as strat
        elif self.variant == "dc":
            from . import dc as strat
        else:
            raise ConfigError(f"unknown variant {self.variant!r}")
        self.strat = strat
        strat.validate_config(config)
        # Strategy state shared across nodes: the priority order drawn so
        # far, and the strings the global strategy has covered.
        self.ordering: list[Requirement] = []
        self._ordering_rest = strat.ordering_iter(config)
        self.g_covered: set[NatString] = set()
        self.adversaries: list[Adversary] = []
        self._generators: list[FaithfulGenerator | None] = []
        for spec in config.adversaries:
            if spec.kind == "faithful":
                gen = FaithfulGenerator(
                    self.variant,
                    self.schedule,
                    permutation=spec.permutation,
                    delay=spec.delay,
                    defects=spec.defects,
                    label=spec.label,
                )
                self._generators.append(gen)
                self.adversaries.append(gen.result())
            elif spec.kind == "file":
                stream = stream_from_lines(spec.lines, spec.path)
                self._generators.append(None)
                self.adversaries.append(Adversary(stream, label=spec.label))
            else:
                raise ConfigError(f"unknown adversary kind {spec.kind!r}")

    # -- primitives used by the strategy modules ---------------------------

    def emit(self, *event) -> None:
        self.trace.append(tuple(event))

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
        current = self._current_path
        if depth and len(current) >= depth and current[depth - 1].addr == addr[:-1]:
            return current[:depth]
        return [self.nodes[addr[:k]] for k in range(depth)]

    def grow(self, sigma: NatString, sort: int | None, stage: int,
             chooser: Addr | None) -> None:
        sigma = tuple(sigma)
        for part in sigma:
            self.mention(part)
        ev = self.store.grow(sigma, sort, stage)
        self._stage_touched.add((sigma, sort))
        self.emit("grow", stage, sigma, sort, ev.pre_top)
        if chooser is not None:
            records = self.chosen.setdefault((sigma, sort), [])
            if not any(a == chooser for a, _ in records):
                records.append((chooser, stage))
                self.emit("choose", stage, format_addr(chooser), sigma, sort)
                if sigma not in self.chosen_birth:
                    self.chosen_birth[sigma] = birth_stage(sigma)

    def declare_base(self, sigma: NatString, sort: int | None, stage: int) -> None:
        from .structure import CubeElem

        if self.store.declare(0, CubeElem(frozenset(), tuple(sigma), sort), stage):
            self._stage_touched.add((tuple(sigma), sort))
            self.emit("gdecl", stage, tuple(sigma), sort)

    def universe_strings(self, s: int) -> list[NatString]:
        """The stage-s slice of omega^{<omega}: the breadth-covered base plus
        every chosen string past its birth stage."""
        base = set(self.schedule.base_strings(s))
        base.update(t for t, b in self.chosen_birth.items() if b <= s)
        return sorted(base, key=ladder_key)

    def choosers(self, sigma: NatString, sort: int | None) -> list[tuple[Addr, int]]:
        return self.chosen.get((tuple(sigma), sort), [])

    def chosen_by_extension_of(self, sigma: NatString, sort: int | None,
                               prefix: Addr) -> bool:
        return any(a[: len(prefix)] == prefix for a, _ in self.choosers(sigma, sort))

    def chosen_by_ancestor_of(self, sigma: NatString, sort: int | None,
                              addr: Addr) -> bool:
        return any(len(a) < len(addr) and addr[: len(a)] == a
                   for a, _ in self.choosers(sigma, sort))

    def first_fit(self, allowed) -> Requirement:
        """The first requirement of the priority order that `allowed`
        accepts; Idle once a finite order runs out."""
        for k in count():
            if k == len(self.ordering):
                req = next(self._ordering_rest, None)
                if req is None:
                    return ReqIdle()
                self.ordering.append(req)
            if allowed(self.ordering[k]):
                return self.ordering[k]

    def alloc_witness(self) -> int:
        x = self._witness_next
        self._witness_next += 1
        return x

    def enumerate_witness(self, x: int, stage: int) -> None:
        if x not in self.zprime:
            self.zprime[x] = stage
            self.emit("zenum", stage, x)

    # -- the stage loop -----------------------------------------------------

    def run(self) -> "RunResult":
        for s in range(1, self.horizon + 1):
            self.mention(s)
            self.emit("stage", s)
            self.emit("window", s, self.schedule.width(s), self.schedule.f_width(s))
            addr: Addr = ()
            self._current_path = []
            for depth in range(s + 1):
                node = self.node_at(addr)
                if node.req is None:
                    node.req = self.strat.assign_type(self, node, s)
                    node.typed_at = s
                    self.emit("typed", s, format_addr(addr), req_label(node.req))
                node.visits.append(s)
                self.emit("visit", s, format_addr(addr), req_label(node.req))
                token = self.strat.act(self, node, s)
                node.outcomes.append((s, token))
                self.emit("outcome", s, format_addr(addr), token)
                self._current_path.append(node)
                addr = addr + (token,)
            self._current_path = []
            self.strat.act_G(self, s)
            for gen in self._generators:
                if gen is not None:
                    gen.ingest(s, self.store, self.chosen_birth, self._stage_touched)
            self.touched[s] = self._stage_touched
            self._stage_touched = set()
        return RunResult(self)


def run_stages(config) -> "RunResult":
    """Run the configured construction to its horizon and return the result."""
    return Engine(config).run()


# ---------------------------------------------------------------------------
# Results.

class RunResult:
    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.cfg = engine.cfg
        self.variant = engine.variant
        self.horizon = engine.horizon
        self.schedule = engine.schedule
        self.store = engine.store
        self.nodes = engine.nodes
        self.trace = engine.trace
        self.chosen = engine.chosen
        self.chosen_birth = engine.chosen_birth
        self.zprime = engine.zprime
        self.adversaries = engine.adversaries
        self.universe_strings = engine.universe_strings

    def touched_by_stage(self) -> dict[int, set[StringKey]]:
        return self.engine.touched

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

    def trace_lines(self) -> list[str]:
        return [format_event(ev) for ev in self.trace]

    def stage_paths(self) -> list[tuple[int, list[Addr]]]:
        """Visited node addresses per stage, in visit order."""
        paths: list[tuple[int, list[Addr]]] = []
        for ev in self.trace:
            if ev[0] == "stage":
                paths.append((ev[1], []))
            elif ev[0] == "visit":
                paths[-1][1].append(parse_addr(ev[2]))
        return paths


def format_event(ev: tuple) -> str:
    parts = []
    for p in ev:
        if isinstance(p, tuple):
            parts.append(format_string(p))
        elif p is None:
            parts.append("-")
        else:
            parts.append(str(p))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# True-path approximation.

@dataclass(frozen=True)
class TPEntry:
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
        entries.append(TPEntry(addr, req_label(node.req), chosen,
                               len(node.visits), counts))
        if chosen is None:
            break
        addr = addr + (chosen,)
    return entries


# ---------------------------------------------------------------------------
# Left-kill check.

def check_left_kill(stage_paths: list[tuple[int, list[Addr]]]) -> tuple[bool, str | None]:
    """True when no node is visited again after a node strictly to its left
    has been visited in between."""
    dead: set[Addr] = set()
    children: dict[Addr, set[str]] = {}
    for stage, path in stage_paths:
        # Each stage path extends one token at a time, so a dead subtree is
        # always entered through its root and the membership test suffices.
        for addr in path:
            if addr in dead:
                return False, f"stage {stage}: visited {format_addr(addr)} after a left neighbor"
            if addr:
                parent, token = addr[:-1], addr[-1]
                seen = children.setdefault(parent, set())
                for other in seen:
                    if other != token and outcome_key(other) > outcome_key(token):
                        dead.add(parent + (other,))
                seen.add(token)
    return True, None
