"""Two-sorted construction: mothers, daughters, diagonalizers, copy matching.

Mothers start a path with a fresh first value; daughters extend it one
position per requirement, taking the infinite outcome exactly when the
monitored predicate fired since their last one.  A diagonalizer searches for
daughter strings below its 0-outcome on which its functional converges to 0
at its private witness; on success it freezes, enumerates the witness into
the engine's halting-set simulation, steals those strings, and forces its
1-outcome forever.  The priority tree is typed dynamically so that stolen
positions are never re-assigned and every mother keeps accumulating
daughters.  Copy matching runs the shared strategy of `match` over
(sigma, sort) pairs.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from . import match
from .engine import (
    Engine,
    Node,
    ReqDaughter,
    ReqM,
    ReqMother,
    ReqU,
    Requirement,
    RunResult,
    TPEntry,
)
from .structure import NatString, Record, format_string


class GammaUnresolved(RuntimeError):
    """No inheritance case matched; the dynamic tree typing is broken."""


class InconsistentPrefixes(RuntimeError):
    """Extracted path pieces are not linearly ordered by extension."""


# ---------------------------------------------------------------------------
# The monitored predicate and the functional test library.

class PhiPredicate(Record):
    """Decidable two-argument predicate with declared intent on a finite range.

    Rules per position: ("until", s0) fails beyond s0; ("periodic", p) holds
    at the multiples of p; ("never",) / ("always",) as named.  Positions whose
    rule holds cofinally form the declared target set Z.
    """

    _fields = ("range_n", "rules", "default")
    __slots__ = (*_fields, "_rule_at")

    def __init__(self, range_n: int, rules: tuple[tuple[int, tuple], ...] = (),
                 default: tuple = ("never",)) -> None:
        super().__init__(range_n, rules, default)
        # The first rule given for a position is its rule.
        object.__setattr__(self, "_rule_at", dict(reversed(rules)))

    def rule_for(self, n: int) -> tuple:
        return self._rule_at.get(n, self.default)

    def in_range(self, n: int) -> bool:
        return 0 <= n < self.range_n

    def holds(self, n: int, s: int) -> bool:
        rule = self.rule_for(n)
        kind = rule[0]
        if kind == "never":
            return False
        if kind == "always":
            return True
        if kind == "until":
            return s <= rule[1]
        if kind == "periodic":
            return s % rule[1] == 0
        raise ValueError(f"unknown phi rule {kind!r}")

    def fires_between(self, n: int, t: int, s: int) -> bool:
        """Whether holds(n, q) for some stage q with t <= q < s."""
        rule = self.rule_for(n)
        kind = rule[0]
        if kind == "never":
            return False
        if kind == "always":
            return t < s
        if kind == "until":
            return t < s and t <= rule[1]
        if kind == "periodic":
            # The first multiple of the period at or after t.
            return t < s and -(-t // rule[1]) * rule[1] < s
        raise ValueError(f"unknown phi rule {kind!r}")

    def declared_Z(self) -> frozenset[int]:
        return frozenset(
            n for n in range(self.range_n)
            if self.rule_for(n)[0] in ("periodic", "always")
        )


class Functional(NamedTuple):
    """Step-bounded oracle program over a finite join of strings.

    Halting computations are use-monotone: once halted with the declared use,
    extending any oracle string leaves the value unchanged.
    """

    kind: str  # "constant" | "length_threshold" | "bit_probe" | "never"
    value: int = 0
    min_len: int = 0
    coord: int = 0
    pos: int = 0
    modulus: int = 2

    def evaluate(self, oracle: tuple[NatString, ...], x: int, steps: int):
        """Returns (halted, value, use-per-coordinate)."""
        if self.kind == "never":
            return False, None, None
        if self.kind == "constant":
            if steps >= 1:
                return True, self.value, tuple(0 for _ in oracle)
            return False, None, None
        if self.kind == "length_threshold":
            cost = self.min_len * max(1, len(oracle))
            if steps >= cost and all(len(p) >= self.min_len for p in oracle):
                return True, self.value, tuple(self.min_len for _ in oracle)
            return False, None, None
        if self.kind == "bit_probe":
            if (
                steps >= self.pos + 1
                and self.coord < len(oracle)
                and len(oracle[self.coord]) > self.pos
            ):
                use = tuple(self.pos + 1 if c == self.coord else 0
                            for c in range(len(oracle)))
                return True, oracle[self.coord][self.pos] % self.modulus, use
            return False, None, None
        raise ValueError(f"unknown functional kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Strategy state: one record per requirement kind, built on the first visit.

class MotherState:
    """A mother's fresh first value v; her string is (v,), built once, so
    that each of her grows hands the label store the same object."""

    def __init__(self, v: int) -> None:
        self.v = v
        self.sigma: NatString = (v,)


class DaughterState:
    """gamma is the string the daughter inherits, which her address fixes;
    k counts the predicate's firings so far (the finite outcome is str(k)),
    t is the stage of the last one, and sig holds the string defined for
    each outcome token."""

    def __init__(self, gamma: NatString) -> None:
        self.gamma = gamma
        self.k = 0
        self.t = 0
        self.sig: dict[str, NatString] = {}


class DiagonalizerState:
    """i is the sort-0 mother value diagonalized against, x the private
    witness, and C the mothers whose strings it steals: that mother, then the
    sort-1 mothers above with smaller values.  Freezing sets `stolen` (mother
    -> string), `ell` (the longest stolen length) and `blocks` (the daughter
    types the steal rules out)."""

    def __init__(self, i: int, x: int, C: list[Node]) -> None:
        self.i = i
        self.x = x
        self.C = C
        self.stolen: dict[Node, NatString] | None = None
        self.ell = 0
        self.blocks: set[ReqDaughter] = set()


# ---------------------------------------------------------------------------
# Priority ordering and dynamic typing.

def ordering_iter(config):
    """Priority order of requirement types, fair dovetailing by rounds.

    Round h introduces the two slot-h mothers (sort 1 first so its values
    come out below the matching sort-0 value), the n = h - r daughters of
    every earlier slot r, the diagonalizers configured for round h, and the
    h-th copy-matching requirement.  Daughter families are unbounded, so the
    ordering never runs dry.
    """
    func_by_round: dict[int, list[tuple[int, object]]] = {}
    for idx, fs in enumerate(config.functionals):
        func_by_round.setdefault(fs.round, []).append((idx, fs))
    n_adv = len(config.adversaries)
    h = 0
    while True:
        if h < config.mothers:
            yield ReqMother(h, 1)
            yield ReqMother(h, 0)
        for r in range(min(h, config.mothers)):
            n = h - r
            yield ReqDaughter(r, n, 1)
            yield ReqDaughter(r, n, 0)
        for idx, fs in sorted(func_by_round.get(h, [])):
            yield ReqU(fs.mother, idx)
        if h < n_adv:
            yield ReqM(h)
        h += 1


def blocking_report(engine: Engine) -> dict:
    """Blocking data visible from the end of the current path: per-mother
    daughter coverage, and the daughter types frozen diagonalizers rule out."""
    path = engine.path
    mothers = path.mothers
    coverage = {nd.addr: path.coverage.get((nd.req.r, nd.req.a), 0) for nd in mothers}
    blocked: set[ReqDaughter] = set()
    min_clearance: dict[tuple, int] = {}
    for u in path.frozen:
        blocked.update(u.state.blocks)
        for nd in mothers:
            if len(nd.addr) < len(u.addr):
                min_clearance[nd.addr] = max(min_clearance.get(nd.addr, 0),
                                             u.state.ell)
    return {"coverage": coverage, "blocked": blocked, "u_clearance": min_clearance}


def assign_type(engine: Engine, node: Node, s: int) -> Requirement:
    report = blocking_report(engine)
    u_cleared = all(report["coverage"][maddr] > ell
                    for maddr, ell in report["u_clearance"].items())

    def allowed(req: Requirement) -> bool:
        if isinstance(req, ReqDaughter):
            return req not in report["blocked"]
        return u_cleared or not isinstance(req, ReqU)

    req = engine.first_fit(allowed)
    if isinstance(req, ReqDaughter):
        engine.daughters.setdefault((req.r, req.a), []).append(node)
    return req


def act(engine: Engine, node: Node, s: int) -> str:
    req = node.req
    if isinstance(req, ReqMother):
        return act_N_mother(engine, node, s)
    if isinstance(req, ReqDaughter):
        return act_N_daughter(engine, node, s)
    if isinstance(req, ReqU):
        return act_U(engine, node, s)
    if isinstance(req, ReqM):
        return act_M(engine, node, s)
    return "o"


def act_G(engine: Engine, s: int) -> None:
    """Grow the root pairs, then cover every string entering the universe
    slice with the base label on both sorts."""
    engine.grow((), 0, s, chooser=None)
    engine.grow((), 1, s, chooser=None)
    for sigma in engine.entering(s):
        for a in (0, 1):
            engine.declare_base(sigma, a, s)


def act_N_mother(engine: Engine, node: Node, s: int) -> str:
    st = node.state
    if st is None:
        st = node.state = MotherState(engine.fresh(s))
    engine.grow(st.sigma, node.req.a, s, chooser=node)
    return "o"


def resolve_gamma(engine: Engine, node: Node) -> NatString:
    """Deepest provider above the daughter on the current path: its own
    mother, the previous daughter of its family, or a frozen diagonalizer
    holding a stolen string for its mother.  Each is her ancestor, and a
    diagonalizer counts only above its 1-outcome, taken once it has frozen,
    so her address fixes the string."""
    req: ReqDaughter = node.req
    path = engine.path
    theta = path.by_req.get(ReqMother(req.r, req.a))
    if theta is None:
        raise GammaUnresolved(f"daughter {node} has no mother")
    v_theta = theta.state.v
    provider = theta
    previous = path.by_req.get(ReqDaughter(req.r, req.n - 1, req.a))
    if previous is not None and len(previous.addr) > len(provider.addr):
        provider = previous
    for u in path.frozen:
        i = u.state.i
        if (len(u.addr) > len(provider.addr)
                and (i == v_theta if req.a == 0 else i > v_theta)):
            provider = u
    if provider is theta:
        return theta.state.sigma
    if provider is previous:
        # The outcome the previous daughter took here; it defined its string.
        return previous.state.sig[node.addr[len(previous.addr)]]
    stolen = provider.state.stolen.get(theta)
    if stolen is None:
        raise GammaUnresolved(f"frozen {provider} holds nothing for this mother")
    return stolen


def act_N_daughter(engine: Engine, node: Node, s: int) -> str:
    st = node.state
    req: ReqDaughter = node.req
    if st is None:
        st = node.state = DaughterState(resolve_gamma(engine, node))
    gamma = st.gamma
    engine.emit("gamma", s, node, gamma, req.n)
    if len(gamma) != req.n:
        raise GammaUnresolved(
            f"inherited string {format_string(gamma)} has length {len(gamma)}, wanted {req.n}"
        )
    phi: PhiPredicate = engine.cfg.phi
    fired = phi.fires_between(req.n, st.t, s)
    token = "i" if fired else str(st.k)
    if token not in st.sig:
        st.sig[token] = gamma + (s,)
        engine.emit("sigdef", s, node, token, st.sig[token])
    engine.grow(st.sig[token], req.a, s, chooser=node)
    if fired:
        st.k += 1
        st.t = s
    return token


def act_U(engine: Engine, node: Node, s: int) -> str:
    st = node.state
    req: ReqU = node.req
    path = engine.path
    # The mother precedes every diagonalizer of her slot in the priority
    # order, so she is above.
    theta = path.by_req[ReqMother(req.slot, 0)]
    if st is None:
        i = theta.state.v
        others = sorted(
            (nd for nd in path.mothers if nd.req.a == 1 and nd.state.v < i),
            key=lambda nd: nd.state.v,
        )
        st = node.state = DiagonalizerState(i, engine.alloc_witness(), [theta] + others)
    if st.stolen is not None:
        for psi in st.C:
            engine.grow(st.stolen[psi], psi.req.a, s, chooser=node)
        return "1"
    functional: Functional = engine.cfg.functionals[req.e].functional
    below = node.addr + ("0",)
    candidates: list[list[tuple[int, tuple, str, NatString]]] = []
    for psi in st.C:
        cands = []
        for nd in engine.daughters.get((psi.req.r, psi.req.a), ()):
            if nd.addr[: len(below)] != below:
                continue
            for token, string in sorted(nd.state.sig.items()):
                cands.append((len(string), nd.addr, token, string))
        if not cands:
            return "0"
        cands.sort()
        candidates.append(cands)
    for combo in product(*candidates):
        oracle = tuple(c[3] for c in combo)
        halted, value, _use = functional.evaluate(oracle, st.x, s)
        if halted and value == 0:
            st.stolen = dict(zip(st.C, oracle))
            st.ell = max(len(p) for p in oracle)
            engine.enumerate_witness(st.x, s)
            engine.emit("ufreeze", s, node, st.x, st.ell)
            for psi, string in st.stolen.items():
                r, a = psi.req.r, psi.req.a
                low = path.coverage.get((r, a), 0)
                st.blocks.update(ReqDaughter(r, n, a) for n in range(low + 1, len(string)))
                engine.emit("usteal", s, node, psi, string, a)
            return "1"
    return "0"


# ---------------------------------------------------------------------------
# Copy matching: the variant's starting set and responsibility set.

def _c_pairs(engine: Engine, node: Node) -> list[tuple[NatString, int]]:
    pairs: set[tuple[NatString, int]] = set()
    for nd in engine.path_nodes(node.addr):
        if isinstance(nd.req, ReqMother):
            pairs.add((nd.state.sigma, nd.req.a))
        elif isinstance(nd.req, ReqDaughter):
            pairs.add((nd.state.sig[node.addr[len(nd.addr)]], nd.req.a))
        elif isinstance(nd.req, ReqU) and node.addr[len(nd.addr)] == "1":
            # A diagonalizer takes its 1-outcome only once it has frozen.
            for psi, string in nd.state.stolen.items():
                pairs.add((string, psi.req.a))
    return sorted(pairs)


def compute_B_pairs(engine: Engine, node: Node, t: int):
    return match.responsibility_set(engine, node, t)


def act_M(engine: Engine, node: Node, s: int) -> str:
    return match.act_M(engine, node, s, _c_pairs, compute_B_pairs)


# ---------------------------------------------------------------------------
# Post-run extraction.

class PathFamily(NamedTuple):
    f: dict[int, NatString]  # sort-0 values: v -> longest extracted prefix
    g: dict[int, NatString]  # sort-1 values

    def value(self, sort: int, i: int, n: int) -> int | None:
        prefix = (self.f if sort == 0 else self.g).get(i)
        if prefix is None or n >= len(prefix):
            return None
        return prefix[n]


def extract_paths(result: RunResult, tp_entries: list[TPEntry]) -> PathFamily:
    """Per true-path mother, the union of daughter strings along the true
    path (plus frozen steals), checked to be a chain under extension."""
    f: dict[int, NatString] = {}
    g: dict[int, NatString] = {}
    for entry in tp_entries:
        node = result.nodes[entry.addr]
        if not isinstance(node.req, ReqMother):
            continue
        pieces: list[NatString] = [node.state.sigma]
        for other in tp_entries:
            nd = result.nodes[other.addr]
            if (
                isinstance(nd.req, ReqDaughter)
                and (nd.req.r, nd.req.a) == (node.req.r, node.req.a)
                and len(other.addr) > len(entry.addr)
                and other.addr[: len(entry.addr)] == entry.addr
                and other.outcome is not None
            ):
                pieces.append(nd.state.sig[other.outcome])
            if (
                isinstance(nd.req, ReqU)
                and other.outcome == "1"
                and node in nd.state.stolen
            ):
                pieces.append(nd.state.stolen[node])
        pieces.sort(key=len)
        for shorter, longer in zip(pieces, pieces[1:]):
            if longer[: len(shorter)] != shorter:
                raise InconsistentPrefixes(
                    f"{format_string(shorter)} vs {format_string(longer)}"
                )
        (f if node.req.a == 0 else g)[node.state.v] = pieces[-1]
    return PathFamily(f, g)


class ModulusVerdict(NamedTuple):
    applicable: bool
    holds: bool


def modulus_check(
    paths: PathFamily,
    i: int,
    j: int,
    n: int,
    phi: PhiPredicate,
    horizon: int,
) -> ModulusVerdict:
    """After the summed path value at n, the predicate must never fire again,
    provided the declared target set excludes n."""
    if not phi.in_range(n):
        raise ValueError(f"position {n} outside the declared predicate range")
    if not (i < j < n):
        raise ValueError("need i < j < n")
    fi = paths.value(0, i, n)
    gj = paths.value(1, j, n)
    if fi is None or gj is None:
        raise ValueError(f"paths not defined at {n}")
    if n in phi.declared_Z():
        return ModulusVerdict(False, True)
    bound = fi + gj
    fired = phi.fires_between(n, bound + 1, horizon + 1)
    return ModulusVerdict(True, not fired)
