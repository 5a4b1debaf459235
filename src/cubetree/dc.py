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

from dataclasses import dataclass
from itertools import product

from . import match
from .config import at_least_1
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
    format_addr,
)
from .structure import CubeElem, NatString, Snapshot, UElem, VariantMismatch, format_string


class GammaUnresolved(RuntimeError):
    """No inheritance case matched; the dynamic tree typing is broken."""


class InconsistentPrefixes(RuntimeError):
    """Extracted path pieces are not linearly ordered by extension."""


# ---------------------------------------------------------------------------
# The monitored predicate and the functional test library.

@dataclass(frozen=True)
class PhiPredicate:
    """Decidable two-argument predicate with declared intent on a finite range.

    Rules per position: ("until", s0) fails beyond s0; ("periodic", p) holds
    cofinally; ("never",) / ("always",) as named.  Positions whose rule holds
    cofinally form the declared target set Z.
    """

    range_n: int
    rules: tuple[tuple[int, tuple], ...] = ()
    default: tuple = ("never",)

    def rule_for(self, n: int) -> tuple:
        for m, rule in self.rules:
            if m == n:
                return rule
        return self.default

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

    def declared_Z(self) -> frozenset[int]:
        return frozenset(
            n for n in range(self.range_n)
            if self.rule_for(n)[0] in ("periodic", "always")
        )

    def recorded_s0(self, n: int) -> int | None:
        rule = self.rule_for(n)
        if rule[0] == "never":
            return 0
        if rule[0] == "until":
            return rule[1]
        return None


def phi_from_dict(data: dict) -> PhiPredicate:
    def rule_of(d: dict, key: str) -> tuple:
        kind = d["kind"]
        if kind == "until":
            return ("until", int(d["s0"]))
        if kind == "periodic":
            return ("periodic", at_least_1(d["period"], f"{key}.period"))
        if kind in ("never", "always"):
            return (kind,)
        raise ValueError(f"unknown phi rule kind {kind!r}")

    rules = tuple(
        (int(n), rule_of(d, f"phi.rules.{n}"))
        for n, d in sorted(data.get("rules", {}).items(), key=lambda kv: int(kv[0]))
    )
    default = rule_of(data["default"], "phi.default") if "default" in data else ("never",)
    return PhiPredicate(int(data["range"]), rules, default)


@dataclass(frozen=True)
class Functional:
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


def functional_from_dict(data: dict) -> Functional:
    kind = data["kind"]
    if kind == "constant":
        return Functional("constant", value=int(data.get("value", 0)))
    if kind == "length_threshold":
        return Functional(
            "length_threshold",
            value=int(data.get("value", 0)),
            min_len=int(data["min_len"]),
        )
    if kind == "bit_probe":
        return Functional(
            "bit_probe",
            coord=int(data.get("coord", 0)),
            pos=int(data.get("pos", 0)),
            modulus=int(data.get("modulus", 2)),
        )
    if kind == "never":
        return Functional("never")
    raise ValueError(f"unknown functional kind {kind!r}")


# ---------------------------------------------------------------------------
# Priority ordering and dynamic typing.

def validate_config(config) -> None:
    if config.mothers < 1:
        raise ValueError("dc runs need at least one mother slot")
    if config.phi is None:
        raise ValueError("dc runs need a phi predicate")
    for spec in config.functionals:
        if not 0 <= spec.mother < config.mothers:
            raise ValueError(f"functional bound to unknown mother slot {spec.mother}")
        if spec.round <= spec.mother:
            raise ValueError("functional round must come after its mother's round")


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


def n_along(engine: Engine, addr, mother: Node) -> int:
    """Largest n of a daughter of the given mother strictly below addr (0 if
    none)."""
    best = 0
    want = (mother.req.r, mother.req.a)
    for nd in engine.path_nodes(addr):
        if isinstance(nd.req, ReqDaughter) and (nd.req.r, nd.req.a) == want:
            best = max(best, nd.req.n)
    return best


def frozen_us_on_path(engine: Engine, addr) -> list[Node]:
    out = []
    for nd in engine.path_nodes(addr):
        if (
            isinstance(nd.req, ReqU)
            and nd.state.get("frozen")
            and len(addr) > len(nd.addr)
            and addr[len(nd.addr)] == "1"
        ):
            out.append(nd)
    return out


def blocking_report(engine: Engine, addr) -> dict:
    """Blocking data visible from a candidate position: per-mother daughter
    coverage, and the daughter types frozen diagonalizers rule out."""
    mothers = [nd for nd in engine.path_nodes(addr) if isinstance(nd.req, ReqMother)]
    coverage = {nd.addr: n_along(engine, addr, nd) for nd in mothers}
    blocked: set[ReqDaughter] = set()
    min_clearance: dict[tuple, int] = {}
    for u in frozen_us_on_path(engine, addr):
        blocked.update(u.state["blocks"])
        for nd in mothers:
            if len(nd.addr) < len(u.addr):
                min_clearance[nd.addr] = max(min_clearance.get(nd.addr, 0),
                                             u.state["ell"])
    return {"coverage": coverage, "blocked": blocked, "u_clearance": min_clearance}


def assign_type(engine: Engine, node: Node, s: int) -> Requirement:
    on_path = {nd.req for nd in engine.path_nodes(node.addr)}
    report = blocking_report(engine, node.addr)
    u_cleared = all(report["coverage"][maddr] > ell
                    for maddr, ell in report["u_clearance"].items())

    def allowed(req: Requirement) -> bool:
        if req in on_path:
            return False
        if isinstance(req, ReqDaughter):
            return req not in report["blocked"]
        return u_cleared or not isinstance(req, ReqU)

    return engine.first_fit(allowed)


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
    covered = engine.g_covered
    for sigma in engine.universe_strings(s):
        if sigma in covered:
            continue
        covered.add(sigma)
        for a in (0, 1):
            engine.declare_base(sigma, a, s)


def act_N_mother(engine: Engine, node: Node, s: int) -> str:
    st = node.state
    if "v" not in st:
        st["v"] = engine.fresh(s)
        st["sigma"] = (st["v"],)
    engine.grow(st["sigma"], node.req.a, s, chooser=node.addr)
    return "o"


def resolve_gamma(engine: Engine, node: Node) -> NatString:
    """Largest provider below the daughter: its own mother, the previous
    daughter of its family, or a frozen diagonalizer holding a stolen string
    for its mother."""
    req: ReqDaughter = node.req
    path = engine.path_nodes(node.addr)
    theta = next(
        (nd for nd in path if nd.req == ReqMother(req.r, req.a)), None
    )
    if theta is None:
        raise GammaUnresolved(f"daughter {format_addr(node.addr)} has no mother")
    v_theta = theta.state["v"]
    for nd in reversed(path):
        if nd is theta:
            return theta.state["sigma"]
        if nd.req == ReqDaughter(req.r, req.n - 1, req.a):
            alpha = node.addr[len(nd.addr)]
            sig = nd.state.get("sig", {})
            if alpha not in sig:
                raise GammaUnresolved(
                    f"previous daughter {format_addr(nd.addr)} lacks outcome {alpha}"
                )
            return sig[alpha]
        if (
            isinstance(nd.req, ReqU)
            and nd.state.get("frozen")
            and node.addr[len(nd.addr)] == "1"
        ):
            i = nd.state.get("i")
            if (req.a == 0 and i == v_theta) or (req.a == 1 and i is not None and i > v_theta):
                stolen = nd.state["stolen"].get(theta.addr)
                if stolen is None:
                    raise GammaUnresolved(
                        f"frozen {format_addr(nd.addr)} holds nothing for this mother"
                    )
                return stolen
    raise GammaUnresolved(f"no provider for {format_addr(node.addr)}")


def act_N_daughter(engine: Engine, node: Node, s: int) -> str:
    st = node.state
    req: ReqDaughter = node.req
    if "k" not in st:
        st["k"] = 0
        st["t"] = 0
        st["sig"] = {}
    gamma = resolve_gamma(engine, node)
    engine.emit("gamma", s, format_addr(node.addr), gamma, req.n)
    if len(gamma) != req.n:
        raise GammaUnresolved(
            f"inherited string {format_string(gamma)} has length {len(gamma)}, wanted {req.n}"
        )
    phi: PhiPredicate = engine.cfg.phi
    fired = any(phi.holds(req.n, q) for q in range(st["t"], s))
    token = "i" if fired else str(st["k"])
    if token not in st["sig"]:
        st["sig"][token] = gamma + (s,)
        engine.emit("sigdef", s, format_addr(node.addr), token, st["sig"][token])
    engine.grow(st["sig"][token], req.a, s, chooser=node.addr)
    if fired:
        st["k"] += 1
        st["t"] = s
    return token


def act_U(engine: Engine, node: Node, s: int) -> str:
    st = node.state
    req: ReqU = node.req
    path = engine.path_nodes(node.addr)
    theta = next((nd for nd in path if nd.req == ReqMother(req.slot, 0)), None)
    if theta is None:
        return "0"  # no matching mother below: never acts
    if "i" not in st:
        st["i"] = theta.state["v"]
        st["x"] = engine.alloc_witness()
        others = sorted(
            (nd for nd in path
             if isinstance(nd.req, ReqMother) and nd.req.a == 1
             and nd.state["v"] < st["i"]),
            key=lambda nd: nd.state["v"],
        )
        st["C"] = [theta.addr] + [nd.addr for nd in others]
    if st.get("frozen"):
        for psi_addr in st["C"]:
            sort = engine.nodes[psi_addr].req.a
            engine.grow(st["stolen"][psi_addr], sort, s, chooser=node.addr)
        return "1"
    functional: Functional = engine.cfg.functionals[req.e].functional
    below = node.addr + ("0",)
    candidates: list[list[tuple[int, tuple, str, NatString]]] = []
    for psi_addr in st["C"]:
        psi = engine.nodes[psi_addr]
        want = (psi.req.r, psi.req.a)
        cands = []
        for nd in engine.nodes.values():
            if not isinstance(nd.req, ReqDaughter):
                continue
            if (nd.req.r, nd.req.a) != want:
                continue
            if nd.addr[: len(below)] != below:
                continue
            for token, string in sorted(nd.state.get("sig", {}).items()):
                cands.append((len(string), nd.addr, token, string))
        if not cands:
            return "0"
        cands.sort()
        candidates.append(cands)
    for combo in product(*candidates):
        oracle = tuple(c[3] for c in combo)
        halted, value, _use = functional.evaluate(oracle, st["x"], s)
        if halted and value == 0:
            st["frozen"] = True
            st["frozen_at"] = s
            st["stolen"] = {
                psi_addr: combo[idx][3] for idx, psi_addr in enumerate(st["C"])
            }
            st["ell"] = max(len(p) for p in oracle)
            blocks: set[ReqDaughter] = set()
            for psi_addr in st["C"]:
                psi = engine.nodes[psi_addr]
                low = n_along(engine, node.addr, psi)
                high = len(st["stolen"][psi_addr])
                for n in range(low + 1, high):
                    blocks.add(ReqDaughter(psi.req.r, n, psi.req.a))
            st["blocks"] = blocks
            engine.enumerate_witness(st["x"], s)
            engine.emit("ufreeze", s, format_addr(node.addr), st["x"], st["ell"])
            for psi_addr in st["C"]:
                engine.emit(
                    "usteal", s, format_addr(node.addr), format_addr(psi_addr),
                    st["stolen"][psi_addr], engine.nodes[psi_addr].req.a,
                )
            return "1"
    return "0"


# ---------------------------------------------------------------------------
# Copy matching: the variant's starting set and responsibility set.

def _c_pairs(engine: Engine, node: Node) -> list[tuple[NatString, int]]:
    pairs: set[tuple[NatString, int]] = set()
    for nd in engine.path_nodes(node.addr):
        if isinstance(nd.req, ReqMother) and "sigma" in nd.state:
            pairs.add((nd.state["sigma"], nd.req.a))
        elif isinstance(nd.req, ReqDaughter):
            alpha = node.addr[len(nd.addr)]
            sig = nd.state.get("sig", {})
            if alpha in sig:
                pairs.add((sig[alpha], nd.req.a))
        elif isinstance(nd.req, ReqU) and nd.state.get("frozen") \
                and node.addr[len(nd.addr)] == "1":
            for psi_addr, string in nd.state["stolen"].items():
                pairs.add((string, engine.nodes[psi_addr].req.a))
    return sorted(pairs)


def compute_B_pairs(engine: Engine, node: Node, t: int, fin_token: str):
    below_fin = node.addr + (fin_token,)
    cpairs = set(node.state["C"])
    out = []
    for sigma in engine.universe_strings(t):
        for a in (0, 1):
            if (sigma, a) in cpairs:
                continue
            if engine.chosen_by_extension_of(sigma, a, below_fin):
                continue
            out.append((sigma, a))
    return out


def act_M(engine: Engine, node: Node, s: int) -> str:
    return match.act_M(engine, node, s, _c_pairs, compute_B_pairs)


# ---------------------------------------------------------------------------
# Post-run extraction.

@dataclass(frozen=True)
class PathFamily:
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
        v = node.state.get("v")
        if v is None:
            continue
        pieces: list[NatString] = [node.state["sigma"]]
        for other in tp_entries:
            nd = result.nodes[other.addr]
            if (
                isinstance(nd.req, ReqDaughter)
                and (nd.req.r, nd.req.a) == (node.req.r, node.req.a)
                and len(other.addr) > len(entry.addr)
                and other.addr[: len(entry.addr)] == entry.addr
                and other.outcome is not None
                and other.outcome in nd.state.get("sig", {})
            ):
                pieces.append(nd.state["sig"][other.outcome])
            if (
                isinstance(nd.req, ReqU)
                and nd.state.get("frozen")
                and other.outcome == "1"
                and node.addr in nd.state["stolen"]
            ):
                pieces.append(nd.state["stolen"][node.addr])
        pieces.sort(key=len)
        for shorter, longer in zip(pieces, pieces[1:]):
            if longer[: len(shorter)] != shorter:
                raise InconsistentPrefixes(
                    f"{format_string(shorter)} vs {format_string(longer)}"
                )
        prefix = pieces[-1]
        if node.req.a == 0:
            f[v] = prefix
        else:
            g[v] = prefix
    return PathFamily(f, g)


@dataclass(frozen=True)
class ModulusVerdict:
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
    fired = any(phi.holds(n, s) for s in range(bound + 1, horizon + 1))
    return ModulusVerdict(True, not fired)


@dataclass(frozen=True)
class FinalStructure:
    """The finished structure with constants naming the anchor elements."""

    snapshot: Snapshot

    @property
    def c(self) -> UElem:
        return UElem(0)

    @property
    def d(self) -> CubeElem:
        return CubeElem(frozenset(), (), 1)

    def v(self, fset) -> CubeElem:
        return CubeElem(frozenset(fset), (), 1)


def assemble_final_structure(snapshot: Snapshot) -> FinalStructure:
    if snapshot.variant != "dc":
        raise VariantMismatch("final structure applies to the two-sorted variant")
    return FinalStructure(snapshot)
