"""Single-sorted construction: tree-image and copy-matching strategies.

Each node of the input tree gets a strategy that picks a fresh image string
and keeps it growing; each adversary gets a strategy that tries to match the
structure against the adversary's enumeration, taking an infinite outcome
exactly when every string in its current responsibility set is matched.
From a finished run we read off the image tree Q with its order isomorphism,
extract an isomorphism onto a faithful adversary, and build the dimension-2
gadget pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

from . import match
from .adversary import HOLE
from .engine import (
    Engine,
    Node,
    ReqM,
    ReqN,
    Requirement,
    RunResult,
    TPEntry,
)
from .structure import (
    CubeElem,
    NatString,
    Snapshot,
    StringKey,
    VariantMismatch,
    format_elem,
    format_string,
)


class ExtractionStalled(RuntimeError):
    pass


def validate_config(config) -> None:
    if config.tree is None or not config.tree.nodes:
        raise ValueError("cc runs need a nonempty input tree")


def ordering_iter(config):
    """Priority order: the root requirement first, then tree nodes in
    shortlex order dovetailed with the per-adversary requirements."""
    ns = [ReqN(pi) for pi in config.tree.sorted_nodes()]
    ms = [ReqM(i) for i in range(len(config.adversaries))]
    yield ns[0]
    for pair in zip_longest(ms, ns[1:]):
        yield from filter(None, pair)


def assign_type(engine: Engine, node: Node, s: int) -> Requirement:
    on_path = {n.req for n in engine.path_nodes(node.addr)}
    return engine.first_fit(lambda req: req not in on_path)


def act(engine: Engine, node: Node, s: int) -> str:
    req = node.req
    if isinstance(req, ReqN):
        return act_N(engine, node, s)
    if isinstance(req, ReqM):
        return act_M(engine, node, s)
    return "o"


def act_G(engine: Engine, s: int) -> None:
    """End of stage: base coverage of every unchosen string in the window."""
    covered = engine.g_covered
    for sigma in engine.schedule.base_strings(s):
        if sigma in covered:
            continue
        covered.add(sigma)
        if not engine.choosers(sigma, None):
            engine.declare_base(sigma, None, s)


def act_N(engine: Engine, node: Node, s: int) -> str:
    st = node.state
    req: ReqN = node.req
    if "sigma" not in st:
        if req.pi == ():
            st["sigma"] = ()
        else:
            parent_req = ReqN(req.pi[:-1])
            parent = next(
                nd for nd in engine.path_nodes(node.addr) if nd.req == parent_req
            )
            if "sigma" not in parent.state:
                raise RuntimeError("parent tree strategy has not chosen a string")
            m = engine.fresh(s)
            st["sigma"] = parent.state["sigma"] + (m,)
    engine.grow(st["sigma"], None, s, chooser=node.addr)
    return "o"


def compute_B(engine: Engine, node: Node, t: int, fin_token: str) -> list[StringKey]:
    """Responsibility set: the stage-t universe minus strings chosen by an
    ancestor or by a strategy extending the current finite outcome."""
    out = []
    below_fin = node.addr + (fin_token,)
    for sigma in engine.universe_strings(t):
        if engine.chosen_by_ancestor_of(sigma, None, node.addr):
            continue
        if engine.chosen_by_extension_of(sigma, None, below_fin):
            continue
        out.append((sigma, None))
    return out


def _tree_images(engine: Engine, node: Node) -> list[StringKey]:
    """Starting set: the strings chosen by tree strategies above the node."""
    return sorted(
        ((nd.state["sigma"], None) for nd in engine.path_nodes(node.addr)
         if isinstance(nd.req, ReqN)),
        key=lambda key: (len(key[0]), key[0]),
    )


def act_M(engine: Engine, node: Node, s: int) -> str:
    return match.act_M(engine, node, s, _tree_images, compute_B)


# ---------------------------------------------------------------------------
# Post-run extraction: the image tree Q, its order isomorphism, and the
# computable isomorphism onto a matched adversary.

@dataclass(frozen=True)
class TreeQ:
    phi: dict[NatString, NatString]  # input-tree node -> chosen image string

    def image(self) -> set[NatString]:
        return set(self.phi.values())

    def check_tree(self) -> bool:
        """phi is injective and prefix-preserving, so the image is a tree."""
        items = sorted(self.phi.items(), key=lambda kv: (len(kv[0]), kv[0]))
        values = [v for _, v in items]
        if len(set(values)) != len(values):
            return False
        for pi, sigma in items:
            if pi == ():
                if sigma != ():
                    return False
            else:
                parent = self.phi.get(pi[:-1])
                if parent is None or sigma[: len(parent)] != parent or len(sigma) != len(parent) + 1:
                    return False
        return True


def compute_Q(result: RunResult, tp_entries: list[TPEntry]) -> TreeQ:
    phi: dict[NatString, NatString] = {}
    for entry in tp_entries:
        node = result.nodes[entry.addr]
        if isinstance(node.req, ReqN) and "sigma" in node.state:
            phi[node.req.pi] = node.state["sigma"]
    return TreeQ(phi)


@dataclass
class ExtractedMap:
    source_to_copy: dict[CubeElem, int]
    f_tau: dict[NatString, int]
    stalls: list[str] = field(default_factory=list)

    def __call__(self, e: CubeElem) -> int | None:
        return self.source_to_copy.get(e)


def extract_isomorphism(
    result: RunResult,
    tp_entries: list[TPEntry],
    adv_index: int,
    mode: str = "ground",
) -> ExtractedMap:
    """Build the copy-side isomorphism from a matched adversary run.

    Starts from the strategy's partial map, completes late-born strings by
    the same witness search at full budget, extends over the strategy's
    excluded strings (ground truth supplies the limit witness and the finite
    correction set; "optimistic" mode walks copy edges instead), and then
    extends over nonempty vertices by edge search.
    """
    entry = next(
        (e for e in tp_entries
         if e.label == f"M{adv_index}" and e.outcome is not None), None
    )
    if entry is None:
        raise ExtractionStalled(f"no stable M{adv_index} node on the true path approximation")
    node = result.nodes[entry.addr]
    adv = result.adversaries[adv_index]
    stream = adv.stream
    horizon = result.horizon
    stalls: list[str] = []
    f: dict[NatString, int] = {sigma: x for (sigma, _), x in node.state["f"].items()}
    C = [sigma for sigma, _ in node.state["C"]]

    # Closing sweep: strings enumerated by the copy that never entered the
    # responsibility set (late births) get the same search at full budget.
    for sigma in result.universe_strings(horizon):
        if sigma in f or sigma in C:
            continue
        if not stream.witnesses_W(sigma, None, horizon):
            continue  # the copy has not revealed this string yet
        n = result.store.n_sigma(sigma, None, horizon + 1)
        x = stream.oldest_satisfying([("W", sigma, None, HOLE), ("S", n, HOLE)], horizon)
        if x is not None:
            f[sigma] = x
        else:
            stalls.append(f"no witness for {format_string(sigma)}")

    # Excluded strings, deepest first; the limit witness is the last recorded
    # stable value, the correction set J collects the broken links.
    for sigma in sorted(C, key=len, reverse=True):
        x = node.state["x_at_t"].get((sigma, None))
        if x is None:
            stalls.append(f"no limit witness for chosen {format_string(sigma)}")
            continue
        J = sorted(
            child[-1]
            for child in f
            if len(child) == len(sigma) + 1 and child[: len(sigma)] == sigma
            and not stream.holds_within(("P", x, f[child]), horizon)
        )
        if mode == "ground" and adv.to_ground:
            ge = adv.ground_of(x)
            if not isinstance(ge, CubeElem) or ge.sigma != sigma:
                stalls.append(f"ground witness mismatch at {format_string(sigma)}")
                continue
            target = CubeElem(ge.fset ^ frozenset(J), sigma, ge.sort)
            y = adv.copy_of(target)
            if y is None:
                stalls.append(f"corrected witness not enumerated at {format_string(sigma)}")
                continue
            f[sigma] = y
        else:
            y = x
            ok = True
            for j in J:
                nxt = _edge_step(stream, j, y, horizon)
                if nxt is None:
                    stalls.append(f"edge walk stalled at {format_string(sigma)} color {j}")
                    ok = False
                    break
                y = nxt
            if ok:
                f[sigma] = y

    mapping: dict[CubeElem, int] = {}
    for sigma, x in f.items():
        mapping[CubeElem(frozenset(), sigma, None)] = x
    fsets = result.schedule.fsets(horizon)
    for sigma in sorted(f, key=lambda t: (len(t), t)):
        for fset in sorted(fsets, key=lambda q: (len(q), tuple(sorted(q)))):
            if not fset:
                continue
            e = CubeElem(fset, sigma, None)
            if e in mapping:
                continue
            placed = False
            for j in sorted(fset):
                g = CubeElem(fset - {j}, sigma, None)
                if g not in mapping:
                    continue
                y = _edge_step(stream, j, mapping[g], horizon)
                if y is not None:
                    mapping[e] = y
                    placed = True
                    break
            if not placed:
                stalls.append(f"no edge extension for {format_elem(e)}")
    return ExtractedMap(mapping, f, stalls)


def _edge_step(stream, color: int, x: int, budget: int) -> int | None:
    hits = stream.edge_targets(color, x, budget)
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# Dimension-two gadget.

@dataclass(frozen=True)
class GadgetStructure:
    """The base snapshot plus the even/odd pair and the naming constant."""

    base: Snapshot
    constant: str  # "aeven" | "aodd"

    def holds_P_new(self, which: str, e: CubeElem) -> bool:
        if e.sigma != () or e.sort is not None:
            return False
        if which == "aeven":
            return len(e.fset) % 2 == 0
        if which == "aodd":
            return len(e.fset) % 2 == 1
        raise ValueError(which)

    def reduct_lines(self) -> list[str]:
        lines = [f"decl {ln}" for ln in self.base.dump_lines()]
        for which in ("aeven", "aodd"):
            for fset in self.base.fsets:
                e = CubeElem(fset, (), None)
                if self.holds_P_new(which, e):
                    lines.append(f"pnew {which} {format_elem(e)}")
        return lines

    def dump_lines(self) -> list[str]:
        return self.reduct_lines() + [f"constant c={self.constant}"]


def extend_to_dimension_two(snapshot: Snapshot) -> tuple[GadgetStructure, GadgetStructure]:
    if snapshot.variant != "cc":
        raise VariantMismatch("dimension-two gadget applies to the single-sorted variant")
    return (
        GadgetStructure(snapshot, "aeven"),
        GadgetStructure(snapshot, "aodd"),
    )
