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

from itertools import zip_longest
from typing import NamedTuple

from . import match
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


def ordering_iter(config):
    """Priority order: the root requirement first, then tree nodes in
    shortlex order dovetailed with the per-adversary requirements."""
    ns = [ReqN(pi) for pi in config.tree.sorted_nodes()]
    ms = [ReqM(i) for i in range(len(config.adversaries))]
    yield ns[0]
    for pair in zip_longest(ms, ns[1:]):
        yield from filter(None, pair)


def assign_type(engine: Engine, node: Node, s: int) -> Requirement:
    return engine.first_fit()


def act(engine: Engine, node: Node, s: int) -> str:
    req = node.req
    if isinstance(req, ReqN):
        return act_N(engine, node, s)
    if isinstance(req, ReqM):
        return act_M(engine, node, s)
    return "o"


def act_G(engine: Engine, s: int) -> None:
    """End of stage: base coverage of every string entering the slice (a
    chosen string already has its label)."""
    for sigma in engine.entering(s):
        engine.declare_base(sigma, None, s)


class TreeState:
    """A tree strategy's image string: its parent's image extended by a
    fresh number, chosen on its first visit (the root's image is empty)."""

    def __init__(self, sigma: NatString) -> None:
        self.sigma = sigma


def act_N(engine: Engine, node: Node, s: int) -> str:
    st = node.state
    if st is None:
        pi = node.req.pi
        if pi == ():
            st = node.state = TreeState(())
        else:
            # The parent precedes pi in the priority order, so it is above.
            parent = engine.path.by_req[ReqN(pi[:-1])]
            st = node.state = TreeState(parent.state.sigma + (engine.fresh(s),))
    engine.grow(st.sigma, None, s, chooser=node)
    return "o"


def compute_B(engine: Engine, node: Node, t: int) -> dict[StringKey, tuple]:
    return match.responsibility_set(engine, node, t)


def _tree_images(engine: Engine, node: Node) -> list[StringKey]:
    """Starting set: the strings chosen by tree strategies above the node."""
    return sorted(
        ((nd.state.sigma, None) for nd in engine.path_nodes(node.addr)
         if isinstance(nd.req, ReqN)),
        key=lambda key: (len(key[0]), key[0]),
    )


def act_M(engine: Engine, node: Node, s: int) -> str:
    return match.act_M(engine, node, s, _tree_images, compute_B)


# ---------------------------------------------------------------------------
# Post-run extraction: the image tree Q, its order isomorphism, and the
# computable isomorphism onto a matched adversary.

class TreeQ(NamedTuple):
    phi: dict[NatString, NatString]  # input-tree node -> chosen image string

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
        if isinstance(node.req, ReqN):
            phi[node.req.pi] = node.state.sigma
    return TreeQ(phi)


class ExtractedMap(NamedTuple):
    source_to_copy: dict[CubeElem, int]
    f_tau: dict[NatString, int]
    stalls: list[str]

    def __call__(self, e: CubeElem) -> int | None:
        return self.source_to_copy.get(e)


def extract_isomorphism(
    result: RunResult,
    tp_entries: list[TPEntry],
    adv_index: int,
) -> ExtractedMap:
    """Build the copy-side isomorphism from a matched adversary run.

    Starts from the strategy's partial map, completes late-born strings by
    the same witness search at full budget, extends over the strategy's
    excluded strings (from the limit witness, along the copy's E edges of
    each color in the finite correction set), and then extends over nonempty
    vertices by edge search.  It reads the copy alone, never its ground
    truth, so a generated copy and its fact file give the same map.
    """
    entry = next(
        (e for e in tp_entries
         if e.label == f"M{adv_index}" and e.outcome is not None), None
    )
    if entry is None:
        raise ExtractionStalled(f"no stable M{adv_index} node on the true path approximation")
    st = result.nodes[entry.addr].state
    stream = result.adversaries[adv_index].stream
    horizon = result.horizon
    stalls: list[str] = []
    f: dict[NatString, int] = {sigma: x for (sigma, _), x in st.f.items()}
    C = [sigma for sigma, _ in st.C]

    # Closing sweep: strings enumerated by the copy that never entered the
    # responsibility set (late births) get the same search at full budget.
    for sigma in result.universe_strings(horizon):
        if sigma in f or sigma in C:
            continue
        if not stream.witnesses_W(sigma, None, horizon):
            continue  # the copy has not revealed this string yet
        x = match.oldest_witness(result.store, stream, (sigma, None), horizon + 1, horizon)
        if x is not None:
            f[sigma] = x
        else:
            stalls.append(f"no witness for {format_string(sigma)}")

    # Excluded strings, deepest first; the limit witness is the last recorded
    # stable value, the correction set J collects the broken links.
    for sigma in sorted(C, key=len, reverse=True):
        x = st.x_at_t.get((sigma, None))
        if x is None:
            stalls.append(f"no limit witness for chosen {format_string(sigma)}")
            continue
        J = sorted(
            child[-1]
            for child in f
            if len(child) == len(sigma) + 1 and child[: len(sigma)] == sigma
            and not stream.holds_within(("P", x, f[child]), horizon)
        )
        y = x
        for j in J:
            y = _edge_step(stream, j, y, horizon)
            if y is None:
                stalls.append(f"edge walk stalled at {format_string(sigma)} color {j}")
                break
        else:
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

class GadgetStructure(NamedTuple):
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
    return GadgetStructure(snapshot, "aeven"), GadgetStructure(snapshot, "aodd")
