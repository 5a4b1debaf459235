"""The copy-matching strategy, shared by both constructions.

A copy-matching node builds a partial map from the structure's strings onto
the elements of one adversary copy.  Strings are keyed by (sigma, sort), with
sort None in the single-sorted variant.  Each visit extends the map over the
node's responsibility set B, checks the three bullet conditions on every
string of B, and then takes the infinite outcome exactly when the stability
witnesses of the starting set C (the strings chosen above the node) are
unchanged since its last visit.  The variant supplies only C and B.

The node keeps B and what it knows of B across visits, so a visit costs what
changed since the last one.  f only grows and a fact's stamp is its first
occurrence, so a key that passed the bullets keeps passing until
n_sigma(key, t+1) changes, which needs a label on its empty-set vertex
stamped in the stages t moved over, or a child of it enters B.

For the same reasons a P link that held at one visit holds at every later
one: the budget s rises, f never remaps a key, each key's children are
appended in admission order, and the keys chosen below the ii outcome (left
out of the stability witnesses) only grow.  So the node keeps link cursors:
per key of B, how many of its children are known to be linked to its image
(bullet 3), and per key of C and W witness x, how many of its children are
linked to x or left out.  A visit resumes each cursor, so each P link that
holds is tested once.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .adversary import HOLE
from .engine import Engine, Node
from .structure import StringKey, ladder_key, sorts


class MatcherState:
    """A copy-matching node's state, created on its first visit.

    C, f, k0, k1, t (the stage of the last passing visit) and x_at_t (the
    stability witnesses then) are the strategy's own.  The rest is B as of
    the stage B_t it was last brought up to.
    """

    def __init__(self, C: list[StringKey]) -> None:
        self.C = C
        self.f: dict[StringKey, int] = {}
        self.k0 = 0
        self.k1 = 0
        self.t = 0
        self.x_at_t: dict[StringKey, int | None] = {}
        # B: each of its keys with the key that sorts B in ladder order.
        self.rank: dict[StringKey, tuple] = {}
        # Parent key -> its children in B, in admission order.
        self.children: dict[StringKey, list[StringKey]] = {}
        # The keys of B not known to pass the bullets, and a heap of them by
        # rank (entries of keys no longer pending are dropped when popped).
        self.pending: set[StringKey] = set()
        self.queue: list[tuple[tuple, StringKey]] = []
        # The keys of B that f does not map.
        self.unmapped: set[StringKey] = set()
        self.B_t = 0
        # Link cursors: (parent key, element x) -> how many of the key's
        # children, in admission order, x is known to be P-linked to (or
        # leaves out).  x is f[key] for a key of B (bullet 3) and each W
        # witness for a key of C (the stability witnesses).
        self.linked: dict[tuple[StringKey, int], int] = {}
        # Keys the visits enumerated outside the bullet checks: a work count.
        self.scanned = 0

    def admit(self, key: StringKey) -> None:
        sigma, sort = key
        self.rank[key] = (ladder_key(sigma), sort)
        if sigma:
            parent = (sigma[:-1], sort)
            self.children.setdefault(parent, []).append(key)
            self.mark(parent)
        self.mark(key)
        if key not in self.f:
            self.unmapped.add(key)

    def mark(self, key: StringKey) -> None:
        """Queue a key of B for a bullet check; keys outside B are skipped."""
        if key in self.rank and key not in self.pending:
            self.pending.add(key)
            heappush(self.queue, (self.rank[key], key))

    def links_hold(self, stream, key: StringKey, x: int, s: int, skip=()) -> bool:
        """Whether x is P-linked within s to the image of each child of key
        not in skip.  Resumes the (key, x) cursor, so each link that holds
        is tested once."""
        f, kids = self.f, self.children.get(key, ())
        done = self.linked.get((key, x), 0)
        while done < len(kids):
            child = kids[done]
            if child not in skip and (child not in f or
                                      not stream.holds_within(("P", x, f[child]), s)):
                break
            done += 1
        self.linked[key, x] = done
        return done == len(kids)


def responsibility_set(engine: Engine, node: Node, t: int) -> dict[StringKey, tuple]:
    """B: the stage-t universe minus the starting set C.  In the single-sorted
    variant C is every string an ancestor chose: only tree strategies choose,
    each its own image.  The paper also leaves out the keys chosen below the
    finite outcome str(k0), but none of them has entered by t: k0 changes
    only with t, so their choosers act after t, and a string (a stolen one
    too, first chosen in its thief's 0-subtree) is chosen before its birth.

    Brings the node's B up to t and returns it: the node's own rank map.
    B only grows, as t never goes down.  Keys that enter B, and keys of B
    relabelled in stages B_t+1..t, are queued for a bullet check."""
    st: MatcherState = node.state
    if t != st.B_t:
        start = set(st.C)
        keys = sorts(engine.variant)
        for stage in range(st.B_t + 1, t + 1):
            for sigma in engine.entering(stage):
                for sort in keys:
                    key = (sigma, sort)
                    if key not in start:
                        st.admit(key)
                    st.scanned += 1
            relabelled = engine.store.relabelled(stage)
            for key in relabelled:
                st.mark(key)
            st.scanned += len(relabelled)
        st.B_t = t
    return st.rank


def _fields(key: StringKey) -> tuple:
    """A key's trace event fields: single-sorted events omit the sort."""
    return key[:1] if key[1] is None else key


def act_M(engine: Engine, node: Node, s: int, start, responsibility) -> str:
    """One visit.  start(engine, node) gives the sorted starting set C on the
    first visit; responsibility(engine, node, t) gives B."""
    st = node.state
    if st is None:
        st = node.state = MatcherState(start(engine, node))
    stream = engine.adversaries[node.req.index].stream
    f = st.f
    t, k0, k1 = st.t, st.k0, st.k1
    B = responsibility(engine, node, t)
    engine.emit("mstat", s, node, t, k0, k1, len(B))
    st.scanned += len(st.unmapped)
    for key in sorted(st.unmapped, key=st.rank.__getitem__):
        x = oldest_witness(engine.store, stream, key, t + 1, s)
        if x is not None:
            f[key] = x
            st.unmapped.remove(key)
            engine.emit("ftau", s, node, *_fields(key), x)
    # The first failing key in B order is the first failing pending key:
    # every other key of B passed with the same n_sigma and children.
    queue, pending = st.queue, st.pending
    while queue:
        key = queue[0][1]
        if key in pending:
            bullet = _failing_bullet(engine, st, stream, key, t, s)
            if bullet:
                engine.emit("mfail", s, node, *_fields(key), bullet)
                return str(k0)
            pending.remove(key)
        heappop(queue)
    # The stability witness of a key of C: its oldest W witness linked to
    # every child, leaving out the children chosen below the ii outcome.
    below_inf = engine.keys_chosen_below(node)
    xs: dict[StringKey, int | None] = {}
    stable = True
    for key in st.C:
        x = next((w for w in stream.witnesses_W(*key, s)
                  if st.links_hold(stream, key, w, s, below_inf)), None)
        xs[key] = x
        engine.emit("xtau", s, node, *_fields(key), x)
        if x is None or x != st.x_at_t.get(key):
            stable = False
    token = f"i{k1}" if stable else "ii"
    st.x_at_t = xs
    st.t = s
    st.k0 = k0 + 1
    if token == "ii":
        st.k1 = k1 + 1
    return token


def oldest_witness(store, stream, key: StringKey, stage: int, budget: int) -> int | None:
    """The oldest W witness of key, within budget, carrying its top label
    at stage."""
    sigma, sort = key
    n = store.n_sigma(sigma, sort, stage)
    return stream.oldest_satisfying([("W", sigma, sort, HOLE), ("S", n, HOLE)], budget)


def _failing_bullet(engine, st: MatcherState, stream, key, t, s) -> int | None:
    """The first bullet condition key fails: 1 unmapped, 2 top label
    missing on its image, 3 a child unmapped or not linked to it."""
    f = st.f
    if key not in f:
        return 1
    n = engine.store.n_sigma(*key, t + 1)
    if not stream.holds_within(("S", n, f[key]), s):
        return 2
    if not st.links_hold(stream, key, f[key], s):
        return 3
    return None
