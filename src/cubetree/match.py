"""The copy-matching strategy, shared by both constructions.

A copy-matching node builds a partial map from the structure's strings onto
the elements of one adversary copy.  Strings are keyed by (sigma, sort), with
sort None in the single-sorted variant.  Each visit extends the map over the
node's responsibility set B, checks the three bullet conditions on every
string of B, and then takes the infinite outcome exactly when the stability
witnesses of the starting set C (the strings chosen above the node) are
unchanged since its last visit.  The variant supplies only C and B.
"""

from __future__ import annotations

from .adversary import HOLE
from .engine import Engine, Node, format_addr
from .structure import StringKey


def children_index(pool) -> dict[StringKey, list[StringKey]]:
    """Parent key -> the sorted keys of the pool one symbol longer with the
    same sort."""
    index: dict[StringKey, list[StringKey]] = {}
    for key in pool:
        sigma, sort = key
        if sigma:
            index.setdefault((sigma[:-1], sort), []).append(key)
    for kids in index.values():
        kids.sort()
    return index


def _fields(key: StringKey) -> tuple:
    """A key's trace event fields: single-sorted events omit the sort."""
    return key[:1] if key[1] is None else key


def act_M(engine: Engine, node: Node, s: int, start, responsibility) -> str:
    """One visit.  start(engine, node) gives the sorted starting set C on the
    first visit; responsibility(engine, node, t, fin_token) gives B."""
    st = node.state
    if "C" not in st:
        st["C"] = start(engine, node)
        st["f"] = {}
        st["k0"] = 0
        st["k1"] = 0
        st["t"] = 0
        st["x_at_t"] = {}
    stream = engine.adversaries[node.req.index].stream
    addr = format_addr(node.addr)
    f = st["f"]
    t, k0, k1 = st["t"], st["k0"], st["k1"]
    B = responsibility(engine, node, t, str(k0))
    engine.emit("mstat", s, addr, t, k0, k1, len(B))
    for key in B:
        if key not in f:
            sigma, sort = key
            n = engine.store.n_sigma(sigma, sort, t + 1)
            x = stream.oldest_satisfying([("W", sigma, sort, HOLE), ("S", n, HOLE)], s)
            if x is not None:
                f[key] = x
                engine.emit("ftau", s, addr, *_fields(key), x)
    children = children_index(B)
    for key in B:
        bullet = _failing_bullet(engine, f, stream, children.get(key, ()), key, t, s)
        if bullet:
            engine.emit("mfail", s, addr, *_fields(key), bullet)
            return str(k0)
    below_inf = node.addr + ("ii",)
    D = {key for key in B if not engine.chosen_by_extension_of(*key, below_inf)}
    xs: dict[StringKey, int | None] = {}
    stable = True
    for key in st["C"]:
        sigma, sort = key
        conjuncts = [("W", sigma, sort, HOLE)]
        conjuncts += [("P", HOLE, f[child]) for child in children.get(key, ()) if child in D]
        x = stream.oldest_satisfying(conjuncts, s)
        xs[key] = x
        engine.emit("xtau", s, addr, *_fields(key), x)
        if x is None or x != st["x_at_t"].get(key):
            stable = False
    token = f"i{k1}" if stable else "ii"
    st["x_at_t"] = xs
    st["t"] = s
    st["k0"] = k0 + 1
    if token == "ii":
        st["k1"] = k1 + 1
    return token


def _failing_bullet(engine, f, stream, children, key, t, s) -> int | None:
    """The first bullet condition key fails: 1 unmapped, 2 top label
    missing on its image, 3 a child unmapped or not linked to it."""
    if key not in f:
        return 1
    n = engine.store.n_sigma(*key, t + 1)
    if not stream.holds_within(("S", n, f[key]), s):
        return 2
    for child in children:
        if child not in f or not stream.holds_within(("P", f[key], f[child]), s):
            return 3
    return None
