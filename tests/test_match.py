import pytest
from hypothesis import given, strategies as st

from conftest import cc_config, dc_config, faithful

from cubetree import cc, dc
from cubetree.adversary import HOLE, FactStream
from cubetree.engine import run_stages
from cubetree.match import children_index


def scan_children(pool, key):
    """The pool scan the index replaces: keys one symbol longer than key,
    extending it, with the same sort."""
    sigma, sort = key
    return sorted(
        k for k in pool
        if len(k[0]) == len(sigma) + 1 and k[0][: len(sigma)] == sigma and k[1] == sort
    )


strings = st.lists(st.integers(0, 3), max_size=4).map(tuple)
cc_pools = st.sets(st.tuples(strings, st.none()), max_size=40)
dc_pools = st.sets(st.tuples(strings, st.integers(0, 1)), max_size=40)


@given(st.one_of(cc_pools, dc_pools), st.lists(st.tuples(strings, st.sampled_from([None, 0, 1]))))
def test_children_index_matches_scan(pool, probes):
    index = children_index(pool)
    for key in list(pool) + probes:
        assert index.get(key, []) == scan_children(pool, key)


# The plain responsibility formulas, one scan of each string's choosers, that
# Engine.keys_chosen_below and match.responsibility_set replace.

def chosen_by_extension_of(engine, sigma, sort, prefix):
    return any(a[: len(prefix)] == prefix for a, _ in engine.chosen.get((sigma, sort), []))


def chosen_by_ancestor_of(engine, sigma, sort, addr):
    return any(len(a) < len(addr) and addr[: len(a)] == a
               for a, _ in engine.chosen.get((sigma, sort), []))


def reference_B(engine, node, t, fin_token):
    out = []
    below_fin = node.addr + (fin_token,)
    for sigma in engine.universe_strings(t):
        if chosen_by_ancestor_of(engine, sigma, None, node.addr):
            continue
        if chosen_by_extension_of(engine, sigma, None, below_fin):
            continue
        out.append((sigma, None))
    return out


def reference_B_pairs(engine, node, t, fin_token):
    below_fin = node.addr + (fin_token,)
    cpairs = set(node.state["C"])
    out = []
    for sigma in engine.universe_strings(t):
        for a in (0, 1):
            if (sigma, a) in cpairs:
                continue
            if chosen_by_extension_of(engine, sigma, a, below_fin):
                continue
            out.append((sigma, a))
    return out


BROKEN_ROOT_LINK = {"kind": "break_p", "sigma": [], "j": 3}


@pytest.mark.parametrize("variant, config", [
    ("cc", cc_config(horizon=40, adversaries=[faithful(defects=[BROKEN_ROOT_LINK])])),
    ("cc", cc_config(horizon=40, adversaries=[faithful(delay=1), faithful(delay=3)])),
    ("dc", dc_config(horizon=40, adversaries=[faithful(delay=2)], mothers=2)),
])
def test_responsibility_and_stability_pool_match_chosen_scans(variant, config, monkeypatch):
    """At every matcher visit, B equals the plain formula, and the
    stability witness of each key of C asks for P links to exactly its
    children in D = {key in B not chosen below the ii outcome}."""
    module = cc if variant == "cc" else dc
    hook_name = "compute_B" if variant == "cc" else "compute_B_pairs"
    hook = getattr(module, hook_name)
    reference = reference_B if variant == "cc" else reference_B_pairs
    visit = {}
    counts = {"visits": 0, "links": 0, "skipped": 0}

    def checked_B(engine, node, t, fin_token):
        B = hook(engine, node, t, fin_token)
        assert B == reference(engine, node, t, fin_token)
        visit.update(engine=engine, node=node, B=B)
        counts["visits"] += 1
        return B

    original = FactStream.oldest_satisfying

    def checked_query(stream, conjuncts, budget):
        if all(c[0] == "P" for c in conjuncts[1:]):  # a stability witness query
            engine, node, B = visit["engine"], visit["node"], visit["B"]
            below_inf = node.addr + ("ii",)
            D = {key for key in B if not chosen_by_extension_of(engine, *key, below_inf)}
            kids = scan_children(B, conjuncts[0][1:3])
            f = node.state["f"]
            assert conjuncts[1:] == [("P", HOLE, f[k]) for k in kids if k in D]
            counts["links"] += len(conjuncts) - 1
            counts["skipped"] += len(kids) - (len(conjuncts) - 1)
        return original(stream, conjuncts, budget)

    monkeypatch.setattr(module, hook_name, checked_B)
    monkeypatch.setattr(FactStream, "oldest_satisfying", checked_query)
    run_stages(config)
    # Every case asks for links and leaves out some child chosen below ii.
    assert counts["visits"] and counts["links"] and counts["skipped"]
