import pytest
from hypothesis import given, strategies as st

from conftest import cc_config, dc_config, faithful
from reference_engine import (
    fixed_configs,
    reference_B,
    reference_chosen_below,
    reference_children_index,
    reference_visit,
)

from cubetree import cc, dc
from cubetree.adversary import HOLE, FactStream
from cubetree.engine import run_stages
from cubetree.match import MatcherState
from cubetree.structure import ladder_key


def in_ladder_order(B):
    """The keys of a rank map B in the order of their sort keys, each checked
    to be the key's ladder key."""
    assert all(rank == (ladder_key(key[0]), key[1]) for key, rank in B.items())
    return sorted(B, key=B.__getitem__)


strings = st.lists(st.integers(0, 3), max_size=4).map(tuple)
cc_pools = st.sets(st.tuples(strings, st.none()), max_size=40)
dc_pools = st.sets(st.tuples(strings, st.integers(0, 1)), max_size=40)


@given(st.one_of(cc_pools, dc_pools), st.data(),
       st.lists(st.tuples(strings, st.sampled_from([None, 0, 1]))))
def test_children_index_matches_scan(pool, data, probes):
    """Keys enter a matcher's B in any order: its children index equals the
    scan of B, each list in admission order, and B holds each key with its
    ladder key."""
    state = MatcherState(C=[])
    members = data.draw(st.permutations(sorted(pool)))
    for key in members:
        state.admit(key)
    index = reference_children_index(members)
    for key in list(pool) + probes:
        kids = state.children.get(key, [])
        assert sorted(kids) == index.get(key, [])
        assert kids == [k for k in members if k in kids]
    assert in_ladder_order(state.rank) == sorted(members, key=lambda k: (ladder_key(k[0]), k[1]))
    assert state.unmapped == set(members)


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
    visit = {}
    counts = {"visits": 0, "links": 0, "skipped": 0}

    def checked_B(engine, node, t):
        B = hook(engine, node, t)
        assert in_ladder_order(B) == reference_B(engine, node, node.state.C, t, node.state.k0)
        visit.update(engine=engine, node=node, B=B)
        counts["visits"] += 1
        return B

    original = FactStream.oldest_satisfying

    def checked_query(stream, conjuncts, budget):
        if all(c[0] == "P" for c in conjuncts[1:]):  # a stability witness query
            engine, node, B = visit["engine"], visit["node"], visit["B"]
            D = set(B) - reference_chosen_below(engine, node.addr + ("ii",))
            kids = reference_children_index(B).get(conjuncts[0][1:3], [])
            f = node.state.f
            assert all(c[:2] == ("P", HOLE) for c in conjuncts[1:])
            assert sorted(c[2] for c in conjuncts[1:]) == sorted(f[k] for k in kids if k in D)
            counts["links"] += len(conjuncts) - 1
            counts["skipped"] += len(kids) - (len(conjuncts) - 1)
        return original(stream, conjuncts, budget)

    monkeypatch.setattr(module, hook_name, checked_B)
    monkeypatch.setattr(FactStream, "oldest_satisfying", checked_query)
    run_stages(config)
    # Every case asks for links and leaves out some child chosen below ii.
    assert counts["visits"] and counts["links"] and counts["skipped"]


@pytest.mark.parametrize("name", ["cc_faithful@80", "CC_DEFECTIVE@100", "dc_diagonal@50"])
def test_matcher_agrees_with_the_plain_matcher_at_every_visit(name, monkeypatch):
    """Beside each real visit, replay the plain matcher on its own state:
    the same B, the same events (so the same first failing key and bullet),
    the same token.  Every keys_chosen_below answer equals the scan of the
    choice records below the ii outcome.  `test_fixed_runs_match_the_reference`
    runs the plain matcher alone on these configs."""
    from cubetree.engine import Engine

    config = fixed_configs()[name]
    module = cc if config.variant == "cc" else dc
    hook_name = "compute_B" if config.variant == "cc" else "compute_B_pairs"
    real_act, real_hook = module.act_M, getattr(module, hook_name)
    real_below = Engine.keys_chosen_below
    shadow, seen = {}, {}
    counts = {"visits": 0, "fails": 0, "below": 0, "below_fin": 0}

    def checked_below(engine, node):
        keys = real_below(engine, node)
        assert keys == reference_chosen_below(engine, node.addr + ("ii",)), str(node)
        counts["below"] += 1
        return keys

    def captured_hook(engine, node, t):
        B = real_hook(engine, node, t)
        seen["B"] = in_ladder_order(B)
        return B

    def checked_act(engine, node, s):
        st = shadow.setdefault(node.addr, {})
        t, k0 = st.get("t", 0), st.get("k0", 0)
        counts["below_fin"] += bool(reference_chosen_below(engine, node.addr + (str(k0),)))
        events = []
        ref_token = reference_visit(engine, node, s, st, lambda *ev: events.append(ev))
        ref_B = reference_B(engine, node, st["C"], t, k0)
        mark = len(engine.trace.records)
        token = real_act(engine, node, s)
        assert seen.pop("B") == ref_B, (s, str(node))
        assert engine.trace.records[mark:] == events, (s, str(node))
        assert token == ref_token, (s, str(node))
        counts["visits"] += 1
        counts["fails"] += events[-1][0] == "mfail"
        return token

    monkeypatch.setattr(Engine, "keys_chosen_below", checked_below)
    monkeypatch.setattr(module, hook_name, captured_hook)
    monkeypatch.setattr(module, "act_M", checked_act)
    run_stages(config)
    # Each case has failing visits, and at some visits the plain B's
    # finite-outcome clause has keys in it (none of them in the universe).
    assert counts["visits"] and counts["fails"] and counts["below_fin"], counts


@pytest.mark.parametrize("name", ["cc_faithful@80", "dc_diagonal@50"])
def test_chosen_below_index_files_exactly_the_matcher_outcomes(name):
    """After a run the engine's chosen-below index holds one entry per
    matcher that something was chosen below the ii outcome of, and each
    entry equals the scan of the choice records: no node of another kind is
    filed, and no choice below a matcher's ii outcome is missed."""
    from cubetree.engine import ReqM

    result = run_stages(fixed_configs()[name])
    expected = {}
    for node in result.nodes.values():
        if isinstance(node.req, ReqM):
            keys = reference_chosen_below(result, node.addr + ("ii",))
            if keys:
                expected[node] = keys
    assert expected
    assert result._below == expected


def test_matcher_work_grows_with_the_trace(monkeypatch):
    """On CC_FAITHFUL at h=150 and h=300 the matchers' counted work (every
    bullet check plus every key a visit enumerates outside them) grows at
    most as trace^1.15, fitted as in Goldsmith, Aiken & Wilkerson, FSE 2007.
    Checking every key of B on every visit grows as trace^1.24 there."""
    import math

    from test_acceptance import CC_FAITHFUL

    from cubetree import match
    from cubetree.config import config_from_dict

    failing_bullet = match._failing_bullet
    checks = 0

    def counted_bullet(*args):
        nonlocal checks
        checks += 1
        return failing_bullet(*args)

    monkeypatch.setattr(match, "_failing_bullet", counted_bullet)
    work, events = [], []
    for horizon in (150, 300):
        checks = 0
        result = run_stages(config_from_dict(dict(CC_FAITHFUL, horizon=horizon)))
        scanned = sum(node.state.scanned for node in result.nodes.values()
                      if isinstance(node.state, MatcherState))
        assert checks and scanned
        work.append(checks + scanned)
        events.append(len(result.trace))
    exponent = math.log(work[1] / work[0]) / math.log(events[1] / events[0])
    assert exponent <= 1.15, (work, events, exponent)


# Slow copies, so the matchers take finite outcomes.
@pytest.mark.parametrize("config", [
    cc_config(horizon=30, adversaries=[faithful(delay=2)]),
    dc_config(horizon=40, mothers=2, adversaries=[faithful(delay=3)]),
], ids=["cc", "dc"])
def test_a_key_chosen_below_the_finite_outcome_fails_the_size_check(config):
    """B only grows, since no run chooses a key of B below a matcher's
    finite outcome.  A choice record made there by hand, between two visits
    that share k0, makes the full replay of B smaller than the |B| the live
    matcher logged at the later visit."""
    from cubetree.verify import check_trace_invariants

    result = run_stages(config)
    assert check_trace_invariants(result).ok
    visits = [ev for ev in result.trace.records if ev[0] == "mstat"]
    for _kind, s1, node, t, k0, *_rest in visits:
        B = reference_B(result, node, node.state.C, t, k0)
        later = [ev for ev in visits if ev[2] is node and ev[1] > s1]
        if B and later and later[0][4] == k0:
            break
    else:
        raise AssertionError("no two visits share k0")
    chooser = result.node_at(node.addr + (str(k0), "o"))
    result.chosen.setdefault(B[0], []).append((chooser, later[0][1] - 1))
    lines = check_trace_invariants(result).lines()
    assert any(line.startswith("FAIL responsibility-size (") for line in lines), lines
