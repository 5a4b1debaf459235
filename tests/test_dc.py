import json
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import dc_config, faithful, is_frozen

from cubetree import dc
from cubetree.config import config_from_dict
from cubetree.engine import ReqDaughter, ReqMother, ReqU, req_label, run_stages, true_path_approx
from cubetree.structure import elem


def nodes_of(result, kind):
    return [n for n in result.nodes.values() if isinstance(n.req, kind) and n.visits]


def test_phi_rules():
    phi = dc_config(
        phi={
            "range": 6,
            "default": {"kind": "until", "s0": 4},
            "rules": {"2": {"kind": "periodic", "period": 3}, "5": {"kind": "never"}},
        }
    ).phi
    assert phi.holds(0, 4) and not phi.holds(0, 5)
    assert phi.holds(2, 9) and not phi.holds(2, 10)
    assert not phi.holds(5, 100)
    assert phi.declared_Z() == {2}


# -- the closed-form predicate against the stage-by-stage scan ------------------

@st.composite
def rules_and_windows(draw):
    """A phi rule and a window [t, s) whose ends sit on both sides of the
    rule's threshold or period boundaries, t >= s and t = 0 included."""
    rule = draw(st.one_of(
        st.just(("never",)),
        st.just(("always",)),
        st.tuples(st.just("until"), st.integers(-3, 40)),
        st.tuples(st.just("periodic"), st.integers(1, 12)),
    ))
    edge = rule[1] * draw(st.integers(0, 3)) if len(rule) > 1 else 0
    t = draw(st.one_of(st.just(0), st.integers(max(0, edge - 2), max(0, edge + 2)),
                       st.integers(0, 60)))
    s = draw(st.one_of(st.integers(t - 3, t + 3), st.integers(0, 60),
                       st.integers(max(0, edge - 2), max(0, edge + 2))))
    return rule, t, s


@given(rules_and_windows())
@example((("until", 5), 5, 6))
@example((("until", 5), 6, 9))
@example((("periodic", 4), 1, 4))
@example((("periodic", 4), 1, 5))
@example((("periodic", 4), 4, 4))
@example((("periodic", 4), 0, 1))
@example((("always",), 3, 3))
def test_fires_between_agrees_with_the_scan(case):
    rule, t, s = case
    phi = dc.PhiPredicate(4, rules=((2, rule),))
    assert phi.fires_between(2, t, s) == any(phi.holds(2, q) for q in range(t, s))


def reference_modulus_check(paths, i, j, n, phi, horizon):
    """`modulus_check` with the predicate scanned stage by stage."""
    if n in phi.declared_Z():
        return dc.ModulusVerdict(False, True)
    bound = paths.value(0, i, n) + paths.value(1, j, n)
    fired = any(phi.holds(n, s) for s in range(bound + 1, horizon + 1))
    return dc.ModulusVerdict(True, not fired)


@given(rules_and_windows(), st.integers(0, 30), st.integers(0, 30))
def test_modulus_check_agrees_with_the_scan(case, fi, gj):
    rule, _t, horizon = case
    phi = dc.PhiPredicate(5, rules=((3, rule),))
    paths = dc.PathFamily({1: (1, 7, 7, fi)}, {2: (2, 7, 7, gj)})
    assert dc.modulus_check(paths, 1, 2, 3, phi, horizon) \
        == reference_modulus_check(paths, 1, 2, 3, phi, horizon)


def test_first_rule_given_for_a_position_wins():
    phi = dc.PhiPredicate(4, rules=((1, ("never",)), (1, ("always",))), default=("always",))
    assert phi.rule_for(1) == ("never",) and phi.rule_for(2) == ("always",)


def test_functionals_step_bounded_and_use_monotone():
    f = dc.Functional("length_threshold", value=0, min_len=3)
    halted, value, use = f.evaluate(((1, 2, 3), (4, 5, 6, 7)), 9, steps=6)
    assert halted and value == 0 and use == (3, 3)
    assert not f.evaluate(((1, 2), (4, 5, 6)), 9, steps=100)[0]
    assert not f.evaluate(((1, 2, 3), (4, 5, 6)), 9, steps=5)[0]
    # halting persists under oracle extension
    assert f.evaluate(((1, 2, 3, 9, 9), (4, 5, 6, 7, 8)), 9, steps=6)[:2] == (True, 0)
    c = dc.Functional("constant", value=1)
    assert c.evaluate((), 0, steps=1) == (True, 1, ())
    n = dc.Functional("never")
    assert not n.evaluate(((1,),), 0, steps=10**6)[0]
    b = dc.Functional("bit_probe", coord=0, pos=1, modulus=2)
    assert b.evaluate(((4, 7), (1,)), 0, steps=2)[:2] == (True, 1)
    assert not b.evaluate(((4,), (1,)), 0, steps=10)[0]


def test_mothers_pick_increasing_fresh_values():
    result = run_stages(dc_config(horizon=20, mothers=2))
    mothers = sorted(nodes_of(result, ReqMother), key=lambda n: len(n.addr))
    values = [n.state.v for n in mothers]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert all(v > 1 for v in values)
    # sort-1 mother of each slot activates first, so its value is smaller
    by_slot = {}
    for n in mothers:
        by_slot.setdefault(n.req.r, {})[n.req.a] = n.state.v
    for slot, vals in by_slot.items():
        if 0 in vals and 1 in vals:
            assert vals[1] < vals[0]


def test_daughter_strings_extend_mother_chain():
    result = run_stages(dc_config(horizon=40))
    daughters = nodes_of(result, ReqDaughter)
    assert daughters
    for node in daughters:
        assert set(map(len, node.state.sig.values())) == {node.req.n + 1}
        for ev in result.trace:
            if ev[0] == "gamma" and ev[2] is node:
                assert len(ev[3]) == ev[4]


def test_daughter_outcomes_track_predicate():
    # predicate never fires: outcome 0 forever, no infinite outcomes
    config = dc_config(horizon=30, phi={"range": 8, "default": {"kind": "never"}})
    result = run_stages(config)
    for node in nodes_of(result, ReqDaughter):
        assert all(tok == "0" for _s, tok in node.outcomes)
    # predicate always fires: infinite outcome at every visit
    config = dc_config(horizon=30, phi={"range": 8, "default": {"kind": "always"}})
    result = run_stages(config)
    for node in nodes_of(result, ReqDaughter):
        assert all(tok == "i" for _s, tok in node.outcomes)


def test_daughter_settles_after_predicate_dies():
    config = dc_config(horizon=40, phi={"range": 8, "default": {"kind": "until", "s0": 6}})
    result = run_stages(config)
    daughters = [n for n in nodes_of(result, ReqDaughter) if len(n.outcomes) >= 10]
    assert daughters
    for node in daughters:
        infs = [s for s, tok in node.outcomes if tok == "i"]
        # once the window start passes the bound, the outcome can never again
        # be infinite; only a first firing (window start 0 or <= 6) gets through
        assert len([s for s in infs if s > 7]) <= 1
        tail = [tok for s, tok in node.outcomes if not infs or s > infs[-1]]
        assert tail and all(t == tail[0] != "i" for t in tail)
        # the settled string's appended stage exceeds the predicate bound
        if infs:
            string = node.state.sig[tail[0]]
            assert string[-1] > 6


def test_u_with_a_never_halting_functional_keeps_outcome_zero():
    # A functional that never halts gives the diagonalizer nothing to steal:
    # it keeps its 0-outcome and enumerates no witness.
    config = dc_config(
        horizon=25,
        mothers=1,
        functionals=[{"mother": 0, "round": 2, "kind": "never"}],
    )
    result = run_stages(config)
    unodes = nodes_of(result, ReqU)
    assert unodes
    for node in unodes:
        assert all(tok == "0" for _s, tok in node.outcomes)
    assert not result.zprime


def test_u_freezes_with_constant_zero_functional():
    config = dc_config(
        horizon=60,
        mothers=1,
        functionals=[{"mother": 0, "round": 2, "kind": "constant", "value": 0}],
    )
    result = run_stages(config)
    frozen = [n for n in nodes_of(result, ReqU) if is_frozen(n)]
    assert frozen
    assert result.zprime
    for node in frozen:
        freeze_stage = next(ev[1] for ev in result.trace
                            if ev[0] == "ufreeze" and ev[2] is node)
        after = [tok for s, tok in node.outcomes if s >= freeze_stage]
        assert after and all(t == "1" for t in after)
        st = node.state
        assert result.zprime[st.x] == freeze_stage
        assert st.ell == max(len(p) for p in st.stolen.values())


def test_frozen_u_blocks_and_daughters_inherit():
    config = dc_config(
        horizon=80,
        mothers=1,
        phi={"range": 10, "default": {"kind": "until", "s0": 6}},
        functionals=[{"mother": 0, "round": 2, "kind": "length_threshold",
                      "min_len": 3, "value": 0}],
    )
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    tp_addrs = [e.addr for e in entries]
    u_entry = next(
        (e for e in entries
         if isinstance(result.nodes[e.addr].req, ReqU)
         and is_frozen(result.nodes[e.addr])),
        None,
    )
    assert u_entry is not None and u_entry.outcome == "1"
    u_node = result.nodes[u_entry.addr]
    # stolen strings extend chains defined below the 0-outcome
    for string in u_node.state.stolen.values():
        assert len(string) >= 3
    # no blocked daughter type above the 1-outcome
    blocked = u_node.state.blocks
    for node in nodes_of(result, ReqDaughter):
        if node.addr[: len(u_node.addr) + 1] == u_node.addr + ("1",):
            assert node.req not in blocked
    # the first daughter of each stolen mother above the 1-outcome inherits
    inherited = False
    for node in nodes_of(result, ReqDaughter):
        if node.addr[: len(u_node.addr) + 1] != u_node.addr + ("1",):
            continue
        for psi, string in u_node.state.stolen.items():
            if (node.req.r, node.req.a) == (psi.req.r, psi.req.a) \
                    and node.req.n == len(string):
                for ev in result.trace:
                    if ev[0] == "gamma" and ev[2] is node:
                        assert ev[3] == string
                        inherited = True
    assert inherited


def test_pair_steal_records_second_chooser():
    config = dc_config(
        horizon=80,
        mothers=1,
        functionals=[{"mother": 0, "round": 2, "kind": "length_threshold",
                      "min_len": 3, "value": 0}],
    )
    result = run_stages(config)
    stolen_pairs = [
        (key, records) for key, records in result.chosen.items()
        if len(records) > 1
    ]
    assert stolen_pairs
    for (sigma, sort), records in stolen_pairs:
        first = records[0][0]
        for node, _stage in records[1:]:
            assert isinstance(node.req, ReqU)
            assert first.addr[: len(node.addr) + 1] == node.addr + ("0",)


def test_matching_node_on_pairs_with_faithful_copy():
    config = dc_config(horizon=50, adversaries=[faithful(delay=1)])
    result = run_stages(config)
    m_nodes = [n for n in result.nodes.values()
               if n.req is not None and req_label(n.req) == "M0" and n.visits]
    assert m_nodes
    node = max(m_nodes, key=lambda n: len(n.visits))
    infs = [s for s, tok in node.outcomes if tok.startswith("i")]
    assert len(infs) >= 10


def test_extract_paths_and_modulus():
    config = dc_config(
        horizon=120,
        mothers=2,
        universe={"rate": 8, "cap": 3, "f_rate": 10, "f_cap": 2},
        phi={"range": 10, "default": {"kind": "until", "s0": 12}},
    )
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    paths = dc.extract_paths(result, entries)
    assert paths.f and paths.g
    xs = sorted(paths.f)
    ys = sorted(paths.g)
    # mother values are path heads
    for i, prefix in paths.f.items():
        assert prefix[0] == i
    triples = [
        (i, j, n)
        for i in xs
        for j in ys
        if i < j
        for n in range(j + 1, 10)
        if paths.value(0, i, n) is not None and paths.value(1, j, n) is not None
    ]
    assert triples, (paths.f, paths.g)
    for i, j, n in triples:
        verdict = dc.modulus_check(paths, i, j, n, result.cfg.phi, result.horizon)
        assert verdict.applicable
        assert verdict.holds


def test_modulus_check_guards():
    config = dc_config(horizon=40, mothers=2)
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    paths = dc.extract_paths(result, entries)
    phi = result.cfg.phi
    with pytest.raises(ValueError):
        dc.modulus_check(paths, 5, 4, 6, phi, 40)
    with pytest.raises(ValueError):
        dc.modulus_check(paths, 1, 2, 99, phi, 40)


def test_final_structure_constants():
    # The finished structure names u0 as c, the empty vertex at the sort-1
    # root as d, and each vertex v_F of that root copy.
    from cubetree.structure import UElem, holds_E, holds_P, holds_W

    c, d, v13 = UElem(0), elem((), (), sort=1), elem({1, 3}, (), sort=1)
    assert holds_P(c, elem((), (), sort=0))
    assert holds_W((), 1, d) and holds_W((), 1, v13)
    assert holds_E(3, elem({1}, (), sort=1), v13)


def test_dc_g_covers_both_sorts():
    result = run_stages(dc_config(horizon=20))
    store = result.store
    # the root pairs grow every stage
    assert len(store.labels(elem((), (), sort=0))) == 20
    assert len(store.labels(elem((), (), sort=1))) == 20
    # chosen strings born inside the horizon get base coverage on both sorts
    from cubetree.structure import birth_stage

    chosen = [sigma for (sigma, sort) in result.chosen
              if sigma != () and birth_stage(sigma) <= result.horizon]
    assert chosen
    for sigma in chosen:
        for a in (0, 1):
            stamp = store.label_stamp(0, elem((), sigma, a))
            assert stamp == birth_stage(sigma) or stamp is not None


def test_second_diagonalizer_waits_for_clearance():
    # After the first diagonalizer freezes with stolen strings of length L,
    # another one may only be typed once every mother below it has daughter
    # coverage past L.
    config = dc_config(
        horizon=160,
        mothers=1,
        phi={"range": 12, "default": {"kind": "until", "s0": 6}},
        functionals=[
            {"mother": 0, "round": 2, "kind": "length_threshold",
             "min_len": 3, "value": 0},
            {"mother": 0, "round": 3, "kind": "constant", "value": 0},
        ],
    )
    result = run_stages(config)
    frozen_first = [
        n for n in nodes_of(result, ReqU)
        if n.req.e == 0 and is_frozen(n)
    ]
    assert frozen_first
    second = [n for n in nodes_of(result, ReqU) if n.req.e == 1]
    assert second
    for node in second:
        for u in frozen_first:
            prefix = u.addr + ("1",)
            if node.addr[: len(prefix)] != prefix:
                continue
            # every mother below the frozen node has coverage past its reach
            for psi in nodes_of(result, ReqMother):
                if len(psi.addr) >= len(u.addr) or u.addr[: len(psi.addr)] != psi.addr:
                    continue
                cover = max(
                    (d.req.n for d in nodes_of(result, ReqDaughter)
                     if (d.req.r, d.req.a) == (psi.req.r, psi.req.a)
                     and node.addr[: len(d.addr)] == d.addr),
                    default=0,
                )
                assert cover > u.state.ell, (node.addr, u.state.ell, cover)


def test_first_visit_with_empty_mother_set_takes_first_infinite(monkeypatch):
    # With no pairs to compare, the stability test is vacuous, so the first
    # visit takes the first stable-infinite outcome rather than the flip one.
    from cubetree.engine import Engine, ReqM

    from cubetree.engine import ReqIdle

    config = dc_config(horizon=3, adversaries=[faithful(delay=1)])
    engine = Engine(config)
    engine.node_at(()).req = ReqIdle()
    engine.node_at(("o",)).req = ReqIdle()
    node = engine.node_at(("o", "o"))
    node.req = ReqM(0)
    token = dc.act_M(engine, node, 1)
    assert token == "i0"


def test_dc_ordering_constraints():
    from cubetree.engine import ReqMother, ReqDaughter

    config = dc_config(mothers=2, adversaries=[faithful()])
    it = dc.ordering_iter(config)
    prefix = [next(it) for _ in range(60)]
    pos = {req: k for k, req in enumerate(prefix)}
    for req in prefix:
        if isinstance(req, ReqDaughter):
            mother = ReqMother(req.r, req.a)
            assert pos[mother] < pos[req]
            later = ReqDaughter(req.r, req.n + 1, req.a)
            if later in pos:
                assert pos[req] < pos[later]


def test_every_unblocked_type_reaches_the_true_path():
    config = dc_config(
        horizon=100,
        mothers=1,
        phi={"range": 12, "default": {"kind": "until", "s0": 6}},
        functionals=[{"mother": 0, "round": 2, "kind": "length_threshold",
                      "min_len": 3, "value": 0}],
    )
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    on_path = {result.nodes[e.addr].req for e in entries}
    blocked = set()
    for e in entries:
        node = result.nodes[e.addr]
        if isinstance(node.req, ReqU) and is_frozen(node) and e.outcome == "1":
            blocked |= node.state.blocks
    prefix = []
    it = dc.ordering_iter(config)
    for _ in range(18):
        prefix.append(next(it))
    for req in prefix:
        assert req in on_path or req in blocked, req


# -- the provider lookups against the path walks they replace --------------------
#
# `WalkedPath` and `walk_resolve_gamma` (tests/reference_engine.py) are the
# stage loop's former path lookups and `resolve_gamma`: each one steps through
# every ancestor of the position it is asked about, where the stage loop now
# reads the records of its path index.


def provider_runs():
    from test_acceptance import DC_MODULUS

    diagonal = json.loads((Path(__file__).resolve().parent.parent / "configs"
                           / "dc_diagonal.json").read_text(encoding="utf-8"))
    return [("dc_diagonal@80", dict(diagonal, horizon=80), True),
            ("DC_MODULUS@120", dict(DC_MODULUS, horizon=120), False)]


@pytest.mark.parametrize("data, diagonalizes", [r[1:] for r in provider_runs()],
                         ids=[r[0] for r in provider_runs()])
def test_provider_lookups_agree_with_the_path_walks(data, diagonalizes, monkeypatch):
    """At every typing the blocking report and the daughter coverage, and at
    every daughter visit the inherited string the daughter holds, equal those
    of the walks.  The string is resolved once per daughter."""
    from types import SimpleNamespace

    from reference_engine import WalkedPath, walk_resolve_gamma

    typing, resolve, visit = dc.assign_type, dc.resolve_gamma, dc.act_N_daughter
    typed, providers, resolved = [], [], []

    def checked_typing(engine, node, s):
        walked = WalkedPath(engine.path_nodes(node.addr), node.addr)
        assert dc.blocking_report(engine) == dc.blocking_report(SimpleNamespace(path=walked)), node
        assert engine.path.coverage == walked.coverage, node
        typed.append(node)
        return typing(engine, node, s)

    def counted_resolve(engine, node):
        resolved.append(node.addr)
        return resolve(engine, node)

    def checked_visit(engine, node, s):
        token = visit(engine, node, s)
        provider, expected = walk_resolve_gamma(engine.path_nodes(node.addr), node)
        assert node.state.gamma == expected, node
        providers.append(type(provider.req))
        return token

    monkeypatch.setattr(dc, "assign_type", checked_typing)
    monkeypatch.setattr(dc, "resolve_gamma", counted_resolve)
    monkeypatch.setattr(dc, "act_N_daughter", checked_visit)
    result = run_stages(config_from_dict(data))
    assert len(typed) > 500 and len(providers) > 2000
    daughters = [nd.addr for nd in nodes_of(result, ReqDaughter)]
    assert sorted(resolved) == sorted(daughters)
    assert {ReqMother, ReqDaughter} <= set(providers)
    assert (ReqU in providers) == diagonalizes


# -- counted work of the stage loop against the trace ---------------------------

def test_stage_loop_work_grows_with_the_trace(monkeypatch):
    """On DC_MODULUS at h=100 and h=200 the loop never evaluates the
    predicate stage by stage, and its counted work (one unit per visit plus
    every node a path walk steps through) grows at most as trace^1.15,
    fitted as in Goldsmith, Aiken & Wilkerson, FSE 2007.  Per-visit walks of
    the path grow as trace^1.4 there."""
    import math

    from test_acceptance import DC_MODULUS

    from cubetree.engine import Engine

    def no_holds(self, n, s):
        raise AssertionError("the stage loop evaluated PhiPredicate.holds")

    path_nodes = Engine.path_nodes
    stepped = 0

    def counted_path_nodes(self, addr):
        nonlocal stepped
        nodes = path_nodes(self, addr)
        stepped += len(nodes)
        return nodes

    monkeypatch.setattr(dc.PhiPredicate, "holds", no_holds)
    monkeypatch.setattr(Engine, "path_nodes", counted_path_nodes)
    work, events = [], []
    for horizon in (100, 200):
        stepped = 0
        result = run_stages(config_from_dict(dict(DC_MODULUS, horizon=horizon)))
        visits = sum(len(node.visits) for node in result.nodes.values())
        work.append(visits + stepped)
        events.append(len(result.trace))
    exponent = math.log(work[1] / work[0]) / math.log(events[1] / events[0])
    assert exponent <= 1.15, (work, events, exponent)


def test_first_fit_work_grows_with_the_trace():
    """On DC_MODULUS at h=100 and h=200, the priority-order entries that
    first_fit examines grow at most as trace^1.15, fitted as in the test
    above, and number at most one per visit plus one per typing: each entry
    the path's lead passes is on the path, and no typing there is refused by
    `allowed`.  A scan from the order's start at every typing examines about
    one entry per depth instead, 120,844 entries for 21,548 visits and
    typings at h=200."""
    import math

    from test_acceptance import DC_MODULUS

    from cubetree.engine import Engine

    class CountedOrder(list):
        examined = 0

        def __getitem__(self, k):
            CountedOrder.examined += 1
            return super().__getitem__(k)

    work, events = [], []
    for horizon in (100, 200):
        CountedOrder.examined = 0
        engine = Engine(config_from_dict(dict(DC_MODULUS, horizon=horizon)))
        engine.ordering = CountedOrder()
        result = engine.run()
        visits = sum(len(node.visits) for node in result.nodes.values())
        typed = sum(node.req is not None for node in result.nodes.values())
        assert CountedOrder.examined <= visits + typed, (horizon, CountedOrder.examined, visits, typed)
        work.append(CountedOrder.examined)
        events.append(len(result.trace))
    exponent = math.log(work[1] / work[0]) / math.log(events[1] / events[0])
    assert exponent <= 1.15, (work, events, exponent)


def test_a_grow_finds_its_key_without_a_lookup_by_value(monkeypatch):
    """On DC_MODULUS at h=150, the label store looks a key up by its
    string's value (`LabelStore.record` or `LabelStore.grows`) once per
    distinct key grown or declared on the empty vertex, plus once per
    `declare` call, whose stamp probe reads the key's growth events: 4,323
    lookups for 11,775 grows.  A repeated grow finds its key's record by the
    string object it grew with before.  A store that looked the key up by
    value at every grow would make at least one lookup per grow."""
    from test_acceptance import DC_MODULUS

    from cubetree.structure import GrowEvent, LabelStore

    calls = {"lookup": 0, "declare": 0, "grow": 0}

    def counted(name, kind):
        method = getattr(LabelStore, name, None)

        def wrapper(self, *args):
            calls[kind] += 1
            return method(self, *args)

        monkeypatch.setattr(LabelStore, name, wrapper, raising=False)

    counted("record", "lookup")
    counted("grows", "lookup")
    counted("declare", "declare")
    counted("grow", "grow")
    result = run_stages(config_from_dict(dict(DC_MODULUS, horizon=150)))
    keys = set()
    for ev in result.store.declaration_events():
        if isinstance(ev, GrowEvent):
            keys.add((ev.sigma, ev.sort))
        elif not ev[2].fset:
            keys.add((ev[2].sigma, ev[2].sort))
    bound = len(keys) + calls["declare"]
    assert calls["grow"] > 2 * bound, (calls, len(keys))
    assert calls["lookup"] <= bound, (calls, len(keys))
