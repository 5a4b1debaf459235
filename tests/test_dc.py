import json
from pathlib import Path

import pytest

from conftest import dc_config, faithful

from cubetree import dc
from cubetree.config import config_from_dict
from cubetree.engine import ReqDaughter, ReqMother, ReqU, req_label, run_stages, true_path_approx
from cubetree.structure import elem


def nodes_of(result, kind):
    return [n for n in result.nodes.values() if isinstance(n.req, kind) and n.visits]


def test_phi_rules():
    phi = dc.phi_from_dict(
        {
            "range": 6,
            "default": {"kind": "until", "s0": 4},
            "rules": {"2": {"kind": "periodic", "period": 3}, "5": {"kind": "never"}},
        }
    )
    assert phi.holds(0, 4) and not phi.holds(0, 5)
    assert phi.holds(2, 9) and not phi.holds(2, 10)
    assert not phi.holds(5, 100)
    assert phi.declared_Z() == {2}


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
    values = [n.state["v"] for n in mothers]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert all(v > 1 for v in values)
    # sort-1 mother of each slot activates first, so its value is smaller
    by_slot = {}
    for n in mothers:
        by_slot.setdefault(n.req.r, {})[n.req.a] = n.state["v"]
    for slot, vals in by_slot.items():
        if 0 in vals and 1 in vals:
            assert vals[1] < vals[0]


def test_daughter_strings_extend_mother_chain():
    result = run_stages(dc_config(horizon=40))
    daughters = nodes_of(result, ReqDaughter)
    assert daughters
    for node in daughters:
        for token, string in node.state.get("sig", {}).items():
            assert len(string) == node.req.n + 1
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
            string = node.state["sig"][tail[0]]
            assert string[-1] > 6


def test_u_idles_without_matching_mother():
    # functional bound to a mother slot that never sits below it: make the
    # diagonalizer's round early enough that its mother is always below; to
    # exercise the idle case, bind to slot 1 with only 1 mother configured.
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
    frozen = [n for n in nodes_of(result, ReqU) if n.state.get("frozen")]
    assert frozen
    assert result.zprime
    for node in frozen:
        freeze_stage = node.state["frozen_at"]
        after = [tok for s, tok in node.outcomes if s >= freeze_stage]
        assert after and all(t == "1" for t in after)
        assert result.zprime[node.state["x"]] == freeze_stage
        assert node.state["ell"] == max(len(p) for p in node.state["stolen"].values())


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
         and result.nodes[e.addr].state.get("frozen")),
        None,
    )
    assert u_entry is not None and u_entry.outcome == "1"
    u_node = result.nodes[u_entry.addr]
    # stolen strings extend chains defined below the 0-outcome
    for psi_addr, string in u_node.state["stolen"].items():
        assert len(string) >= 3
    # no blocked daughter type above the 1-outcome
    blocked = u_node.state["blocks"]
    for node in nodes_of(result, ReqDaughter):
        if node.addr[: len(u_node.addr) + 1] == u_node.addr + ("1",):
            assert node.req not in blocked
    # the first daughter of each stolen mother above the 1-outcome inherits
    inherited = False
    for node in nodes_of(result, ReqDaughter):
        if node.addr[: len(u_node.addr) + 1] != u_node.addr + ("1",):
            continue
        for psi_addr, string in u_node.state["stolen"].items():
            psi = result.nodes[psi_addr]
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
        first_addr = records[0][0]
        for addr, _stage in records[1:]:
            node = result.nodes[addr]
            assert isinstance(node.req, ReqU)
            assert first_addr[: len(addr) + 1] == addr + ("0",)


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
        if n.req.e == 0 and n.state.get("frozen")
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
                assert cover > u.state["ell"], (node.addr, u.state["ell"], cover)


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
    engine._current_path = []
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
        if isinstance(node.req, ReqU) and node.state.get("frozen") \
                and e.outcome == "1":
            blocked |= node.state["blocks"]
    prefix = []
    it = dc.ordering_iter(config)
    for _ in range(18):
        prefix.append(next(it))
    for req in prefix:
        assert req in on_path or req in blocked, req


def reference_n_along(engine, addr, mother):
    """Largest n of a daughter of the given mother strictly below addr (0 if
    none), one path walk per mother."""
    best = 0
    want = (mother.req.r, mother.req.a)
    for nd in engine.path_nodes(addr):
        if isinstance(nd.req, ReqDaughter) and (nd.req.r, nd.req.a) == want:
            best = max(best, nd.req.n)
    return best


def test_daughter_coverage_agrees_with_one_walk_per_mother():
    data = json.loads((Path(__file__).resolve().parent.parent / "configs"
                       / "dc_diagonal.json").read_text(encoding="utf-8"))
    result = run_stages(config_from_dict(dict(data, horizon=80)))
    assert any(u.state.get("frozen") for u in nodes_of(result, ReqU))
    compared = 0
    for addr in result.nodes:
        covered = dc.daughter_coverage(result, addr)
        for mother in result.path_nodes(addr):
            if isinstance(mother.req, ReqMother):
                assert covered.get((mother.req.r, mother.req.a), 0) \
                    == reference_n_along(result, addr, mother)
                compared += 1
    assert compared > 1000
