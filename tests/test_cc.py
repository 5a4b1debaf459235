from conftest import cc_config, faithful

import pytest

from cubetree import cc
from cubetree.engine import req_label, run_stages, true_path_approx
from cubetree.structure import VariantMismatch, elem
from cubetree.verify import check_isomorphism


def m_node(result, index=0):
    return next(
        node for node in result.nodes.values()
        if node.req is not None and req_label(node.req) == f"M{index}"
        and node.visits
    )


def outcome_kinds(node):
    return [tok for _s, tok in node.outcomes]


def test_matching_node_infinite_outcomes_cofinal_on_faithful_copy():
    result = run_stages(cc_config(horizon=40, adversaries=[faithful(delay=1)]))
    node = m_node(result)
    infs = [s for s, tok in node.outcomes if tok.startswith("i")]
    assert len(infs) >= 30
    assert infs[-1] >= 38


def test_matching_node_follows_lag():
    result = run_stages(cc_config(horizon=40, adversaries=[faithful(delay=6)]))
    node = m_node(result)
    tokens = outcome_kinds(node)
    assert any(not t.startswith("i") for t in tokens)
    assert any(t.startswith("i") for t in tokens[-6:])


def test_defective_copy_strands_the_matcher():
    spec = faithful(delay=1)
    spec["defects"] = [{"kind": "omit_label", "n": 0, "sigma": [0]}]
    result = run_stages(cc_config(horizon=40, adversaries=[spec]))
    node = m_node(result)
    inf_stages = [s for s, tok in node.outcomes if tok.startswith("i")]
    fin_tokens = {tok for s, tok in node.outcomes if not tok.startswith("i")}
    assert inf_stages and max(inf_stages) < 20
    assert len(fin_tokens) == 1


def test_matcher_skips_links_to_strings_chosen_below_its_infinite_outcome():
    # N<0> sits below M0's ii outcome and chooses <3>, a child of the root
    # image.  The copy lacks every P link from <> to <3>; the stability
    # witness of <> must not ask for one, so M0 still finds it and stays
    # on its infinite outcome.
    broken = {"kind": "break_p", "sigma": [], "j": 3}
    result = run_stages(cc_config(horizon=12, adversaries=[faithful(defects=[broken])]))
    lines = result.trace_lines()
    assert "choose 2 /o/ii <3> -" in lines
    assert any(line.startswith("ftau 5 /o <3> ") for line in lines)
    late = [line for line in lines if line.startswith("xtau") and int(line.split()[1]) >= 5]
    assert late and all(line.endswith(" <> 0") for line in late)
    assert all(tok.startswith("i") and tok != "ii" for s, tok in m_node(result).outcomes if s >= 5)


def test_responsibility_set_monotone():
    result = run_stages(cc_config(horizon=30, adversaries=[faithful(delay=3)]))
    sizes = [ev[6] for ev in result.trace if ev[0] == "mstat"]
    assert sizes == sorted(sizes)


def test_compute_q_on_five_node_tree():
    config = cc_config(horizon=60, adversaries=[faithful(delay=1)])
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    q = cc.compute_Q(result, entries)
    assert len(q.phi) == 5
    assert q.phi[()] == ()
    assert q.check_tree()
    for pi, sigma in q.phi.items():
        assert len(pi) == len(sigma)


def test_q_images_are_fresh_strings():
    result = run_stages(cc_config(horizon=60))
    entries = true_path_approx(result, threshold=3)
    q = cc.compute_Q(result, entries)
    for pi, sigma in q.phi.items():
        if pi:
            assert sigma[-1] > 1


def test_extract_isomorphism_identity_copy():
    config = cc_config(horizon=50, adversaries=[faithful(delay=1)])
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    extracted = cc.extract_isomorphism(result, entries, 0)
    assert not extracted.stalls
    adv = result.adversaries[0]
    for e, x in extracted.source_to_copy.items():
        assert adv.to_ground[x] == e
    report = check_isomorphism(extracted, result.snapshot(), adv, result.horizon)
    assert report.ok, report.failures()


def test_extract_isomorphism_permuted_copy():
    perm = {"kind": "block_rotate", "block": 8, "shift": 3}
    config = cc_config(
        horizon=50,
        adversaries=[faithful(delay=1), faithful(delay=2, label="perm", permutation=perm)],
    )
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    extracted = cc.extract_isomorphism(result, entries, 1)
    assert not extracted.stalls
    adv = result.adversaries[1]
    report = check_isomorphism(extracted, result.snapshot(), adv, result.horizon)
    assert report.ok, report.failures()
    # The composite with ground truth is a per-string translation.
    twists = {}
    for e, x in extracted.source_to_copy.items():
        ge = adv.to_ground[x]
        assert ge.sigma == e.sigma
        twist = frozenset(ge.fset ^ e.fset)
        assert twists.setdefault(e.sigma, twist) == twist
    # Unchosen strings are matched straight to their empty-vertex images.
    chosen = {sigma for (sigma, _sort) in result.chosen}
    for sigma, twist in twists.items():
        if sigma not in chosen:
            assert twist == frozenset()


def test_extraction_requires_stable_matcher():
    config = cc_config(horizon=8)
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    with pytest.raises(cc.ExtractionStalled):
        cc.extract_isomorphism(result, entries, 0)


def test_dimension_two_gadget():
    result = run_stages(cc_config(horizon=20))
    snap = result.snapshot()
    b0, b1 = cc.extend_to_dimension_two(snap)
    assert b0.constant == "aeven" and b1.constant == "aodd"
    assert b0.holds_P_new("aeven", elem((), ()))
    assert not b0.holds_P_new("aodd", elem((), ()))
    assert b0.holds_P_new("aodd", elem({1}, ()))
    assert not b0.holds_P_new("aeven", elem({1}, ()))
    assert not b0.holds_P_new("aeven", elem((), (0,)))
    assert b0.reduct_lines() == b1.reduct_lines()
    assert b0.dump_lines() != b1.dump_lines()
    assert b0.dump_lines()[-1] == "constant c=aeven"


def test_dimension_two_needs_single_sorted_snapshot():
    from conftest import dc_config

    result = run_stages(dc_config(horizon=6))
    with pytest.raises(VariantMismatch):
        cc.extend_to_dimension_two(result.snapshot())


def test_extraction_corrects_a_perturbed_limit_witness_by_its_copy_edges():
    """The correction set J of an excluded string: with the limit witness of
    <> moved to {j}@<>, for a child symbol j of <> that f maps and that is
    inside the vertex window, J = {j}, and the extraction walks back to the
    unperturbed map, on the generated copy and on its fact-file twin."""
    from test_verify import shipped_config

    from cubetree.adversary import Adversary, stream_from_lines
    from cubetree.structure import sorts

    result = run_stages(shipped_config("cc_faithful.json", 80))
    entries = true_path_approx(result, threshold=3)
    entry = next(e for e in entries if e.label == "M0" and e.outcome is not None)
    st = result.nodes[entry.addr].state
    adv = result.adversaries[0]
    twin = Adversary(stream_from_lines(list(adv.stream.to_lines()), sorts("cc")), adv.label,
                     delay=adv.delay)
    plain = cc.extract_isomorphism(result, entries, 0)
    assert plain.stalls == []
    assert ((), None) in st.C
    width = result.schedule.f_width(result.horizon)
    j = min(key[0][0] for key in st.f if len(key[0]) == 1 and key[0][0] < width)
    moved = adv.to_copy[elem({j}, ())]
    st.x_at_t[((), None)] = moved
    for copy in (adv, twin):
        result.adversaries[0] = copy
        got = cc.extract_isomorphism(result, entries, 0)
        assert got.stalls == [], copy is twin
        assert got.source_to_copy == plain.source_to_copy
        assert got.f_tau == plain.f_tau
        assert got.f_tau[()] != moved
