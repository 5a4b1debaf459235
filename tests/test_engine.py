import pytest

from conftest import cc_config, faithful

from cubetree.engine import (
    Engine,
    check_left_kill,
    outcome_key,
    parse_addr,
    req_label,
    run_stages,
    strictly_left,
    true_path_approx,
)


def test_outcome_order():
    # isomorphism strategies: ii < ... < i1 < i0 < ... < 2 < 1 < 0
    assert outcome_key("ii") < outcome_key("i5") < outcome_key("i0")
    assert outcome_key("i0") < outcome_key("3") < outcome_key("0")
    # daughters: i < ... < 1 < 0
    assert outcome_key("i") < outcome_key("2") < outcome_key("0")
    # diagonalizers: 1 < 0
    assert outcome_key("1") < outcome_key("0")


def test_strictly_left():
    assert strictly_left(("o", "ii"), ("o", "0"))
    assert not strictly_left(("o",), ("o", "0"))  # prefix, not left
    assert not strictly_left(("o", "0"), ("o", "0"))
    assert strictly_left(("o", "1", "x"), ("o", "0"))


def test_stage_loop_shape():
    result = run_stages(cc_config(horizon=5))
    per_stage = {}
    for ev in result.trace:
        if ev[0] == "visit":
            per_stage.setdefault(ev[1], []).append(parse_addr(ev[2]))
    for s, visits in per_stage.items():
        assert len(visits) == s + 1
        assert [len(a) for a in visits] == list(range(s + 1))


def test_root_is_tree_root_requirement():
    result = run_stages(cc_config(horizon=3))
    assert req_label(result.nodes[()].req) == "N<>"


def test_root_string_grows_every_stage():
    from cubetree.structure import elem

    result = run_stages(cc_config(horizon=7))
    assert result.store.labels(elem((), ())) == list(range(7))


def test_g_covers_unchosen_base_strings():
    from cubetree.structure import elem

    result = run_stages(cc_config(horizon=6))
    # width reaches 2 at stage 2: strings (0,) and (1,) get the base label.
    assert result.store.label_stamp(0, elem((), (0,))) == 2
    assert result.store.label_stamp(0, elem((), (1,))) == 2
    # the root is chosen, so its base label comes from growth at stage 1.
    assert result.store.label_stamp(0, elem((), ())) == 1


def test_fresh_choices_exceed_stage_and_are_distinct():
    result = run_stages(cc_config(horizon=10))
    chosen = [
        (sigma, records[0][1])
        for (sigma, _sort), records in result.chosen.items()
        if sigma != ()
    ]
    assert chosen
    seen = set()
    for sigma, stage in chosen:
        m = sigma[-1]
        assert m > stage
        assert m not in seen
        seen.add(m)


def test_choose_once_in_single_sorted_runs():
    result = run_stages(cc_config(horizon=12))
    for records in result.chosen.values():
        assert len(records) == 1


def test_determinism():
    r1 = run_stages(cc_config(horizon=10, adversaries=[faithful()]))
    r2 = run_stages(cc_config(horizon=10, adversaries=[faithful()]))
    assert r1.trace_lines() == r2.trace_lines()
    assert r1.snapshot().dump_lines() == r2.snapshot().dump_lines()


def test_left_kill_on_generated_trace():
    result = run_stages(cc_config(horizon=12, adversaries=[faithful()]))
    ok, locus = check_left_kill(result.stage_paths())
    assert ok, locus


def test_left_kill_negative_control():
    # Fresh visits right of old ones are fine; re-visiting after an
    # intervening left visit is the violation.
    legal = [
        (1, [(), ("0",)]),
        (2, [(), ("ii",)]),
        (3, [(), ("ii",)]),
    ]
    ok, _ = check_left_kill(legal)
    assert ok
    corrupted = [
        (1, [(), ("0",)]),
        (2, [(), ("ii",)]),
        (3, [(), ("0",)]),
    ]
    ok, locus = check_left_kill(corrupted)
    assert not ok
    assert "stage 3" in locus


def test_single_stage_trace_left_kill():
    result = run_stages(cc_config(horizon=1))
    ok, _ = check_left_kill(result.stage_paths())
    assert ok


def test_true_path_basics():
    result = run_stages(cc_config(horizon=12))
    entries = true_path_approx(result, threshold=3)
    assert entries[0].label == "N<>"
    assert entries[0].outcome == "o"
    # Every tree strategy on the path has the single outcome.
    for e in entries:
        if e.label.startswith("N<"):
            assert e.outcome == "o"


def test_true_path_counts_reported():
    result = run_stages(cc_config(horizon=8))
    entries = true_path_approx(result, threshold=2)
    assert all(e.visits >= sum(e.counts.values()) for e in entries)


def test_m_first_visit_infinite_outcome():
    result = run_stages(cc_config(horizon=4, adversaries=[faithful()]))
    m_addr = next(
        addr for addr, node in result.nodes.items()
        if node.req is not None and req_label(node.req) == "M0"
    )
    node = result.nodes[m_addr]
    first_stage, first_token = node.outcomes[0]
    assert first_token in ("ii", "i0")


def test_config_horizon_guard():
    with pytest.raises(Exception):
        Engine(cc_config(horizon=0))


def test_cc_ordering_constraints():
    from cubetree import cc
    from cubetree.engine import ReqN

    config = cc_config(adversaries=[faithful(), faithful(label="b")])
    ordering = list(cc.ordering_iter(config))
    assert isinstance(ordering[0], ReqN) and ordering[0].pi == ()
    pos = {req: k for k, req in enumerate(ordering)}
    for req in ordering:
        if isinstance(req, ReqN) and req.pi:
            assert pos[ReqN(req.pi[:-1])] < pos[req]
    labels = [req_label(r) for r in ordering]
    assert labels.count("M0") == 1 and labels.count("M1") == 1
