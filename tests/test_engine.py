import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import cc_config, faithful

from cubetree import cc, dc
from cubetree.config import config_from_dict
from cubetree.engine import (
    Engine,
    Node,
    ReqDaughter,
    ReqIdle,
    ReqU,
    check_left_kill,
    format_addr,
    outcome_key,
    req_label,
    run_stages,
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


def test_stage_loop_shape():
    result = run_stages(cc_config(horizon=5))
    per_stage = {}
    for ev in result.trace:
        if ev[0] == "visit":
            per_stage.setdefault(ev[1], []).append(ev[2].addr)
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
    ok, locus = check_left_kill(result.trace)
    assert ok, locus


def root_outcomes(tokens):
    """Outcome events of one root node, token k at stage k + 1, each
    visiting the root's child."""
    root = Node(())
    return [("outcome", s, root, token) for s, token in enumerate(tokens, 1)]


def test_left_kill_negative_control():
    # Fresh visits right of old ones are fine; re-visiting after an
    # intervening left visit is the violation.
    assert check_left_kill(root_outcomes(["0", "ii", "ii"])) == (True, None)
    assert check_left_kill(root_outcomes(["0", "ii", "0"])) == (
        False, "stage 3: visited /0 after a left neighbor")
    # At the bottom of its stage path (depth = stage) an outcome visits no
    # child, so it neither kills nor revisits.
    child = Node(("0",))
    assert check_left_kill([("outcome", 1, child, "0"), ("outcome", 2, child, "1"),
                            ("outcome", 3, child, "0")]) == (True, None)


def test_single_stage_trace_left_kill():
    result = run_stages(cc_config(horizon=1))
    ok, _ = check_left_kill(result.trace)
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


DC_DIAGONAL = json.loads((Path(__file__).resolve().parent.parent
                          / "configs" / "dc_diagonal.json").read_text(encoding="utf-8"))


def test_first_fit_returns_an_entry_refused_earlier_in_the_stage():
    """The lead passes only entries on the path.  An entry that `allowed`
    refused at one typing is still the first fit at a later typing of the
    same stage path, once `allowed` accepts it."""
    from reference_engine import reference_first_fit

    from cubetree.engine import ReqM, ReqN

    engine = Engine(cc_config(horizon=5, adversaries=[faithful(), faithful(label="b")]))
    path = []

    def fit(allowed=None):
        req = engine.first_fit(allowed)
        on_path = {node.req for node in path}
        assert req == reference_first_fit(
            engine, lambda r: r not in on_path and (allowed is None or allowed(r)))
        node = Node(("o",) * len(path))
        node.req = req
        engine.path.push(node, "o")
        path.append(node)
        return req

    assert fit() == ReqN(())
    assert isinstance(fit(lambda req: not isinstance(req, ReqM)), ReqN)
    assert fit() == ReqM(0)


# -- the universe record ---------------------------------------------------------

def shipped(name):
    return json.loads((Path(__file__).resolve().parent.parent / "configs" / name)
                      .read_text(encoding="utf-8"))


def universe_runs():
    from test_acceptance import DC_MODULUS

    return [
        ("cc_faithful@80", dict(shipped("cc_faithful.json"), horizon=80)),
        ("dc_diagonal@40", dict(DC_DIAGONAL, horizon=40)),
        ("DC_MODULUS@120", dict(DC_MODULUS, horizon=120)),
    ]


@pytest.mark.parametrize("data", [d for _n, d in universe_runs()],
                         ids=[n for n, _d in universe_runs()])
def test_universe_strings_match_the_slice_formula(data):
    """The stage-t slice is the width's base strings plus every chosen
    string from its birth stage on, in ladder order; the strings entering
    at t are those of the stage-t slice missing from the stage t-1 one."""
    from cubetree.structure import birth_stage, ladder_key

    result = run_stages(config_from_dict(data))
    chosen = {sigma for sigma, _sort in result.chosen}
    previous = set()
    for t in range(result.horizon + 1):
        expected = sorted(
            set(result.schedule.base_strings(t))
            | {sigma for sigma in chosen if birth_stage(sigma) <= t},
            key=ladder_key,
        )
        assert result.universe_strings(t) == expected, t
        assert result.entering(t) == [sigma for sigma in expected
                                      if sigma not in previous], t
        previous = set(expected)


# -- typed strategy state -----------------------------------------------------------

def state_runs():
    from test_acceptance import DC_DIAG

    return [
        ("cc_faithful", shipped("cc_faithful.json")),
        ("dc_diagonal@80", dict(DC_DIAGONAL, horizon=80)),
        ("DC_DIAG", DC_DIAG),
    ]


@pytest.mark.parametrize("data", [d for _n, d in state_runs()],
                         ids=[n for n, _d in state_runs()])
def test_every_typed_node_holds_the_record_of_its_kind(data):
    """The strategies read each other's records unguarded: every typed node
    holds the record of its kind, save Idle nodes, which hold none.  A
    diagonalizer takes its 1-outcome exactly from the stage it freezes on."""
    from cubetree.engine import ReqM, ReqMother, ReqN
    from cubetree.match import MatcherState

    records = {ReqN: cc.TreeState, ReqM: MatcherState, ReqMother: dc.MotherState,
               ReqDaughter: dc.DaughterState, ReqU: dc.DiagonalizerState}
    result = run_stages(config_from_dict(data))
    freezes = {ev[2].addr: ev[1] for ev in result.trace if ev[0] == "ufreeze"}
    held = set()
    for node in result.nodes.values():
        assert node.req is not None and node.visits, node
        if isinstance(node.req, ReqIdle):
            assert node.state is None, node
            assert all(token == "o" for _s, token in node.outcomes), node
            continue
        assert type(node.state) is records[type(node.req)], node
        held.add(type(node.state))
        if isinstance(node.req, ReqU):
            froze = freezes.get(node.addr)
            assert (node.state.stolen is not None) == (froze is not None), node
            assert [token for _s, token in node.outcomes] == [
                "1" if froze is not None and s >= froze else "0"
                for s in node.visits], node
    expected = ({cc.TreeState} if result.variant == "cc"
                else {dc.MotherState, dc.DaughterState, dc.DiagonalizerState})
    assert held == expected | ({MatcherState} if result.adversaries else set())


# -- left-kill against its stage-path form and requirement labels ---------------

def reference_stage_paths(trace):
    """Visited node addresses per stage, in visit order: Engine.stage_paths
    as it stood."""
    paths = []
    for ev in trace:
        if ev[0] == "stage":
            paths.append((ev[1], []))
        elif ev[0] == "visit":
            paths[-1][1].append(ev[2].addr)
    return paths


def reference_check_left_kill(stage_paths):
    """check_left_kill as first written: each parent's children keyed by a
    copy of the parent's address, and dead addresses built as
    parent + (token,)."""
    dead = set()
    children = {}
    for stage, path in stage_paths:
        for addr in path:
            if addr in dead:
                return False, f"stage {stage}: visited {format_addr(addr)} after a left neighbor"
            if addr:
                parent, token = addr[:-1], addr[-1]
                seen = children.setdefault(parent, set())
                for other in seen:
                    if other != token and outcome_key(other) > outcome_key(token):
                        dead.add(parent + (other,))
                seen.add(token)
    return True, None


def sample_runs():
    return [
        ("cc_faithful@80", dict(shipped("cc_faithful.json"), horizon=80)),
        ("dc_diagonal@40", dict(DC_DIAGONAL, horizon=40)),
    ]


@pytest.fixture(scope="module", params=[d for _n, d in sample_runs()],
                ids=[n for n, _d in sample_runs()])
def sample_run(request):
    return run_stages(config_from_dict(request.param))


def test_left_kill_matches_the_reference_on_generated_paths(sample_run):
    """On a run's own trace, and with an early stage replayed after the last
    one, which revisits killed nodes.  The replayed stage's outcome events
    are built from its consecutive addresses, as the stage loop takes them."""
    trace = list(sample_run.trace)
    paths = reference_stage_paths(trace)
    assert check_left_kill(trace) == reference_check_left_kill(paths) == (True, None)
    stage = sample_run.horizon + 1
    failed = 0
    for _stage, path in paths[::7]:
        replayed = [("outcome", stage, sample_run.nodes[addr], child[-1])
                    for addr, child in zip(path, path[1:])]
        verdict = check_left_kill(trace + replayed)
        replayed_paths = paths + [(stage, path)]
        assert verdict == reference_check_left_kill(replayed_paths)
        failed += not verdict[0]
    assert failed


def engine_shaped_trace(stages):
    """The stage, visit and outcome events of walks shaped as the stage loop
    makes them: each a chain from the root, no deeper than its stage.  The
    bottom node takes an outcome only at depth = stage, where it visits no
    child."""
    nodes, trace = {}, []
    for stage, tokens, bottom in stages:
        tokens = tokens[:stage]
        path = [tuple(tokens[:k]) for k in range(len(tokens) + 1)]
        trace.append(("stage", stage))
        for addr in path:
            node = nodes.setdefault(addr, Node(addr))
            trace.append(("visit", stage, node, "Idle"))
            token = tokens[len(addr)] if len(addr) < len(tokens) else bottom
            if len(addr) < len(tokens) or len(addr) == stage:
                trace.append(("outcome", stage, node, token))
    return trace


TOKENS = ("ii", "i0", "0", "1")
walks = st.lists(st.tuples(st.integers(1, 6), st.lists(st.sampled_from(TOKENS), max_size=5),
                           st.sampled_from(TOKENS)), max_size=10)


@given(walks)
def test_left_kill_matches_the_reference_on_arbitrary_paths(stages):
    trace = engine_shaped_trace(stages)
    paths = reference_stage_paths(trace)
    assert check_left_kill(trace) == reference_check_left_kill(paths)


def test_typed_and_visit_events_carry_the_requirement_label(sample_run):
    """Each node's label is built once, when it is typed: its typed and visit
    events and its true-path entry hold that one string."""
    result = sample_run
    events = 0
    for ev in result.trace:
        if ev[0] in ("typed", "visit"):
            events += 1
            assert ev[3] == req_label(ev[2].req), ev
            assert ev[3] is ev[2].label
    assert events > len(result.nodes)
    for node in result.nodes.values():
        assert node.label == req_label(node.req), node
    entries = true_path_approx(result, threshold=result.cfg.tp_threshold,
                               window=result.cfg.tp_window)
    for entry in entries:
        assert entry.label == req_label(result.nodes[entry.addr].req)
        assert entry.label is result.nodes[entry.addr].label


# -- Idle tails: the lines over any bounds ----------------------------------------

def tail_runs():
    from test_acceptance import CC_DEFECTIVE

    return [
        ("cc_faithful@80", dict(shipped("cc_faithful.json"), horizon=80)),
        ("CC_DEFECTIVE@100", dict(CC_DEFECTIVE, horizon=100)),
        ("cc_no_copy@60", dict(shipped("cc_faithful.json"), horizon=60, adversaries=[])),
        ("dc_diagonal@40", dict(DC_DIAGONAL, horizon=40)),
    ]


@pytest.mark.parametrize("data", [d for _n, d in tail_runs()],
                         ids=[n for n, _d in tail_runs()])
def test_idle_tails_expand_to_the_reference_trace(data):
    """The lines written from the tail records over any bounds are that slice
    of all of them; `test_fixed_runs_match_the_reference` compares all of
    them, and the nodes the tails build, with the reference engine's, which
    visits every depth with one record per event.  len counts the expanded
    events, each tail record expands to one run of Idle events after its
    parent's outcome, and left-kill gives one verdict on the records and on
    the expanded events."""
    config = config_from_dict(data)
    result = run_stages(config)
    events = list(result.trace)
    assert len(result.trace) == len(events)
    lines = result.trace_lines()
    assert len(lines) == len(events)
    tails = [i for i, rec in enumerate(result.trace.records) if rec[0] == "tail"]
    assert bool(tails) == (config.variant == "cc")
    idle = [len(ev) > 2 and isinstance(ev[2], Node) and isinstance(ev[2].req, ReqIdle)
            for ev in events]
    starts = [i for i in range(1, len(events)) if idle[i] and not idle[i - 1]]
    assert len(starts) == len(tails)
    # Bounds just before a tail, at its start and inside it, ending inside
    # it, past its end and past later tails; then chunks as the artifact
    # writer takes them.
    for start in starts[::5]:
        for lo in (start - 1, start, start + 1, start + 4):
            for hi in (lo + 1, lo + 7, lo + 300, lo + 2000):
                assert result.trace_lines(lo, hi) == lines[lo:hi], (lo, hi)
    for lo in range(0, len(events), 1024):
        assert result.trace_lines(lo, lo + 1024) == lines[lo:lo + 1024], lo
    assert result.trace_lines(len(events) - 3) == lines[-3:]
    assert result.trace_lines(5, 5) == []
    assert result.trace_lines(9, 4) == []
    assert check_left_kill(result.trace.records) == check_left_kill(events) == (True, None)


def test_stage_loop_records_grow_slower_than_the_trace():
    """On CC_FAITHFUL from h=100 to h=200 the trace records grow 2.1x while
    the events they expand to grow 3.8x, as the stage paths deepen: an Idle
    tail is one record, however deep it reaches."""
    from test_acceptance import CC_FAITHFUL

    records, events = [], []
    for horizon in (100, 200):
        result = run_stages(config_from_dict(dict(CC_FAITHFUL, horizon=horizon)))
        assert len(result.trace) == len(result.trace_lines())
        records.append(len(result.trace.records))
        events.append(len(result.trace))
    assert records[1] <= 2.5 * records[0], records
    assert events[1] >= 3.5 * events[0], events


def prefix_runs():
    from test_acceptance import CC_DEFECTIVE, CC_FAITHFUL, DC_DIAG, DC_MODULUS

    return [
        ("cc_faithful 40/80", shipped("cc_faithful.json"), 40, 80),
        ("dc_diagonal 40/70", DC_DIAGONAL, 40, 70),
        ("CC_FAITHFUL 80/130", CC_FAITHFUL, 80, 130),
        ("CC_DEFECTIVE 60/100", CC_DEFECTIVE, 60, 100),
        ("DC_MODULUS 60/120", DC_MODULUS, 60, 120),
        ("DC_DIAG 60/100", DC_DIAG, 60, 100),
    ]


@pytest.mark.parametrize("data, short_h, long_h", [r[1:] for r in prefix_runs()],
                         ids=[r[0] for r in prefix_runs()])
def test_a_run_is_a_prefix_of_every_longer_run(data, short_h, long_h):
    """Stage s acts only on what stages before it made, so the run at
    horizon h is a prefix of the run at any h' > h: its trace lines and each
    copy's fact lines, and its snapshot is the longer run's at stage h.  A
    tail's depth is bounded by its stage, never by the horizon."""
    short = run_stages(config_from_dict(dict(data, horizon=short_h)))
    long = run_stages(config_from_dict(dict(data, horizon=long_h)))
    lines = short.trace_lines()
    assert long.trace_lines(0, len(lines)) == lines
    assert len(long.trace) > len(lines)
    for ours, theirs in zip(short.adversaries, long.adversaries, strict=True):
        facts = list(ours.stream.to_lines())
        assert list(theirs.stream.to_lines())[:len(facts)] == facts
    assert long.snapshot(short_h).dump_lines() == short.snapshot().dump_lines()
