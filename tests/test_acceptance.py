"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  All checks are discrete equalities; the only
tolerances are the stated wall-clock budgets.
"""

import functools
import json
import time

import pytest

from conftest import is_frozen

from cubetree import cc, dc
from cubetree.cli import write_artifacts
from cubetree.config import config_from_dict
from cubetree.cube import all_translations, enumerate_cube_automorphisms
from cubetree.engine import ReqU, req_label, run_stages, true_path_approx
from cubetree.structure import elem
from cubetree.trees import tree_from_lists
from cubetree.verify import (
    check_isomorphism,
    check_labeling,
    check_trace_invariants,
    ideal_tree_snapshot,
    path_from_automorphism,
    automorphism_from_paths,
)


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL {desc}")
                raise
            print(f"[criterion {num:2d}] PASS {desc}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Shared runs.

CC_FAITHFUL = {
    "variant": "cc",
    "horizon": 300,
    "universe": {"rate": 40, "cap": 4, "f_rate": 60, "f_cap": 2},
    "tree": {"nodes": [[0], [1], [0, 0], [0, 1]]},
    "adversaries": [
        {"kind": "faithful", "label": "ident", "delay": 1},
        {
            "kind": "faithful",
            "label": "perm",
            "delay": 3,
            "permutation": {"kind": "block_rotate", "block": 8, "shift": 3},
        },
    ],
    "true_path": {"threshold": 3},
}

CC_DEFECTIVE = {
    "variant": "cc",
    "horizon": 300,
    "universe": {"rate": 40, "cap": 4, "f_rate": 60, "f_cap": 2},
    "tree": {"nodes": [[0], [1], [0, 0], [0, 1]]},
    "adversaries": [
        {
            "kind": "faithful",
            "label": "defect",
            "delay": 1,
            "defects": [{"kind": "omit_label", "n": 0, "sigma": [0]}],
        }
    ],
    "true_path": {"threshold": 3},
}

DC_MODULUS = {
    "variant": "dc",
    "horizon": 500,
    "universe": {"rate": 100, "cap": 3, "f_rate": 150, "f_cap": 2},
    "mothers": 2,
    "phi": {
        "range": 10,
        "default": {"kind": "until", "s0": 12},
        "rules": {"6": {"kind": "until", "s0": 30}, "8": {"kind": "never"}},
    },
    "adversaries": [],
    "true_path": {"threshold": 3},
}

DC_DIAG = {
    "variant": "dc",
    "horizon": 240,
    "universe": {"rate": 60, "cap": 3, "f_rate": 100, "f_cap": 2},
    "mothers": 2,
    "phi": {"range": 10, "default": {"kind": "until", "s0": 12}},
    "functionals": [
        {"mother": 0, "round": 4, "kind": "length_threshold", "min_len": 3, "value": 0}
    ],
    "adversaries": [],
    "true_path": {"threshold": 3},
}


def timed_run(data):
    t0 = time.monotonic()
    result = run_stages(config_from_dict(data))
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def cc_faithful():
    return timed_run(CC_FAITHFUL)


@pytest.fixture(scope="module")
def cc_defective():
    return timed_run(CC_DEFECTIVE)


@pytest.fixture(scope="module")
def dc_modulus():
    return timed_run(DC_MODULUS)


@pytest.fixture(scope="module")
def dc_diag():
    return timed_run(DC_DIAG)


def tp(result):
    return true_path_approx(result, threshold=3)


# ---------------------------------------------------------------------------
# 1. Cube automorphisms are exactly the translations.


@criterion(1, "cube automorphisms are exactly the translations, d <= 4")
def test_criterion_1_cube_automorphisms():
    t0 = time.monotonic()
    for d in (0, 1, 2, 3):
        found = enumerate_cube_automorphisms(d)
        assert len(found) == 2 ** d
        assert found == all_translations(d)
    found4 = enumerate_cube_automorphisms(4)
    assert len(found4) == 16
    assert found4 == all_translations(4)
    assert time.monotonic() - t0 < 10


# ---------------------------------------------------------------------------
# 2. Orbit-coding claim round trip on hand-built trees.


def claim_trees():
    # (tree, sigma, target colors)
    t1 = tree_from_lists([[0]], branches=[((0,), (2,))])
    t2 = tree_from_lists([[0], [1]], branches=[((0,), (2,)), ((1,), (3,))])
    t3 = tree_from_lists([[0], [0, 2]], branches=[((0, 2), (1,))])
    t4 = tree_from_lists(
        [[0], [0, 2], [0, 3]],
        branches=[((0, 2), (1,)), ((0, 3), (0,))],
    )
    t5 = tree_from_lists([[1], [1, 1]], branches=[((1, 1, 4), (4,))])
    return [
        (t1, (), {0}),
        (t2, (), {0, 1}),
        (t3, (0,), {2}),
        (t4, (0,), {2, 3}),
        (t5, (1, 1), {4}),
    ]


@criterion(2, "orbit-coding round trip on five hand-built trees, depth 12")
def test_criterion_2_claim_round_trip():
    t0 = time.monotonic()
    cases = claim_trees()
    assert len(cases) >= 5
    for tree, sigma, colors in cases:
        paths = {}
        for i in sorted(colors):
            branch = tree.branch_through(sigma + (i,))
            assert branch is not None
            paths[i] = branch
        g = automorphism_from_paths(tree, paths, colors, sigma)
        snap = ideal_tree_snapshot(tree, depth=len(sigma) + 13, label_count=6)
        report = check_isomorphism(g, snap, snap)
        assert report.ok, report.failures()
        chain = path_from_automorphism(g, sigma, 12, tree=tree)
        assert len(chain) >= 11
        recovered = chain[-1]
        followed = paths[min(colors)]
        assert followed.has_prefix(recovered)
    assert time.monotonic() - t0 < 10


# ---------------------------------------------------------------------------
# 3. Faithful adversaries: infinite outcomes and extracted isomorphisms.


@criterion(3, "faithful copies: cofinal infinite outcomes and extracted isomorphism")
def test_criterion_3_faithful_matching(cc_faithful):
    result, run_time = cc_faithful
    t0 = time.monotonic()
    assert len(cc.compute_Q(result, tp(result)).phi) == 5
    entries = tp(result)
    m_entries = [e for e in entries if e.label in ("M0", "M1")]
    assert len(m_entries) == 2
    for entry in m_entries:
        node = result.nodes[entry.addr]
        inf_stages = [s for s, tok in node.outcomes if tok.startswith("i")]
        assert len(inf_stages) >= 20, entry.label
    for idx in (0, 1):
        extracted = cc.extract_isomorphism(result, entries, idx)
        assert not extracted.stalls
        report = check_isomorphism(
            extracted, result.snapshot(), result.adversaries[idx], result.horizon
        )
        assert report.ok, report.failures()
    assert run_time + time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# 4. Defective adversary strands its matching strategy.


@criterion(4, "defective copy: matcher settles on a constant finite outcome early")
def test_criterion_4_defective(cc_defective):
    result, run_time = cc_defective
    t0 = time.monotonic()
    node = next(
        n for n in result.nodes.values()
        if n.req is not None and req_label(n.req) == "M0" and n.visits
    )
    inf_stages = [s for s, tok in node.outcomes if tok.startswith("i")]
    assert inf_stages and inf_stages[-1] < result.horizon // 2
    tail = {tok for s, tok in node.outcomes if s > inf_stages[-1]}
    assert len(tail) == 1 and not next(iter(tail)).startswith("i")
    assert run_time + time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# 5. Trace invariants on every generated trace.


@criterion(5, "trace invariant suite: zero failures on every generated trace")
def test_criterion_5_invariants(cc_faithful, cc_defective, dc_modulus, dc_diag):
    for result, _t in (cc_faithful, cc_defective, dc_modulus, dc_diag):
        report = check_trace_invariants(result)
        assert report.ok, (result.variant, report.failures())


# ---------------------------------------------------------------------------
# 6. Labeling claim between horizons 150 and 300.


@criterion(6, "labeling: chosen strings keep growing, unchosen tops freeze")
def test_criterion_6_labeling(cc_faithful):
    result, _t = cc_faithful
    report = check_labeling(result, tp(result), 150, 300)
    assert report.ok, report.failures()
    names = [r.name for r in report.results]
    assert names.count("labels-grow") == 5
    assert names.count("top-label-stable") >= 10


# ---------------------------------------------------------------------------
# 7. Modulus property for the extracted paths.


@criterion(7, "modulus: predicate never fires past the summed path value")
def test_criterion_7_modulus(dc_modulus):
    result, run_time = dc_modulus
    t0 = time.monotonic()
    phi = result.cfg.phi
    paths = dc.extract_paths(result, tp(result))
    xs, ys = sorted(paths.f), sorted(paths.g)
    triples = [
        (i, j, n)
        for i in xs
        for j in ys
        if i < j
        for n in range(j + 1, phi.range_n)
        if paths.value(0, i, n) is not None and paths.value(1, j, n) is not None
    ]
    assert triples
    checked = 0
    for i, j, n in triples:
        verdict = dc.modulus_check(paths, i, j, n, phi, result.horizon)
        if verdict.applicable:
            checked += 1
            assert verdict.holds, (i, j, n)
    assert checked >= len(triples) - len(phi.declared_Z())
    assert run_time + time.monotonic() - t0 < 120


# ---------------------------------------------------------------------------
# 8. Diagonalization disagreement at finite scale.


@criterion(8, "diagonalization: frozen witness disagrees with the functional")
def test_criterion_8_diagonalization(dc_diag):
    result, _t = dc_diag
    entries = tp(result)
    u_entry = next(
        e for e in entries
        if isinstance(result.nodes[e.addr].req, ReqU)
        and is_frozen(result.nodes[e.addr])
    )
    assert u_entry.outcome == "1"
    u_node = result.nodes[u_entry.addr]
    x = u_node.state.x
    assert x in result.zprime
    paths = dc.extract_paths(result, entries)
    oracle = []
    for psi in u_node.state.C:
        prefix = (paths.f if psi.req.a == 0 else paths.g)[psi.state.v]
        stolen = u_node.state.stolen[psi]
        assert prefix[: len(stolen)] == stolen
        oracle.append(prefix)
    functional = result.cfg.functionals[u_node.req.e].functional
    halted, value, _use = functional.evaluate(tuple(oracle), x, steps=result.horizon)
    assert halted and value == 0
    # The functional claims the witness stays out; the construction put it in.
    assert (value == 0) and (x in result.zprime)


# ---------------------------------------------------------------------------
# 9. Determinism: byte-identical artifacts on replay.


@criterion(9, "determinism: every run config replays byte-for-byte")
def test_criterion_9_determinism(tmp_path, cc_faithful, cc_defective, dc_modulus, dc_diag):
    for name, (data, (result, _t)) in {
        "cc_faithful": (CC_FAITHFUL, cc_faithful),
        "cc_defective": (CC_DEFECTIVE, cc_defective),
        "dc_modulus": (DC_MODULUS, dc_modulus),
        "dc_diag": (DC_DIAG, dc_diag),
    }.items():
        first, second = tmp_path / name, tmp_path / f"{name}.rerun"
        write_artifacts(result, first)
        rerun = run_stages(config_from_dict(json.loads(json.dumps(data))))
        write_artifacts(rerun, second)
        for artifact in ("trace.log", "snapshot.log", "meta.json"):
            assert (first / artifact).read_bytes() == (second / artifact).read_bytes(), (
                name, artifact)


# ---------------------------------------------------------------------------
# 10. Dimension-two gadget.


@criterion(10, "dimension-two gadget: identical reducts, exact parity facts")
def test_criterion_10_gadget(cc_faithful):
    result, _t = cc_faithful
    snap = result.snapshot()
    b0, b1 = cc.extend_to_dimension_two(snap)
    assert b0.reduct_lines() == b1.reduct_lines()
    assert b0.dump_lines() != b1.dump_lines()
    for fset in snap.fsets:
        even = len(fset) % 2 == 0
        assert b0.holds_P_new("aeven", elem(fset, ())) == even
        assert b0.holds_P_new("aodd", elem(fset, ())) == (not even)
    assert not b0.holds_P_new("aeven", elem((), (0,)))
