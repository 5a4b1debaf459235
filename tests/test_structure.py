import pytest
from hypothesis import given, strategies as st

from cubetree.structure import (
    LabelStore,
    Snapshot,
    UElem,
    UndefinedLabel,
    UniverseSchedule,
    VariantMismatch,
    birth_stage,
    elem,
    format_elem,
    holds_E,
    holds_P,
    holds_W,
    snapshot_from_declarations,
    strings_of_width,
)
from cubetree.verify import check_isomorphism


def test_element_syntax_round_trip():
    assert format_elem(elem((), ())) == "{}@<>"
    assert format_elem(elem({2, 0}, (1, 4))) == "{0,2}@<1,4>"
    assert format_elem(elem({3}, (0,), sort=1)) == "{3}@<0>#1"
    assert format_elem(elem((), (), sort=0)) == "{}@<>#0"
    assert format_elem(UElem(0)) == "u0"
    assert format_elem(UElem(1)) == "u1"


def test_holds_W():
    assert holds_W((1,), None, elem((), (1,)))
    assert not holds_W((1,), None, elem((), (1, 2)))
    assert holds_W((), 1, elem((), (), sort=1))
    assert not holds_W((), 0, elem((), (), sort=1))
    assert not holds_W((), 0, UElem(0))
    with pytest.raises(VariantMismatch):
        holds_W((), 0, elem((), ()))


def test_holds_P_single_sorted():
    sigma = (2,)
    assert holds_P(elem((), sigma), elem((), sigma + (5,)))
    assert not holds_P(elem({5}, sigma), elem((), sigma + (5,)))
    assert holds_P(elem({5}, sigma), elem({7}, sigma + (5,)))
    assert not holds_P(elem((), sigma), elem((), sigma))
    assert not holds_P(elem((), sigma), elem((), sigma + (5, 6)))


def test_holds_P_u_pair():
    assert holds_P(UElem(0), elem((), (), sort=0))
    assert not holds_P(UElem(1), elem((), (), sort=0))
    assert holds_P(UElem(1), elem({4}, (), sort=0))
    assert not holds_P(UElem(0), elem((), (), sort=1))
    assert not holds_P(UElem(0), elem((), (1,), sort=0))
    assert not holds_P(elem((), (), sort=0), UElem(0))


def test_holds_E():
    assert holds_E(3, elem((), (1,)), elem({3}, (1,)))
    assert not holds_E(3, elem((), (1,)), elem({3}, (2,)))
    assert not holds_E(3, elem((), (1,), 0), elem({3}, (1,), 1))
    assert not holds_E(2, elem((), (1,)), elem({3}, (1,)))


def test_birth_stage():
    assert birth_stage(()) == 1
    assert birth_stage((0,)) == 2
    assert birth_stage((2, 2)) == 3
    assert birth_stage((7,)) == 8


def test_strings_of_width():
    assert strings_of_width(0) == []
    assert strings_of_width(1) == [()]
    assert set(strings_of_width(2)) == {(), (0,), (1,)}
    assert len(strings_of_width(3)) == 13
    assert len(strings_of_width(4)) == 85


def test_schedule_widths():
    sched = UniverseSchedule(rate=10, cap=3)
    assert sched.width(0) == 0
    assert sched.width(1) == 1
    assert sched.width(9) == 1
    assert sched.width(20) == 2
    assert sched.width(300) == 3
    literal = UniverseSchedule(rate=1, cap=None)
    assert literal.width(5) == 5
    assert set(literal.base_strings(2)) == {(), (0,), (1,)}


# -- growth semantics, traced by hand from the declaration procedure --------


def grown_store(times, stages=None, sort=None, variant="cc"):
    store = LabelStore(variant=variant)
    stages = stages or list(range(1, times + 1))
    for s in stages[:times]:
        store.grow((5,), sort, s)
    return store


def test_first_grow_declares_only_base_label_on_empty():
    store = grown_store(1, stages=[4])
    e_empty = elem((), (5,))
    assert store.labels(e_empty) == [0]
    assert store.label_stamp(0, e_empty) == 4
    assert store.labels(elem({1}, (5,))) == []


def test_second_grow_reaches_label_one():
    store = grown_store(2, stages=[4, 9])
    e_empty = elem((), (5,))
    assert store.labels(e_empty) == [0, 1]
    assert store.label_stamp(1, e_empty) == 9
    assert store.labels(elem({1}, (5,))) == []


def test_third_grow_spills_onto_nonempty_vertices():
    store = grown_store(3, stages=[4, 9, 11])
    assert store.labels(elem((), (5,))) == [0, 1, 2]
    # F inside the stage bound gets the base label only.
    assert store.labels(elem({1}, (5,))) == [0]
    assert store.label_stamp(0, elem({1}, (5,))) == 11
    # F outside the bound of every grow stays bare.
    assert store.labels(elem({12}, (5,))) == []


def test_grow_bound_is_strict():
    store = grown_store(3, stages=[4, 9, 11])
    assert store.labels(elem({10}, (5,))) == [0]
    assert store.labels(elem({11}, (5,))) == []


@given(st.integers(min_value=0, max_value=12))
def test_label_lag_two_behind(g):
    store = grown_store(g)
    empty_labels = store.labels(elem((), (5,)))
    small_f = store.labels(elem({0}, (5,)))
    assert len(empty_labels) == g
    assert len(small_f) == max(0, g - 2)


def test_grow_after_direct_declaration_fills_from_top():
    store = LabelStore()
    store.declare(0, elem((), (3,)), 2)
    store.grow((3,), None, 6)
    # pre-top 0, so the grow reaches label 1.
    assert store.labels(elem((), (3,))) == [0, 1]
    assert store.label_stamp(0, elem((), (3,))) == 2
    assert store.label_stamp(1, elem((), (3,))) == 6


def test_duplicate_direct_declaration_ignored():
    store = LabelStore()
    assert store.declare(0, elem((), (3,)), 2)
    assert not store.declare(0, elem((), (3,)), 7)
    assert store.label_stamp(0, elem((), (3,))) == 2


def test_n_sigma_stamps_are_strict():
    store = grown_store(2, stages=[4, 9])
    assert store.n_sigma((5,), None, 5) == 0
    assert store.n_sigma((5,), None, 10) == 1
    with pytest.raises(UndefinedLabel):
        store.n_sigma((5,), None, 4)
    with pytest.raises(UndefinedLabel):
        store.n_sigma((7,), None, 10)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
def test_n_sigma_monotone(a, b):
    store = grown_store(4, stages=[2, 3, 5, 8])
    s0, s1 = min(a, b) + 2, max(a, b) + 2
    assert store.n_sigma((5,), None, s0) <= store.n_sigma((5,), None, s1)


def test_snapshot_monotone_views():
    store = grown_store(3, stages=[2, 5, 9])
    strings = [((5,), None)]
    fsets = [frozenset(), frozenset({1})]
    early = Snapshot("cc", 5, store, tuple(strings), tuple(fsets))
    late = Snapshot("cc", 9, store, tuple(strings), tuple(fsets))
    assert early.labels(elem((), (5,))) == [0, 1]
    assert late.labels(elem((), (5,))) == [0, 1, 2]
    for stamp, n, e in list(early.declarations()):
        assert (stamp, n, e) in list(late.declarations())


def test_variant_checks():
    store = LabelStore(variant="cc")
    with pytest.raises(VariantMismatch):
        store.grow((1,), 0, 1)
    dstore = LabelStore(variant="dc")
    with pytest.raises(VariantMismatch):
        dstore.grow((1,), None, 1)


# -- declared snapshots ------------------------------------------------------


def ideal_snapshot(extra=(), drop=()):
    rows = [
        (1, 0, elem((), ())),
        (2, 0, elem((), (0,))),
        (3, 1, elem((), ())),
        (3, 0, elem({0}, ())),
    ]
    rows = [row for row in rows if row not in drop] + list(extra)
    return snapshot_from_declarations(
        "cc", rows, [((), None), ((0,), None)], [frozenset(), frozenset({0})], 5
    )


# A map lifts to the carriers of the long form (one carrier per declaration
# S_n(e), sent to the carrier of S_n(g(e))) exactly when the isomorphism check
# finds every source label at the image (respects-S) and no other (sound).


def test_carrier_lift_identity_passes():
    snap = ideal_snapshot()
    report = check_isomorphism(lambda e: e, snap, snap)
    assert report.ok, report.failures()


def test_carrier_lift_missing_declaration_fails_respects_S():
    snap = ideal_snapshot()
    smaller = ideal_snapshot(drop=[(3, 1, elem((), ()))])
    report = check_isomorphism(lambda e: e, snap, smaller)
    assert [r.name for r in report.failures()] == ["respects-S"]


def test_carrier_lift_extra_declaration_fails_sound():
    snap = ideal_snapshot()
    larger = ideal_snapshot(extra=[(4, 0, elem({0}, (0,)))])
    report = check_isomorphism(lambda e: e, snap, larger)
    assert [r.name for r in report.failures()] == ["sound"]


def test_snapshot_dump_lines():
    snap = ideal_snapshot()
    lines = snap.dump_lines()
    assert lines[0] == "1 0 {}@<>"
    assert "3 0 {0}@<>" in lines


@pytest.mark.parametrize("name, horizon, outside, total",
                         [("cc_faithful.json", 80, 15, 1124), ("dc_diagonal.json", 40, 65, 1405)])
def test_dump_rows_outside_the_window_are_on_strings_chosen_before_birth(
        name, horizon, outside, total):
    """The dump filters rows by stage and vertex window only, so a string
    chosen before its birth stage has rows before it enters `strings`.  The
    keys of those rows are exactly the chosen keys whose string enters after
    the snapshot's stage."""
    from test_verify import shipped_config

    from cubetree.engine import run_stages

    result = run_stages(shipped_config(name, horizon))
    snap = result.snapshot()
    rows = list(snap.declarations())
    window = set(snap.strings)
    keys = [(e.sigma, e.sort) for _stage, _n, e in rows]
    late = [key for key in keys if key not in window]
    assert (len(late), len(rows)) == (outside, total)
    assert set(late) == {key for key in result.chosen if result.entered[key[0]] > snap.stage}
