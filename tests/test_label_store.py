"""Differential test of the bisecting label store against the event scans
it replaced (`ScanStore`), on random interleavings of grows and direct
declarations."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_engine import ScanStore, scan_declarations

from cubetree.structure import LabelStore, Snapshot, UndefinedLabel, elem


STRINGS = [(), (0,), (1, 0)]
# Nonempty vertices whose max lies below, at and above the stages reached.
FSETS = [frozenset(), frozenset({0}), frozenset({2}), frozenset({1, 4}),
         frozenset({7}), frozenset({12}), frozenset({30})]

ops = st.lists(
    st.tuples(
        st.sampled_from(["grow", "grow", "declare"]),
        st.integers(0, 2),  # string index
        st.integers(0, 3),  # stage step
        st.integers(0, 6),  # label of a declaration
        st.sampled_from(FSETS),
    ),
    max_size=25,
)


def build(variant, n_strings, steps):
    sort = None if variant == "cc" else 1
    store, ref = LabelStore(variant=variant), ScanStore()
    stage = 1
    for kind, idx, step, n, fset in steps:
        stage += step
        sigma = STRINGS[idx % n_strings]
        if kind == "grow":
            assert store.grow(sigma, sort, stage).pre_top == ref.grow(sigma, sort, stage).pre_top
        else:
            e = elem(fset, sigma, sort)
            assert store.declare(n, e, stage) == ref.declare(n, e, stage)
    return store, ref, sort, stage


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["cc", "dc"]), st.integers(2, 3), ops)
def test_label_queries_match_scan(variant, n_strings, steps):
    store, ref, sort, last = build(variant, n_strings, steps)
    bounds = [None, *range(0, last + 3)]
    for sigma in STRINGS[:n_strings]:
        for fset in FSETS:
            e = elem(fset, sigma, sort)
            for b in bounds:
                assert store.top_label(e, before=b) == ref.top_label(e, before=b)
                assert store.labels(e, upto=b) == ref.labels(e, upto=b)
                for n in range(10):
                    assert store.label_stamp(n, e, before=b) == ref.label_stamp(n, e, before=b)
        for b in range(0, last + 3):
            assert n_sigma(store, sigma, sort, b) == n_sigma(ref, sigma, sort, b)
    for b in range(0, last + 2):
        assert store.relabelled(b) == ref.relabelled(b)
        strings = tuple((sigma, sort) for sigma in STRINGS[:n_strings])
        snap = Snapshot(variant, b, store, strings, tuple(FSETS))
        assert list(snap.declarations()) == scan_declarations(ref, b, FSETS)
    assert list(store.declaration_events()) == ref.declaration_events()


def n_sigma(store, sigma, sort, s):
    """store.n_sigma, or None where it raises UndefinedLabel."""
    try:
        return store.n_sigma(sigma, sort, s)
    except UndefinedLabel:
        return None


def test_grow_at_a_lower_stage_raises():
    store = LabelStore()
    store.grow((5,), None, 4)
    store.grow((5,), None, 4)
    store.grow((6,), None, 2)  # another string keeps its own order
    with pytest.raises(ValueError):
        store.grow((5,), None, 3)


def as_given(sigma, how):
    """sigma as a caller may hand it to grow: the same object, an equal
    new tuple, or a list."""
    return sigma if how == 0 else tuple(list(sigma)) if how == 1 else list(sigma)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["cc", "dc"]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2),
                          st.integers(0, 2), st.booleans()), max_size=30))
def test_interned_grows_match_scan_whatever_object_is_given(variant, steps):
    """Grows find a key's record by the id of the string object it last
    grew with, else by value.  Whatever object a grow is handed, and in
    either sort of a two-sorted store, every pre-top equals the rescanning
    reference's, and each grown key is filed once per sort, under an object
    its record still holds."""
    sorts = [None] if variant == "cc" else [0, 1]
    store, ref = LabelStore(variant=variant), ScanStore()
    stage = 1
    for idx, sort_idx, how, step, declare in steps:
        stage += step
        sigma, sort = STRINGS[idx], sorts[sort_idx % len(sorts)]
        if declare:
            e = elem((), sigma, sort)
            assert store.declare(0, e, stage) == ref.declare(0, e, stage)
        ev = store.grow(as_given(sigma, how), sort, stage)
        assert ev.pre_top == ref.grow(sigma, sort, stage).pre_top
        assert ev.sigma == sigma and ev.sort == sort
    for sort in sorts:
        grown = {key for key in ref.events if key[1] == sort}
        filed = store._interned[sort]
        assert len(filed) == len(grown)
        assert all(id(rec.sigma) == x for x, rec in filed.items())
        assert {(rec.sigma, sort) for rec in filed.values()} == grown
