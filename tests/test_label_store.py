"""Differential test of the bisecting label store against the event scans
it replaced, on random interleavings of grows and direct declarations."""

import pytest
from hypothesis import given, settings, strategies as st

from cubetree.structure import CubeElem, GrowEvent, LabelStore, Snapshot, elem


class ScanStore:
    """Reference: every query rescans the string's whole event list."""

    def __init__(self):
        self.events = {}  # (sigma, sort) -> [(stage, seq, pre_top)]
        self.direct = {}  # element -> {n: stage}
        self.direct_order = []  # (stage, seq, n, element)
        self.seq = 0

    def grows(self, sigma, sort):
        return [GrowEvent(stage, pre_top, sigma, sort)
                for stage, _seq, pre_top in self.events.get((sigma, sort), [])]

    def grow(self, sigma, sort, stage):
        pre = self.top_label(CubeElem(frozenset(), sigma, sort))
        self.seq += 1
        self.events.setdefault((sigma, sort), []).append(
            (stage, self.seq, -1 if pre is None else pre))

    def declare(self, n, e, stage):
        if self.label_stamp(n, e) is not None:
            return False
        self.seq += 1
        self.direct.setdefault(e, {})[n] = stage
        self.direct_order.append((stage, self.seq, n, e))
        return True

    def label_stamp(self, n, e, before=None):
        best = self.direct.get(e, {}).get(n)
        events = self.grows(e.sigma, e.sort)
        if not e.fset:
            for ev in events:
                if n < ev.pre_top + 2:
                    if best is None or ev.stage < best:
                        best = ev.stage
                    break
        else:
            top = max(e.fset)
            for ev in events:
                if n < ev.pre_top and top < ev.stage:
                    if best is None or ev.stage < best:
                        best = ev.stage
                    break
        if best is not None and before is not None and best >= before:
            return None
        return best

    def has_label(self, n, e, upto=None):
        before = None if upto is None else upto + 1
        return self.label_stamp(n, e, before=before) is not None

    def top_label(self, e, before=None):
        best = None
        live = [ev for ev in self.grows(e.sigma, e.sort)
                if before is None or ev.stage < before]
        if not e.fset:
            if live:
                best = max(ev.pre_top + 1 for ev in live)
        else:
            top = max(e.fset)
            tops = [ev.pre_top - 1 for ev in live if top < ev.stage]
            if tops and max(tops) >= 0:
                best = max(tops)
        for n, stamp in self.direct.get(e, {}).items():
            if (before is None or stamp < before) and (best is None or n > best):
                best = n
        return best

    def labels(self, e, upto=None):
        top = self.top_label(e, before=None if upto is None else upto + 1)
        if top is None:
            return []
        return [n for n in range(top + 1) if self.has_label(n, e, upto)]

    def declarations(self, stage_bound, fsets):
        """The snapshot expansion, driven by (stage, seq)-sorted events."""
        events = [(stage, seq, "grow", (key, pre_top))
                  for key, evs in self.events.items() for stage, seq, pre_top in evs]
        events += [(stage, seq, "decl", (n, e)) for stage, seq, n, e in self.direct_order]
        events.sort(key=lambda t: (t[0], t[1]))
        rows, cursor, sparse = [], {}, set()
        window_f = sorted(fsets, key=lambda f: (len(f), tuple(sorted(f))))

        def extend(e, upto, stage):
            start = cursor.get(e, 0)
            for n in range(start, upto):
                if (n, e) not in sparse:
                    rows.append((stage, n, e))
            if upto > start:
                cursor[e] = upto

        for stage, _seq, kind, payload in events:
            if stage > stage_bound:
                continue
            if kind == "decl":
                n, e = payload
                if n >= cursor.get(e, 0) and (n, e) not in sparse:
                    sparse.add((n, e))
                    rows.append((stage, n, e))
                continue
            (sigma, sort), pre_top = payload
            extend(CubeElem(frozenset(), sigma, sort), pre_top + 2, stage)
            if pre_top > 0:
                for f in window_f:
                    if not f or max(f) >= stage:
                        continue
                    extend(CubeElem(f, sigma, sort), pre_top, stage)
        return rows


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
            ev = store.grow(sigma, sort, stage)
            ref.grow(sigma, sort, stage)
            assert ev.pre_top == ref.events[(sigma, sort)][-1][2]
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
    for b in range(0, last + 2):
        strings = tuple((sigma, sort) for sigma in STRINGS[:n_strings])
        snap = Snapshot(variant, b, store, strings, tuple(FSETS))
        assert list(snap.declarations()) == ref.declarations(b, FSETS)


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
        ref.grow(sigma, sort, stage)
        assert ev.pre_top == ref.events[(sigma, sort)][-1][2]
        assert ev.sigma == sigma and ev.sort == sort
    for sort in sorts:
        grown = {key for key in ref.events if key[1] == sort}
        filed = store._interned[sort]
        assert len(filed) == len(grown)
        assert all(id(rec.sigma) == x for x, rec in filed.items())
        assert {(rec.sigma, sort) for rec in filed.values()} == grown
