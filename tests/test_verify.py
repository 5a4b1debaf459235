import pytest

from conftest import cc_config, dc_config, faithful

from cubetree.adversary import Adversary, FactStream
from cubetree.engine import run_stages, true_path_approx
from cubetree.structure import (
    CubeElem,
    Snapshot,
    UElem,
    elem,
    format_elem,
    holds_E,
    holds_P,
    snapshot_from_declarations,
)
from cubetree.trees import Branch, tree_from_lists
from cubetree.verify import (
    BranchOutsideTree,
    InvariantBroken,
    Report,
    atomic_equivalent,
    automorphism_from_paths,
    bf_equiv,
    check_isomorphism,
    check_labeling,
    check_trace_invariants,
    ideal_tree_snapshot,
    orbit_probe,
    orbit_witness,
    path_from_automorphism,
)


def two_branch_tree():
    b0 = ((0,), (2,))  # 0,2,2,2,...
    b1 = ((1,), (3,))  # 1,3,3,3,...
    return tree_from_lists([[0], [1]], branches=[b0, b1])


def test_orbit_probe_on_designated_branches():
    tree = two_branch_tree()
    assert orbit_probe(tree, (), 0)
    assert orbit_probe(tree, (), 1)
    assert not orbit_probe(tree, (), 2)
    assert orbit_probe(tree, (0,), 2)
    assert not orbit_probe(tree, (0,), 0)
    assert orbit_probe(tree, (0, 2), 2)


def test_orbit_probe_finite_tree():
    tree = tree_from_lists([[0], [0, 1], [2]])
    assert orbit_probe(tree, (), 0)  # extends to maximal depth via (0,1)
    assert not orbit_probe(tree, (), 2)  # leaf at depth 1 only
    leaf = (0, 1)
    assert not any(orbit_probe(tree, leaf, i) for i in range(4))


def test_built_automorphism_moves_target_and_respects_relations():
    tree = two_branch_tree()
    snap = ideal_tree_snapshot(tree, depth=8)
    b0 = tree.branches[0]
    g = automorphism_from_paths(tree, {0: b0}, {0}, ())
    assert g(elem((), ())) == elem({0}, ())
    assert g(elem({0}, ())) == elem((), ())
    # along the branch, a single-color twist; off it, identity
    assert g(elem((), (0,))) == elem({2}, (0,))
    assert g(elem((), (0, 2))) == elem({2}, (0, 2))
    assert g(elem((), (1,))) == elem((), (1,))
    report = check_isomorphism(g, snap, snap)
    assert report.ok, report.failures()


def test_built_automorphism_even_target_fixes_below():
    tree = two_branch_tree()
    snap = ideal_tree_snapshot(tree, depth=8)
    g = automorphism_from_paths(
        tree, {0: tree.branches[0], 1: tree.branches[1]}, {0, 1}, ()
    )
    assert g(elem((), ())) == elem({0, 1}, ())
    report = check_isomorphism(g, snap, snap)
    assert report.ok, report.failures()


def test_built_automorphism_odd_target_twists_below():
    nodes = [[0], [0, 2]]
    tree = tree_from_lists(nodes, branches=[((0, 2), (1,))])
    snap = ideal_tree_snapshot(tree, depth=8)
    branch = tree.branches[0]
    sigma = (0,)
    g = automorphism_from_paths(tree, {2: branch}, {2}, sigma)
    assert g(elem((), sigma)) == elem({2}, sigma)
    # below sigma the twist follows the next symbol toward sigma
    assert g(elem((), ())) == elem({0}, ())
    report = check_isomorphism(g, snap, snap)
    assert report.ok, report.failures()


def test_branch_validation():
    tree = two_branch_tree()
    rogue = Branch((5,), (5,))
    with pytest.raises(BranchOutsideTree):
        automorphism_from_paths(tree, {5: rogue}, {5}, ())
    with pytest.raises(ValueError):
        automorphism_from_paths(tree, {0: tree.branches[0]}, {0, 1}, ())


def test_path_from_automorphism_round_trip():
    tree = two_branch_tree()
    b0 = tree.branches[0]
    g = automorphism_from_paths(tree, {0: b0}, {0}, ())
    chain = path_from_automorphism(g, (), 12, tree=tree)
    assert len(chain) == 12
    assert chain[-1] == b0.initial_segment(12)
    for k, prefix in enumerate(chain, start=1):
        assert b0.has_prefix(prefix)
        assert len(prefix) == k


def test_path_from_automorphism_rejects_identity():
    tree = two_branch_tree()
    with pytest.raises(ValueError):
        path_from_automorphism(lambda e: e, (), 5)


def test_path_from_automorphism_detects_corruption():
    tree = two_branch_tree()
    b0 = tree.branches[0]
    g = automorphism_from_paths(tree, {0: b0}, {0}, ())

    def corrupted(e: CubeElem) -> CubeElem:
        if len(e.sigma) >= 3:
            return e  # stops moving: not an automorphism of the coded structure
        return g(e)

    with pytest.raises(InvariantBroken):
        path_from_automorphism(corrupted, (), 12)


def test_orbit_witness_round_trip():
    tree = two_branch_tree()
    for sigma, i in [((), 0), ((), 1), ((0,), 2)]:
        assert orbit_probe(tree, sigma, i)
        g = orbit_witness(tree, sigma, i)
        assert g is not None
        chain = path_from_automorphism(g, sigma, 10, tree=tree)
        assert len(chain) == 10
    assert orbit_witness(tree, (), 7) is None


def test_uswap_automorphism():
    tree = tree_from_lists([[0]], branches=[((0,), (4,))])
    snap = ideal_tree_snapshot(tree, depth=6, variant="dc")
    branch = tree.branches[0]
    g = automorphism_from_paths(tree, {}, set(), (), sort=None, uswap=branch)
    assert g(UElem(0)) == UElem(1)
    assert g(UElem(1)) == UElem(0)
    assert g(elem((), (), sort=0)) == elem({0}, (), sort=0)
    assert g(elem((), (), sort=1)) == elem((), (), sort=1)
    report = check_isomorphism(g, snap, snap)
    assert report.ok, report.failures()


def test_atomic_and_bf_equivalence():
    tree = two_branch_tree()
    snap = ideal_tree_snapshot(tree, depth=6)
    off_tree = (2,)
    a = elem((), off_tree)
    b = elem({0}, off_tree)
    # the base label separates the pair atomically off the tree
    assert not atomic_equivalent(snap, (a,), (b,))
    assert not bf_equiv(snap, (a,), (b,), 0, [])
    # identical tuples are equivalent at every depth
    on = elem((), (0,))
    assert bf_equiv(snap, (on,), (on,), 2, [elem((), ()), on])
    # fully labeled translates agree atomically and for one exchange step
    c = elem((), (0,))
    d = elem({2}, (0,))
    assert atomic_equivalent(snap, (c,), (d,))
    support = [
        elem((), (0,)), elem({2}, (0,)),
        elem((), (0, 2)), elem({2}, (0, 2)),
    ]
    assert bf_equiv(snap, (c,), (d,), 1, support)


def test_bf_equiv_depth_guard():
    tree = two_branch_tree()
    snap = ideal_tree_snapshot(tree, depth=4)
    with pytest.raises(ValueError):
        bf_equiv(snap, (), (), 4, [])


def test_trace_invariants_cc_run():
    config = cc_config(horizon=40, adversaries=[faithful(delay=2)])
    result = run_stages(config)
    report = check_trace_invariants(result)
    assert report.ok, report.failures()


def test_trace_invariants_dc_run():
    config = dc_config(
        horizon=60,
        mothers=2,
        adversaries=[faithful(delay=2)],
        functionals=[{"mother": 0, "round": 3, "kind": "length_threshold",
                      "min_len": 3, "value": 0}],
    )
    result = run_stages(config)
    report = check_trace_invariants(result)
    assert report.ok, report.failures()


def test_trace_invariants_catch_corruption():
    config = cc_config(horizon=20, adversaries=[faithful(delay=1)])
    result = run_stages(config)
    # corrupt a gamma-style event: inject a daughter length mismatch
    result.trace.records.append(("gamma", 21, "/o", (1, 2, 3), 7))
    report = check_trace_invariants(result)
    assert not report.ok
    names = {r.name for r in report.failures()}
    assert "inherited-length" in names


def test_labeling_check_on_run():
    config = cc_config(horizon=60, adversaries=[faithful(delay=1)])
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    report = check_labeling(result, entries, 30, 60)
    assert report.ok, report.failures()
    grown = [r for r in report.results if r.name == "labels-grow"]
    stable = [r for r in report.results if r.name == "top-label-stable"]
    assert grown and stable


def test_labeling_check_on_dc_run():
    config = dc_config(horizon=40, adversaries=[faithful(delay=2)])
    result = run_stages(config)
    entries = true_path_approx(result, threshold=3)
    report = check_labeling(result, entries, 20, 40)
    assert report.ok, report.failures()
    # the root pairs count as growing strings
    grown = [r for r in report.results if r.name == "labels-grow"]
    assert len(grown) == 2


def test_sort_one_mover_fixes_the_other_sort():
    tree = tree_from_lists([[0]], branches=[((0,), (3,))])
    snap = ideal_tree_snapshot(tree, depth=6, variant="dc")
    branch = tree.branches[0]
    g = automorphism_from_paths(tree, {0: branch}, {0}, (), sort=1)
    assert g(elem((), (), sort=1)) == elem({0}, (), sort=1)
    assert g(elem((), (), sort=0)) == elem((), (), sort=0)
    assert g(UElem(0)) == UElem(0)
    report = check_isomorphism(g, snap, snap)
    assert report.ok, report.failures()
    chain = path_from_automorphism(g, (), 8, sort=1, tree=tree)
    assert len(chain) == 8 and branch.has_prefix(chain[-1])


# -- one isomorphism checker ---------------------------------------------------


def reference_check_iso_snapshot(g, source, target):
    """The snapshot-to-snapshot checker the single stream body replaced,
    kept verbatim as the reference the differential test compares against."""
    report = Report()
    elems = source.elements()
    if source.variant == "dc":
        elems = elems + [UElem(0), UElem(1)]
    images = {}
    for e in elems:
        img = g(e)
        if img is None:
            report.add("total", False, format_elem(e))
            return report
        images[e] = img
    report.add("total", True)
    report.add("injective", len(set(images.values())) == len(images))
    w_ok = all(
        isinstance(img, CubeElem) == isinstance(e, CubeElem)
        and (not isinstance(e, CubeElem)
             or (img.sigma == e.sigma and img.sort == e.sort))
        for e, img in images.items()
    )
    report.add("respects-W", w_ok)
    by_string = {}
    for e in elems:
        if isinstance(e, CubeElem):
            by_string.setdefault((e.sigma, e.sort), []).append(e)
    e_ok = True
    p_ok = True
    locus = ""
    for (sigma, sort), group in by_string.items():
        for e1 in group:
            for e2 in group:
                d0 = e1.fset ^ e2.fset
                d1 = images[e1].fset ^ images[e2].fset
                if (len(d0) == 1) != (len(d1) == 1) or (len(d0) == 1 and d0 != d1):
                    e_ok = False
                    locus = f"{format_elem(e1)},{format_elem(e2)}"
        parent = (sigma[:-1], sort) if sigma else None
        if parent in by_string:
            for e1 in by_string[parent]:
                for e2 in group:
                    if holds_P(e1, e2) != holds_P(images[e1], images[e2]):
                        p_ok = False
                        locus = f"{format_elem(e1)},{format_elem(e2)}"
    for e in elems:
        if isinstance(e, UElem):
            for other in elems:
                if isinstance(other, CubeElem):
                    if holds_P(e, other) != holds_P(images[e], images[other]):
                        p_ok = False
                        locus = f"u{e.k},{format_elem(other)}"
    report.add("respects-E", e_ok, locus if not e_ok else "")
    report.add("respects-P", p_ok, locus if not p_ok else "")
    s_ok = True
    for e in elems:
        if not isinstance(e, CubeElem):
            continue
        if source.labels(e) != target.labels(images[e]):
            s_ok = False
            locus = format_elem(e)
            break
    report.add("respects-S", s_ok, locus if not s_ok else "")
    return report


def reference_snapshot_view(snap):
    """The snapshot view with a colour, parent and u-pair loop of its own,
    kept as the reference for `true_facts`."""
    us = [UElem(0), UElem(1)] if snap.variant == "dc" else []
    cube = snap.elements()
    ids = {e: x for x, e in enumerate(us + cube)}
    view = Adversary(FactStream(), to_copy=ids)
    facts = []
    colors = set().union(*snap.fsets)
    for e in cube:
        x = ids[e]
        facts.append(("W", e.sigma, e.sort, x))
        facts.extend(("S", n, x) for n in snap.labels(e))
        for i in colors:
            y = ids.get(CubeElem(e.fset ^ {i}, e.sigma, e.sort))
            if y is not None:
                facts.append(("E", i, x, y))
        parents = [CubeElem(f, e.sigma[:-1], e.sort) for f in snap.fsets] if e.sigma else us
        facts.extend(("P", ids[p], x) for p in parents if p in ids and holds_P(p, e))
    for fact in facts:
        view.stream.append(0, fact)
    return view


def reference_check_isomorphism(g, source, target, horizon=None):
    """The checker with a completeness loop per fact kind and a soundness
    test per kind, kept as the reference the shared enumeration replaced."""
    if isinstance(target, Snapshot):
        view = reference_snapshot_view(target)
        return reference_check_isomorphism(
            lambda e: view.to_copy.get(g(e)), source, view, source.stage)
    report = Report()
    stream = target.stream
    lag = target.delay
    enumerated = stream.elements(horizon)
    if target.to_ground:
        cube = [target.to_ground[x] for x in enumerated
                if isinstance(target.to_ground.get(x), CubeElem)]
    else:
        cube = [e for e in source.elements() if stream.witnesses_W(e.sigma, e.sort, horizon)]
    us = [UElem(0), UElem(1)] if source.variant == "dc" else []
    images = {e: g(e) for e in us + cube}
    missing = [e for e, x in images.items() if x is None]
    if missing:
        report.add("total", False, format_elem(missing[0]))
        return report
    report.add("total", True)
    report.add("injective", len(set(images.values())) == len(images))
    covered = set(images.values())
    uncovered = [x for x in enumerated if x not in covered]
    report.add("covers-enumerated", not uncovered,
               f"{len(uncovered)} elements uncovered" if uncovered else "")
    w_ok = s_ok = e_ok = p_ok = True
    locus = {}
    by_string = {}
    for e in cube:
        by_string.setdefault((e.sigma, e.sort), []).append(e)
    label_bound = max(0, min(source.stage, horizon) - lag)
    for e in cube:
        x = images[e]
        if not stream.holds_within(("W", e.sigma, e.sort, x), horizon):
            w_ok = False
            locus.setdefault("W", format_elem(e))
        for n in source.store.labels(e, upto=label_bound):
            if not stream.holds_within(("S", n, x), horizon):
                s_ok = False
                locus.setdefault("S", f"S_{n} {format_elem(e)}")
    for (sigma, sort), group in by_string.items():
        for e1 in group:
            for e2 in group:
                diff = e1.fset ^ e2.fset
                if len(diff) == 1:
                    i = next(iter(diff))
                    if not stream.holds_within(("E", i, images[e1], images[e2]), horizon):
                        e_ok = False
                        locus.setdefault("E", f"{format_elem(e1)}-{format_elem(e2)}")
        parent = (sigma[:-1], sort) if sigma else None
        if parent in by_string:
            for e1 in by_string[parent]:
                for e2 in group:
                    if holds_P(e1, e2) and not stream.holds_within(
                        ("P", images[e1], images[e2]), horizon
                    ):
                        p_ok = False
                        locus.setdefault("P", f"{format_elem(e1)}->{format_elem(e2)}")
    for u in us:
        for e in by_string.get(((), 0), []):
            if holds_P(u, e) and not stream.holds_within(("P", images[u], images[e]), horizon):
                p_ok = False
                locus.setdefault("P", f"{format_elem(u)}->{format_elem(e)}")
    back = {x: e for e, x in images.items()}
    sound = True
    for _step, fact in stream.facts_within(horizon):
        kind = fact[0]
        if kind == "W" and fact[3] in back:
            e = back[fact[3]]
            if isinstance(e, UElem) or (fact[1], fact[2]) != (e.sigma, e.sort):
                sound = False
                locus.setdefault("sound", f"W at {fact[3]}")
        elif kind == "S" and fact[2] in back:
            e = back[fact[2]]
            if isinstance(e, UElem) or not source.has_label(fact[1], e):
                sound = False
                locus.setdefault("sound", f"S_{fact[1]} at {fact[2]}")
        elif kind == "E" and fact[2] in back and fact[3] in back:
            if not holds_E(fact[1], back[fact[2]], back[fact[3]]):
                sound = False
                locus.setdefault("sound", f"E at {fact[2]},{fact[3]}")
        elif kind == "P" and fact[1] in back and fact[2] in back:
            if not holds_P(back[fact[1]], back[fact[2]]):
                sound = False
                locus.setdefault("sound", f"P at {fact[1]},{fact[2]}")
    report.add("respects-W", w_ok, locus.get("W", ""))
    report.add("respects-S", s_ok, locus.get("S", ""))
    report.add("respects-E", e_ok, locus.get("E", ""))
    report.add("respects-P", p_ok, locus.get("P", ""))
    report.add("sound", sound, locus.get("sound", ""))
    return report


def verdicts(report):
    return [(r.name, r.ok) for r in report.results]


def built_automorphism_cases():
    """(snapshot, named correct maps) over cc and dc ideal tree snapshots."""
    identity = ("identity", lambda e: e)
    tree = two_branch_tree()
    odd = tree_from_lists([[0], [0, 2]], branches=[((0, 2), (1,))])
    uswap = tree_from_lists([[0]], branches=[((0,), (4,))])
    mover = tree_from_lists([[0]], branches=[((0,), (3,))])
    return [
        (ideal_tree_snapshot(tree, depth=5, label_count=4), [
            identity,
            ("one color", automorphism_from_paths(tree, {0: tree.branches[0]}, {0}, ())),
            ("two colors", automorphism_from_paths(
                tree, {0: tree.branches[0], 1: tree.branches[1]}, {0, 1}, ())),
        ]),
        (ideal_tree_snapshot(odd, depth=5, label_count=4), [
            identity,
            ("odd target", automorphism_from_paths(odd, {2: odd.branches[0]}, {2}, (0,))),
        ]),
        (ideal_tree_snapshot(uswap, depth=5, label_count=4, variant="dc"), [
            identity,
            ("uswap", automorphism_from_paths(uswap, {}, set(), (), uswap=uswap.branches[0])),
        ]),
        (ideal_tree_snapshot(mover, depth=5, label_count=4, variant="dc"), [
            identity,
            ("sort-1 mover", automorphism_from_paths(
                mover, {0: mover.branches[0]}, {0}, (), sort=1)),
        ]),
    ]


def mutations(snap, g):
    """Named maps that break g in one way each, all inside the window; none
    is an isomorphism."""
    sort = None if snap.variant == "cc" else 0
    i, j = sorted(set().union(*snap.fsets))[:2]
    a, b = elem((), (), sort), elem({i}, (), sort)
    s1, s2 = sorted({sigma for sigma, _ in snap.strings if len(sigma) == 1})[:2]
    swap = {s1: s2, s2: s1}

    def non_injective(e):
        return g(a) if e == b else g(e)

    def swapped_strings(e):
        img = g(e)
        if isinstance(e, CubeElem) and e.sigma in swap:
            return CubeElem(img.fset, swap[img.sigma], img.sort)
        return img

    def broken_edge(e):
        if isinstance(e, CubeElem) and e.sigma == () and e.fset in ({i}, {j}):
            e = CubeElem(e.fset ^ {i, j}, e.sigma, e.sort)
        return g(e)

    cases = [("non-injective", non_injective), ("swapped strings", swapped_strings),
             ("broken edge", broken_edge)]
    if snap.variant == "dc":
        def swapped_sort(e):
            img = g(e)
            if isinstance(e, CubeElem) and e.sigma == ():
                return CubeElem(img.fset, img.sigma, 1 - img.sort)
            return img

        def u_only_swap(e):
            return UElem(1 - g(e).k) if isinstance(e, UElem) else g(e)

        cases += [("swapped sort", swapped_sort), ("u pair swapped alone", u_only_swap)]
    return cases


def with_declarations(snap, rows):
    return snapshot_from_declarations(snap.variant, rows, snap.strings, snap.fsets, snap.stage)


def mutated_targets(snap):
    """The snapshot missing its last declaration, and with S_1 added on the
    empty vertex of an off-tree border string (which carries S_0 alone)."""
    rows = list(snap.declarations())
    border = next(CubeElem(frozenset(), sigma, sort) for sigma, sort in snap.strings
                  if snap.labels(CubeElem(frozenset(), sigma, sort)) == [0])
    extra = (rows[-1][0], 1, border)
    return [("missing declaration", with_declarations(snap, rows[:-1])),
            ("extra declaration", with_declarations(snap, rows + [extra]))]


def test_one_checker_agrees_with_the_snapshot_reference():
    for snap, maps in built_automorphism_cases():
        for name, g in maps:
            cases = [(name, g, snap, True)]
            cases += [(f"{name}/{m}", h, snap, False) for m, h in mutations(snap, g)]
            cases += [(f"{name}/{t}", g, target, False) for t, target in mutated_targets(snap)]
            for label, h, target, expected in cases:
                new = check_isomorphism(h, snap, target)
                old = reference_check_iso_snapshot(h, snap, target)
                assert old.ok is expected, (snap.variant, label, old.failures())
                assert new.ok is old.ok, (snap.variant, label, new.failures())
                ref = reference_check_isomorphism(h, snap, target)
                assert verdicts(new) == verdicts(ref), (snap.variant, label)


def shipped_config(name, horizon):
    from cubetree.config import load_config
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "configs" / name
    return load_config(path)._replace(horizon=horizon)


@pytest.mark.parametrize("name, horizon", [("cc_faithful.json", 60), ("dc_diagonal.json", 30)])
def test_true_facts_are_the_generated_copy_facts(name, horizon):
    """The facts a faithful copy enumerates by the end of the run are the
    images of the true facts among the ground elements it has enumerated;
    the fact-stream digests pin the generator this is compared against."""
    from cubetree.adversary import FACT_ARG0, make_faithful_copy
    from cubetree.verify import true_facts

    result = run_stages(shipped_config(name, horizon))
    copy = make_faithful_copy(result, delay=1)
    budget = horizon + 1
    elems = [copy.to_ground[x] for x in copy.stream.elements(budget)]
    ids = [copy.to_copy[e] for e in elems]
    mapped = set()
    for fact in true_facts(elems, result.snapshot().labels):
        k = FACT_ARG0[fact[0]]
        mapped.add(fact[:k] + tuple(ids[x] for x in fact[k:]))
    generated = {fact for _step, fact in copy.stream.facts_within(budget)}
    assert len(generated) > 1000
    assert mapped == generated


def reference_true_facts(elems, labels):
    """`true_facts` as it stood with its own index: a pass over all of
    `elems` first, then per cube element W, S, E to each neighbour and P
    from each parent (the u pair for a sort-0 root)."""
    by_string = {}
    us = []
    for x, e in enumerate(elems):
        if isinstance(e, UElem):
            us.append(x)
        else:
            by_string.setdefault((e.sigma, e.sort), {})[e.fset] = x
    colors = sorted(set().union(*(f for group in by_string.values() for f in group)))
    for x, e in enumerate(elems):
        if isinstance(e, UElem):
            continue
        yield ("W", e.sigma, e.sort, x)
        for n in labels(e):
            yield ("S", n, x)
        group = by_string[(e.sigma, e.sort)]
        for i in colors:
            y = group.get(e.fset ^ {i})
            if y is not None:
                yield ("E", i, x, y)
        parents = by_string.get((e.sigma[:-1], e.sort), {}).values() if e.sigma else us
        for y in parents:
            if holds_P(elems[y], e):
                yield ("P", y, x)


def element_lists():
    """(name, elements, labels): the built-automorphism snapshots and two
    run snapshots, the u pair first in the two-sorted variant, and one copy's
    enumeration order, where parents may come after their children."""
    from cubetree.adversary import make_faithful_copy

    def listed(snap):
        return ([UElem(0), UElem(1)] if snap.variant == "dc" else []) + snap.elements()

    cases = [(f"built {k}", listed(snap), snap.labels)
             for k, (snap, _maps) in enumerate(built_automorphism_cases())]
    for name, horizon in [("cc_faithful.json", 60), ("dc_diagonal.json", 30)]:
        snap = run_stages(shipped_config(name, horizon)).snapshot()
        cases.append((f"{name}@{horizon}", listed(snap), snap.labels))
    result = run_stages(shipped_config("cc_faithful.json", 60))
    copy = make_faithful_copy(result, delay=1)
    order = [copy.to_ground[x] for x in copy.stream.elements(61)]
    cases.append(("enumeration order", order, result.snapshot().labels))
    return cases


def test_true_facts_are_the_reference_facts_each_once():
    from cubetree.verify import true_facts

    late_parents = 0
    for name, elems, labels in element_lists():
        facts = list(true_facts(elems, labels))
        assert len(facts) == len(set(facts)), name
        assert set(facts) == set(reference_true_facts(elems, labels)), name
        if name == "enumeration order":
            late_parents = sum(1 for f in facts if f[0] == "P" and f[1] > f[2])
    # The copy's order reaches the facts from a parent that comes later.
    assert late_parents == 142


def stream_mutations(extracted):
    """The extracted map, that map with the images of two elements swapped,
    and that map with one element sent to another's image."""
    table = extracted.source_to_copy
    a, b = sorted(table, key=lambda e: table[e])[:2]
    swapped = table | {a: table[b], b: table[a]}
    merged = table | {b: table[a]}
    return [("extracted", extracted), ("two images swapped", swapped.get),
            ("one image shared", merged.get)]


@pytest.mark.parametrize("horizon", [31, 62, 80])
def test_one_checker_agrees_with_the_reference_on_stream_targets(horizon):
    """On each adversary of the shipped cc config, every result name gets the
    reference's verdict for the extracted map and two broken versions of it."""
    from cubetree import cc

    result = run_stages(shipped_config("cc_faithful.json", horizon))
    entries = true_path_approx(result, threshold=3)
    snap = result.snapshot()
    seen = set()
    for idx, adv in enumerate(result.adversaries):
        for label, g in stream_mutations(cc.extract_isomorphism(result, entries, idx)):
            new = check_isomorphism(g, snap, adv, horizon)
            ref = reference_check_isomorphism(g, snap, adv, horizon)
            assert verdicts(new) == verdicts(ref), (idx, label)
            seen.add((label, ref.ok))
    assert seen == {("extracted", True), ("two images swapped", False),
                    ("one image shared", False)}


def two_pass_check_isomorphism(g, source, target, horizon=None):
    """The checker as it stood before its one pass: the true facts with the
    labels due by the lag for completeness, all of them again as a set for
    soundness, and each stream fact pulled back through the inverse map."""
    from cubetree.adversary import FACT_ARG0
    from cubetree.verify import snapshot_view, true_facts

    def map_fact(fact, m):
        k = FACT_ARG0[fact[0]]
        try:
            return fact[:k] + tuple(m[x] for x in fact[k:])
        except KeyError:
            return None

    if isinstance(target, Snapshot):
        view = snapshot_view(target)
        return two_pass_check_isomorphism(
            lambda e: view.to_copy.get(g(e)), source, view, source.stage)
    report = Report()
    stream = target.stream
    enumerated = stream.elements(horizon)
    if target.to_ground:
        cube = [target.to_ground[x] for x in enumerated
                if isinstance(target.to_ground.get(x), CubeElem)]
    else:
        cube = [e for e in source.elements() if stream.witnesses_W(e.sigma, e.sort, horizon)]
    elems = ([UElem(0), UElem(1)] if source.variant == "dc" else []) + cube
    images = [g(e) for e in elems]
    if None in images:
        report.add("total", False, format_elem(elems[images.index(None)]))
        return report
    report.add("total", True)
    covered = set(images)
    report.add("injective", len(covered) == len(images))
    uncovered = [x for x in enumerated if x not in covered]
    report.add("covers-enumerated", not uncovered,
               f"{len(uncovered)} elements uncovered" if uncovered else "")
    locus = {}
    label_bound = max(0, min(source.stage, horizon) - target.delay)
    for fact in true_facts(elems, lambda e: source.store.labels(e, upto=label_bound)):
        if fact[0] not in locus and not stream.holds_within(map_fact(fact, images), horizon):
            names = [format_elem(elems[x]) for x in fact[FACT_ARG0[fact[0]]:]]
            head = f"S_{fact[1]} " if fact[0] == "S" else ""
            locus[fact[0]] = head + ("-" if fact[0] == "E" else "->").join(names)
    truth = set(true_facts(elems, source.labels))
    back = {x: k for k, x in enumerate(images)}
    for _step, fact in stream.facts_within(horizon):
        pulled = map_fact(fact, back)
        if pulled is not None and pulled not in truth:
            head = f"S_{fact[1]}" if fact[0] == "S" else fact[0]
            args = fact[FACT_ARG0[fact[0]]:]
            locus["sound"] = f"{head} at {','.join(map(str, args))}"
            break
    for kind in "WSEP":
        report.add(f"respects-{kind}", kind not in locus, locus.get(kind, ""))
    report.add("sound", "sound" not in locus, locus.get("sound", ""))
    return report


def broken_maps(copy):
    """The copy's ground truth, that map missing one element, and that map
    sending two elements to one image (the later one's)."""
    from cubetree.structure import CubeElem

    table = copy.to_copy
    a, b = [e for e in table if isinstance(e, CubeElem)][1:3]
    return [("ground truth", table.get),
            ("misses an element", lambda e: None if e == b else table.get(e)),
            ("non-injective", lambda e: table[b] if e == a else table.get(e))]


def test_one_pass_checker_writes_the_two_pass_report_lines():
    """On clean and defective copies of a cc and a dc run, each at two
    horizons, and on snapshot targets, with broken maps too, every report
    line equals the two-pass checker's, loci included."""
    from cubetree.adversary import Defect, PermSpec, make_faithful_copy

    failed = set()
    for name, horizon in [("cc_faithful.json", 48), ("dc_diagonal.json", 24)]:
        result = run_stages(shipped_config(name, horizon))
        snap = result.snapshot()
        copies = [
            make_faithful_copy(result, delay=1),
            make_faithful_copy(result, PermSpec("block_rotate", 8, 3), delay=3),
            make_faithful_copy(result, delay=2, defects=(Defect("omit_label", n=1, sigma=()),)),
            make_faithful_copy(result, delay=1, defects=(Defect("break_p", sigma=(), j=1),)),
            make_faithful_copy(result, delay=1, defects=(Defect("freeze_after", step=horizon // 2),)),
        ]
        for k, copy in enumerate(copies):
            for label, g in broken_maps(copy):
                for budget in (horizon // 2, horizon + 3):
                    new = check_isomorphism(g, snap, copy, budget)
                    old = two_pass_check_isomorphism(g, snap, copy, budget)
                    assert new.lines() == old.lines(), (name, k, label, budget)
                    assert new.ok or k > 1 or label != "ground truth", (name, k, budget)
                    failed.update((k > 1, r.name) for r in new.failures())
    # Each defect and each broken map shows.
    assert {(True, "respects-S"), (True, "respects-P"), (False, "total"),
            (False, "injective"), (False, "covers-enumerated")} <= failed
    for snap, ((name, g), *_maps) in built_automorphism_cases():
        cases = [(g, snap)] + [(h, snap) for _m, h in mutations(snap, g)]
        cases += [(g, target) for _t, target in mutated_targets(snap)]
        for h, target in cases:
            assert (check_isomorphism(h, snap, target).lines()
                    == two_pass_check_isomorphism(h, snap, target).lines()), name


def test_a_stream_target_is_checked_by_the_source_stage_by_default():
    """With no horizon given, a stream target is read by the source's stage,
    the bound a snapshot target is read at."""
    from cubetree.adversary import make_faithful_copy

    result = run_stages(cc_config(horizon=12))
    adv = make_faithful_copy(result)
    snap = result.snapshot()
    report = check_isomorphism(adv.to_copy.get, snap, adv)
    assert report.ok, report.failures()
    assert report.lines() == check_isomorphism(adv.to_copy.get, snap, adv, snap.stage).lines()


# -- top-label definedness, checked once per string ------------------------------

def reference_n_sigma_definedness(result):
    """The whole slice at every stage: (ok, locus) of the first string with
    no label on its empty vertex one stage after it is in the slice."""
    from cubetree.structure import UndefinedLabel, format_string, sorts

    for s in range(2, result.horizon + 1):
        for sigma in result.universe_strings(s - 1):
            for sort in sorts(result.variant):
                try:
                    result.store.n_sigma(sigma, sort, s)
                except UndefinedLabel:
                    return False, f"{format_string(sigma)} at stage {s}"
    return True, ""


def definedness(result):
    from cubetree.verify import _check_n_sigma_definedness

    report = Report()
    _check_n_sigma_definedness(result, report)
    (row,) = report.results
    assert row.name == "top-label-defined"
    return row.ok, row.locus


def drop_declaration(monkeypatch, *ks):
    """Make Engine.declare_base skip the k-th declarations that would add a label."""
    from cubetree.engine import Engine

    real = Engine.declare_base
    seen = [0]

    def declare_base(self, sigma, sort, stage):
        if self.store.label_stamp(0, CubeElem(frozenset(), tuple(sigma), sort)) is None:
            seen[0] += 1
            if seen[0] in ks:
                return
        real(self, sigma, sort, stage)

    monkeypatch.setattr(Engine, "declare_base", declare_base)


@pytest.mark.parametrize("config", [
    cc_config(horizon=40, adversaries=[faithful(delay=2)]),
    dc_config(horizon=60, mothers=2, adversaries=[faithful(delay=2)],
              functionals=[{"mother": 0, "round": 3, "kind": "length_threshold",
                            "min_len": 3, "value": 0}]),
], ids=["cc", "dc"])
def test_definedness_agrees_with_the_slice_loop_on_clean_runs(config):
    result = run_stages(config)
    assert definedness(result) == reference_n_sigma_definedness(result) == (True, "")


@pytest.mark.parametrize("k, locus", [
    (2, "<3> at stage 5"), (5, "<5> at stage 7"), (30, "<3,15,15> at stage 17"),
])
def test_definedness_agrees_with_the_slice_loop_on_a_dropped_label(monkeypatch, k, locus):
    from cubetree.config import config_from_dict
    from test_acceptance import DC_MODULUS

    drop_declaration(monkeypatch, k)
    result = run_stages(config_from_dict(dict(DC_MODULUS, horizon=120)))
    assert definedness(result) == reference_n_sigma_definedness(result) == (False, locus)


def test_definedness_reports_the_first_entry_stage_not_the_first_string(monkeypatch):
    # <0,0> comes first in ladder order but enters the slice at stage 12,
    # after its birth, since the width reaches 3 only then; <3,9> enters at 10.
    drop_declaration(monkeypatch, 20, 34)
    result = run_stages(dc_config(horizon=30))
    entry = {sigma: next(s for s in range(31) if sigma in result.universe_strings(s))
             for sigma in [(0, 0), (3, 9)]}
    assert entry == {(0, 0): 12, (3, 9): 10}
    assert definedness(result) == reference_n_sigma_definedness(result) \
        == (False, "<3,9> at stage 11")


@pytest.mark.parametrize("k", [1, 3, 7])
def test_definedness_agrees_with_the_slice_loop_on_a_dropped_cc_label(monkeypatch, k):
    drop_declaration(monkeypatch, k)
    result = run_stages(cc_config(horizon=30))
    expected = reference_n_sigma_definedness(result)
    assert not expected[0]
    assert definedness(result) == expected


# -- the responsibility replay, against the two-branch replay it replaces --------

def reference_mnode_visit_data(result):
    """Per copy-matching node: the (stage, t, k0) triples of its visits."""
    data = {}
    for ev in result.trace:
        if ev[0] == "mstat":
            _kind, s, node, t, k0, _k1, _bsize = ev
            data.setdefault(node, []).append((s, t, k0))
    return data


def reference_recompute_B(result, node, stage, t, k0):
    """B as the invariant suite replayed it before one rule served both
    variants: a cc branch over ancestor and descendant choosers, and a dc
    branch that takes C from the matcher's own state."""
    addr = node.addr

    def chosen_before(records):
        return any(
            st < stage or (st == stage and len(a) < len(addr))
            for a, st in records
        )

    def chosen_by_ext(records, prefix):
        return any(
            a[: len(prefix)] == prefix
            and (st < stage or (st == stage and len(a) < len(addr)))
            for a, st in records
        )

    def addr_records(key):
        return [(c.addr, st) for c, st in result.chosen.get(key, [])]

    fin = addr + (str(k0),)
    out = []
    if result.variant == "cc":
        for sigma in result.universe_strings(t):
            records = addr_records((sigma, None))
            if any(len(a) < len(addr) and addr[: len(a)] == a and chosen_before([(a, st)])
                   for a, st in records):
                continue
            if chosen_by_ext(records, fin):
                continue
            out.append((sigma, None))
    else:
        cpairs = set(node.state.C)
        for sigma in result.universe_strings(t):
            for a in (0, 1):
                if (sigma, a) in cpairs:
                    continue
                if chosen_by_ext(addr_records((sigma, a)), fin):
                    continue
                out.append((sigma, a))
    return set(out)


# Two mothers and three copies under one functional: matchers sit below a
# frozen diagonalizer's 1-outcome, which no other sample run has.
DC_UNDER_FROZEN = {
    "variant": "dc", "horizon": 60,
    "universe": {"rate": 50, "cap": 3, "f_rate": 80, "f_cap": 2},
    "mothers": 2,
    "phi": {"range": 10, "default": {"kind": "until", "s0": 12}},
    "functionals": [{"mother": 0, "round": 1, "kind": "length_threshold",
                     "min_len": 2, "value": 0}],
    "adversaries": [{"kind": "faithful", "delay": 2}, {"kind": "faithful", "delay": 1},
                    {"kind": "faithful", "delay": 3}],
}


def replay_run(name):
    from cubetree.config import config_from_dict
    from test_acceptance import CC_DEFECTIVE

    if name == "cc_faithful@80":
        return shipped_config("cc_faithful.json", 80)
    if name == "CC_DEFECTIVE@100":
        return config_from_dict(dict(CC_DEFECTIVE, horizon=100))
    if name == "dc_diagonal@60":
        return shipped_config("dc_diagonal.json", 60)
    return config_from_dict(DC_UNDER_FROZEN)


@pytest.mark.parametrize("name", [
    "cc_faithful@80", "CC_DEFECTIVE@100", "dc_diagonal@60", "dc_under_frozen@60",
])
def test_replayed_B_equals_the_two_branch_replay_at_every_visit(name):
    from cubetree.engine import ReqU
    from cubetree.verify import _replay_B

    result = run_stages(replay_run(name))
    visits = 0
    for node, rows in reference_mnode_visit_data(result).items():
        for stage, t, k0 in rows:
            assert _replay_B(result, node, stage, t, k0) \
                == reference_recompute_B(result, node, stage, t, k0), (node, stage)
            visits += 1
    assert visits
    if name == "dc_under_frozen@60":
        frozen = [u for u in result.nodes.values()
                  if isinstance(u.req, ReqU) and u.state.stolen is not None]
        below = [m for m in reference_mnode_visit_data(result)
                 if any(m.addr[: len(u.addr) + 1] == u.addr + ("1",) for u in frozen)]
        assert below


@pytest.mark.parametrize("config", [
    cc_config(horizon=40, adversaries=[faithful(delay=1)]),
    dc_config(horizon=40, mothers=2, adversaries=[faithful(delay=1)]),
], ids=["cc", "dc"])
def test_replay_leaves_out_keys_chosen_below_the_finite_outcome(config):
    """Fresh strings are born after a matcher's t, so in the sample runs no
    key of B is chosen below its finite outcome.  Two keys of B are chosen
    there by hand, one the stage before a later visit and one at it: only
    the first counts, since the chooser acts after the matcher."""
    from cubetree.verify import _replay_B

    result = run_stages(config)
    node, rows = next(iter(reference_mnode_visit_data(result).items()))
    _stage, t, k0 = rows[-1]
    early, late = sorted(reference_recompute_B(result, node, _stage, t, k0))[:2]
    s = result.horizon + 1
    chooser = result.node_at(node.addr + (str(k0), "o"))
    result.chosen.setdefault(early, []).append((chooser, s - 1))
    result.chosen.setdefault(late, []).append((chooser, s))
    B = _replay_B(result, node, s, t, k0)
    assert B == reference_recompute_B(result, node, s, t, k0)
    assert early not in B and late in B


@pytest.mark.parametrize("config", [
    cc_config(horizon=40, adversaries=[faithful(delay=2)]),
    dc_config(horizon=60, mothers=2, adversaries=[faithful(delay=2)],
              functionals=[{"mother": 0, "round": 3, "kind": "length_threshold",
                            "min_len": 3, "value": 0}]),
], ids=["cc", "dc"])
def test_trace_invariants_read_no_matcher_state(config):
    """The invariants check the matchers from the trace and the choice
    records, so they pass with every matcher's own state gone."""
    from cubetree.engine import ReqM

    result = run_stages(config)
    matchers = [n for n in result.nodes.values() if isinstance(n.req, ReqM)]
    assert matchers
    for node in matchers:
        node.state = None
    report = check_trace_invariants(result)
    assert report.ok, report.failures()


# -- negative controls: each corrupts a finished run minimally ---------------------

def mstat_rows(result):
    """Per matcher: the trace record index of each of its mstat events."""
    rows = {}
    for i, ev in enumerate(result.trace.records):
        if ev[0] == "mstat":
            rows.setdefault(ev[2], []).append(i)
    return rows


def set_t(result, i, t):
    ev = result.trace.records[i]
    result.trace.records[i] = ev[:3] + (t,) + ev[4:]


def lower_a_later_t(result):
    """A visit's t drops to 0 after a visit whose B held strings."""
    for node, rows in mstat_rows(result).items():
        for i, j in zip(rows, rows[1:]):
            _kind, stage, _node, t, k0, *_rest = result.trace.records[i]
            if reference_recompute_B(result, node, stage, t, k0):
                set_t(result, j, 0)
                return


def enter_between_finite_visits(result):
    """Two visits with only a finite outcome between them keep t; raising
    the later one's t to its stage lets the strings entered since join B."""
    for node, rows in mstat_rows(result).items():
        for i, j in zip(rows, rows[1:]):
            first, then = result.trace.records[i], result.trace.records[j]
            token = dict(node.outcomes)[first[1]]
            if not token.startswith("i") and result.universe_strings(then[1]) \
                    != result.universe_strings(then[3]):
                set_t(result, j, then[1])
                return


def raise_a_b_size(result):
    """One visit logs a |B| one larger than its B."""
    i = next(iter(mstat_rows(result).values()))[0]
    ev = result.trace.records[i]
    result.trace.records[i] = ev[:6] + (ev[6] + 1,)


def older_witness_later(result):
    """A later xtau row for a key names an element older than its last one."""
    last = {}
    for ev in result.trace.records:
        if ev[0] == "xtau" and ev[-1] is not None:
            last[ev[2:-1]] = ev
    for head, ev in last.items():
        stream = result.adversaries[head[0].req.index].stream
        older = [x for x in stream.elements(result.horizon)
                 if (stream.age(x), x) < (stream.age(ev[-1]), ev[-1])]
        if older:
            result.trace.records.append(("xtau", result.horizon + 1, *head, older[0]))
            return


def choose_at_birth(result):
    from cubetree.structure import birth_stage

    for (sigma, _sort), records in result.chosen.items():
        if sigma:
            records[0] = (records[0][0], birth_stage(sigma))
            return


def second_record(result):
    """A second chooser, the root, records the first chosen key."""
    records = next(iter(result.chosen.values()))
    records.append((result.nodes[()], records[0][1]))


# Slow copies, so the matchers take finite outcomes; the second cc matcher
# has a stability witness younger than the copy's oldest element.
NEGATIVE_RUN = {
    "cc": cc_config(horizon=30, adversaries=[faithful(delay=2), faithful(delay=1)]),
    "dc": dc_config(horizon=40, mothers=2, adversaries=[faithful(delay=3)]),
}


@pytest.mark.parametrize("variant, corrupt, name", [
    ("cc", raise_a_b_size, "responsibility-size"),
    ("dc", raise_a_b_size, "responsibility-size"),
    ("cc", lower_a_later_t, "responsibility-monotone"),
    ("dc", lower_a_later_t, "responsibility-monotone"),
    ("cc", enter_between_finite_visits, "responsibility-stable"),
    ("dc", enter_between_finite_visits, "responsibility-stable"),
    ("cc", older_witness_later, "witness-age-growth"),
    ("dc", older_witness_later, "witness-age-growth"),
    ("cc", choose_at_birth, "chosen-before-birth"),
    ("dc", choose_at_birth, "chosen-before-birth"),
    ("cc", second_record, "choose-once"),
    ("dc", second_record, "steal-only-by-diagonalizer"),
])
def test_each_trace_invariant_fails_on_its_corruption(variant, corrupt, name):
    result = run_stages(NEGATIVE_RUN[variant])
    assert check_trace_invariants(result).ok
    corrupt(result)
    report = check_trace_invariants(result)
    (row,) = [r for r in report.results if r.name == name]
    assert not row.ok and row.locus, row
    assert row.line().startswith(f"FAIL {name} (")
