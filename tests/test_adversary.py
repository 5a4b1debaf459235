from hypothesis import given, strategies as st

from cubetree.adversary import (
    HOLE,
    Defect,
    FactStream,
    FaithfulGenerator,
    PermSpec,
    make_faithful_copy,
    parse_fact_line,
    stream_from_lines,
)
from cubetree.structure import LabelStore, UniverseSchedule, elem


def small_stream():
    stream = FactStream()
    stream.append(3, ("W", (1,), None, 0))
    stream.append(3, ("S", 0, 0))
    stream.append(5, ("W", (2,), None, 1))
    stream.append(7, ("S", 0, 1))
    stream.append(9, ("P", 0, 1))
    return stream


def test_holds_within_budgets():
    stream = small_stream()
    assert stream.holds_within(("W", (1,), None, 0), 3)
    assert not stream.holds_within(("W", (1,), None, 0), 2)
    assert stream.holds_within(("S", 0, 1), 7)
    assert not stream.holds_within(("S", 0, 1), 5)
    assert not stream.holds_within(("S", 9, 9), 100)
    assert not stream.holds_within(("P", 0, 1), 0)


def test_duplicate_facts_keep_earliest_stamp():
    stream = FactStream()
    stream.append(2, ("S", 0, 4))
    stream.append(6, ("S", 0, 4))
    assert stream.holds_within(("S", 0, 4), 2)
    assert len(stream) == 1


def test_ages_and_elements():
    stream = small_stream()
    assert stream.age(0) == 3
    assert stream.age(1) == 5
    assert stream.elements(4) == [0]
    assert stream.elements(100) == [0, 1]


def test_oldest_satisfying_prefers_older_witness():
    stream = FactStream()
    stream.append(2, ("W", (1,), None, 7))
    stream.append(2, ("S", 0, 7))
    stream.append(9, ("W", (1,), None, 3))
    stream.append(9, ("S", 0, 3))
    got = stream.oldest_satisfying([("W", (1,), None, HOLE), ("S", 0, HOLE)], 100)
    assert got == 7
    assert stream.oldest_satisfying([("W", (1,), None, HOLE), ("S", 0, HOLE)], 1) is None


def test_oldest_satisfying_tie_breaks_to_smaller():
    stream = FactStream()
    stream.append(2, ("W", (1,), None, 9))
    stream.append(2, ("W", (1,), None, 4))
    got = stream.oldest_satisfying([("W", (1,), None, HOLE)], 5)
    assert got == 4


def test_fact_line_round_trip():
    lines = [
        "3 W <1,4> - 0",
        "3 W <> 1 2",
        "4 S 2 0",
        "5 E 3 0 7",
        "6 P 0 7",
    ]
    for line in lines:
        step, fact = parse_fact_line(line)
        from cubetree.adversary import format_fact

        assert format_fact(step, fact) == line
    stream = stream_from_lines(lines)
    assert len(stream) == 5


def test_permutations():
    ident = PermSpec()
    assert [ident.apply(i) for i in range(4)] == [0, 1, 2, 3]
    rot = PermSpec("block_rotate", 4, 1)
    assert [rot.apply(i) for i in range(8)] == [1, 2, 3, 0, 5, 6, 7, 4]
    seen = {rot.apply(i) for i in range(64)}
    assert seen == set(range(64))


# -- faithful generation ------------------------------------------------------


def tiny_ground(variant="cc", horizon=6):
    """A hand-driven ground state: the root string grows every stage."""
    store = LabelStore(variant=variant)
    sched = UniverseSchedule(rate=2, cap=2, f_rate=3, f_cap=1)
    sorts = (None,) if variant == "cc" else (0, 1)

    class Ground:
        pass

    g = Ground()
    g.variant = variant
    g.schedule = sched
    g.horizon = horizon
    g.store = store
    g.universe_strings = sched.base_strings
    for s in range(1, horizon + 1):
        for sort in sorts:
            store.grow((), sort, s)
        for sigma in sched.base_strings(s):
            for sort in sorts:
                if store.label_stamp(0, elem((), sigma, sort)) is None:
                    store.declare(0, elem((), sigma, sort), s)
    return g


def test_identity_copy_reveals_ground_with_delay():
    ground = tiny_ground()
    adv = make_faithful_copy(ground, delay=2)
    stream = adv.stream
    root = adv.to_copy[elem((), ())]
    # The root's W fact appears at its visibility stage plus the delay.
    assert stream.holds_within(("W", (), None, root), 3)
    assert not stream.holds_within(("W", (), None, root), 2)
    # Label declared at ground stage s surfaces at s + delay.
    assert stream.holds_within(("S", 0, root), 3)
    assert stream.holds_within(("S", 3, root), 6)
    assert not stream.holds_within(("S", 3, root), 5)


def test_permuted_copy_is_pushforward():
    ground = tiny_ground()
    ident = make_faithful_copy(ground, delay=1)
    rot = make_faithful_copy(ground, delay=1, permutation=PermSpec("block_rotate", 8, 3))
    assert set(ident.to_ground.values()) == set(rot.to_ground.values())
    for e, x in rot.to_copy.items():
        assert rot.to_ground[x] == e
    # Same facts modulo renaming.
    assert len(ident.stream) == len(rot.stream)


def test_delay_shifts_every_stamp():
    ground = tiny_ground()
    a0 = make_faithful_copy(ground, delay=1)
    a5 = make_faithful_copy(ground, delay=6)
    f0 = {fact: step for step, fact in a0.stream.facts_within(10**9)}
    f5 = {fact: step for step, fact in a5.stream.facts_within(10**9)}
    assert set(f0) == set(f5)
    assert all(f5[fact] - f0[fact] == 5 for fact in f0)


def test_structure_facts_present():
    ground = tiny_ground()
    adv = make_faithful_copy(ground, delay=1)
    stream = adv.stream
    horizon = 100
    root = adv.to_copy[elem((), ())]
    child = adv.to_copy.get(elem((), (0,)))
    assert child is not None
    assert stream.holds_within(("P", root, child), horizon)
    f_elem = adv.to_copy.get(elem({0}, ()))
    assert f_elem is not None
    assert stream.holds_within(("E", 0, root, f_elem), horizon)
    assert stream.holds_within(("E", 0, f_elem, root), horizon)
    assert stream.edge_targets(0, root, horizon) == [f_elem]


def test_omit_label_defect():
    ground = tiny_ground()
    adv = make_faithful_copy(ground, delay=1,
                   defects=(Defect("omit_label", n=0, sigma=(0,)),))
    target = adv.to_copy[elem((), (0,))]
    assert not adv.stream.holds_within(("S", 0, target), 10**9)
    root = adv.to_copy[elem((), ())]
    assert adv.stream.holds_within(("S", 0, root), 10**9)


def test_break_p_defect():
    ground = tiny_ground()
    adv = make_faithful_copy(ground, delay=1, defects=(Defect("break_p", sigma=(), j=0),))
    root = adv.to_copy[elem((), ())]
    child = adv.to_copy[elem((), (0,))]
    assert not adv.stream.holds_within(("P", root, child), 10**9)


def test_freeze_after_zero_gives_empty_stream():
    ground = tiny_ground()
    adv = make_faithful_copy(ground, delay=1, defects=(Defect("freeze_after", step=0),))
    assert len(adv.stream) == 0


def test_dc_copy_has_u_pair_and_links():
    ground = tiny_ground(variant="dc")
    adv = make_faithful_copy(ground, delay=1)
    from cubetree.structure import UElem

    u0 = adv.to_copy[UElem(0)]
    u1 = adv.to_copy[UElem(1)]
    base0 = adv.to_copy[elem((), (), sort=0)]
    assert adv.stream.holds_within(("P", u0, base0), 10**9)
    assert not adv.stream.holds_within(("P", u1, base0), 10**9)
    odd = adv.to_copy.get(elem({0}, (), sort=0))
    assert odd is not None
    assert adv.stream.holds_within(("P", u1, odd), 10**9)


def test_defective_copy_from_run():
    from conftest import cc_config
    from cubetree.adversary import make_faithful_copy
    from cubetree.engine import run_stages

    result = run_stages(cc_config(horizon=15))
    clean = make_faithful_copy(result, delay=1)
    broken = make_faithful_copy(result, defects=(Defect("omit_label", n=0, sigma=(0,)),),
                                label="defective", delay=1)
    target = broken.to_copy[elem((), (0,))]
    assert clean.stream.holds_within(("S", 0, clean.to_copy[elem((), (0,))]), 10**9)
    assert not broken.stream.holds_within(("S", 0, target), 10**9)


def test_faithful_ground_truth_is_isomorphism_at_any_horizon():
    from conftest import cc_config, faithful
    from cubetree.engine import run_stages
    from cubetree.verify import check_isomorphism

    result = run_stages(cc_config(horizon=25, adversaries=[faithful(delay=2)]))
    adv = result.adversaries[0]
    for horizon in (10, 18, 25):
        report = check_isomorphism(
            lambda e: adv.to_copy.get(e), result.snapshot(), adv, horizon
        )
        assert report.ok, (horizon, report.failures())


def scan_next_symbols(strings, sigma):
    """The scan the generator's index replaces: the sorted last symbols of
    the visible strings one symbol longer than sigma that extend it."""
    return sorted({t[len(sigma)] for t in strings
                   if len(t) == len(sigma) + 1 and t[: len(sigma)] == sigma})


words = st.lists(st.integers(0, 4), max_size=4).map(tuple)


@given(st.lists(st.sets(words, max_size=12), max_size=6), st.lists(words, max_size=8))
def test_next_symbol_index_matches_scan(batches, probes):
    gen = FaithfulGenerator("cc", UniverseSchedule())
    for batch in batches:
        gen._add_strings(sorted(batch - gen._strings))
        for sigma in [*gen._strings, *probes]:
            assert gen._next_symbols.get(sigma, []) == scan_next_symbols(gen._strings, sigma)
