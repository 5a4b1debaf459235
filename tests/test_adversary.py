import pytest
from hypothesis import given, strategies as st

from cubetree.adversary import (
    HOLE,
    Defect,
    FactStream,
    FaithfulGenerator,
    GroundEnumeration,
    Incidence,
    PermSpec,
    format_fact,
    make_faithful_copy,
    parse_fact_line,
    stream_from_lines,
)
from cubetree.config import ConfigError
from cubetree.structure import CubeElem, LabelStore, UniverseSchedule, elem, sorts


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


def reference_oldest_satisfying(stream, conjuncts, budget):
    """The query as it stood: the W conjunct's witnesses (else every element
    of age within the budget) sorted by (age, x) on each call, and every
    conjunct checked, the W one too."""
    pool = None
    for c in conjuncts:
        if c[0] == "W" and c[3] is HOLE:
            pool = stream.witnesses_W(c[1], c[2], budget)
            break
    if pool is None:
        pool = stream.elements(budget)
    pool = sorted(set(pool), key=lambda x: (stream.age(x), x))
    for x in pool:
        if all(stream.holds_within(tuple(x if p is HOLE else p for p in c), budget)
               for c in conjuncts):
            return x
    return None


ids = st.integers(0, 7)
sigmas = st.sampled_from([(), (0,), (1,), (0, 2)])
file_facts = st.one_of(
    st.tuples(st.just("W"), sigmas, st.none(), ids),
    st.tuples(st.just("S"), st.integers(0, 2), ids),
    st.tuples(st.just("E"), st.integers(0, 1), ids, ids),
    st.tuples(st.just("P"), ids, ids),
)
holed = st.one_of(
    st.tuples(st.just("S"), st.integers(0, 2), st.just(HOLE)),
    st.tuples(st.just("E"), st.integers(0, 1), st.just(HOLE), ids),
    st.tuples(st.just("P"), st.just(HOLE), ids),
    st.tuples(st.just("P"), ids, st.just(HOLE)),
)


@given(st.lists(st.tuples(st.integers(0, 9), file_facts), max_size=40),
       st.lists(st.tuples(sigmas, st.lists(holed, max_size=3), st.integers(0, 10)),
                min_size=1, max_size=6))
def test_oldest_satisfying_matches_the_reference_on_fact_file_streams(rows, queries):
    """Fact-file-like streams: any fact may name an element before its W
    fact does, ids come in any order, and facts repeat.  The W index keeps
    its witnesses in (age, x) order."""
    stream = FactStream()
    for step, fact in sorted(rows, key=lambda r: r[0]):
        stream.append(step, fact)
    for sigma, rest, budget in queries:
        xs = stream.witnesses_W(sigma, None, budget)
        assert xs == sorted(xs, key=lambda x: (stream.age(x), x))
        conjuncts = [("W", sigma, None, HOLE), *rest]
        assert (stream.oldest_satisfying(conjuncts, budget)
                == reference_oldest_satisfying(stream, conjuncts, budget))


def test_fact_line_round_trip():
    lines = [
        "3 W <1,4> - 0",
        "3 W <> 1 2",
        "4 S 2 0",
        "5 E 3 0 7",
        "6 P 0 7",
    ]
    both_sorts = sorts("cc") + sorts("dc")
    for line in lines:
        step, fact = parse_fact_line(line, both_sorts)
        assert format_fact(step, fact) == line
    stream = stream_from_lines(lines, both_sorts)
    assert len(stream) == 5


naturals = st.integers(0, 10**6)
any_facts = st.one_of(
    st.tuples(st.just("W"), st.lists(naturals, max_size=4).map(tuple),
              st.sampled_from([None, 0, 1]), naturals),
    st.tuples(st.just("S"), naturals, naturals),
    st.tuples(st.just("E"), naturals, naturals, naturals),
    st.tuples(st.just("P"), naturals, naturals),
)


@given(naturals, any_facts)
def test_format_fact_round_trips_through_parse_fact_line(step, fact):
    line = format_fact(step, fact)
    variant = "cc" if fact[0] == "W" and fact[2] is None else "dc"
    assert parse_fact_line(line, sorts(variant)) == (step, fact)


# Tokens of near-valid fact lines: numbers in and out of range, each kind,
# strings, sort marks and junk.
fact_tokens = st.sampled_from(["0", "3", "12", "-1", "-0", "+2", "1_0", "\u0663", "7", "W", "S",
                               "E", "P", "w", "<>", "<1,2>", "<-1>", "<1,,2>", "<\u0663>", "-",
                               "x", "#"])


@given(st.one_of(st.text(), st.lists(fact_tokens, max_size=6).map(" ".join)),
       st.sampled_from(["cc", "dc"]))
def test_a_fact_line_loads_or_names_its_source_and_line(line, variant):
    """Any text line either loads or ends in one ConfigError line naming the
    file and the line; no other exception escapes."""
    try:
        stream = stream_from_lines(["0 P 0 0", line], sorts(variant), "copy.facts")
    except ConfigError as exc:
        assert str(exc).startswith("copy.facts, line 2: ")
        assert len(str(exc).splitlines()) == 1
        return
    for step, fact in stream.facts_within(float("inf")):
        assert step >= 0 and all(v >= 0 for v in fact[1:] if isinstance(v, int))
        assert fact[0] != "W" or fact[2] in sorts(variant)


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
    g.entering = lambda s: [t for t in sched.base_strings(s)
                            if t not in sched.base_strings(s - 1)]
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
    """The scan the incidence index's children replace: the sorted last
    symbols of the visible strings one symbol longer than sigma that extend
    it."""
    return sorted({t[len(sigma)] for t in strings
                   if len(t) == len(sigma) + 1 and t[: len(sigma)] == sigma})


words = st.lists(st.integers(0, 4), max_size=4).map(tuple)


@given(st.lists(st.sets(words, max_size=12), max_size=6), st.lists(words, max_size=8))
def test_next_symbol_index_matches_scan(batches, probes):
    elems = []
    index = Incidence(elems)
    visible = set()
    for batch in batches:
        for t in sorted(batch - visible):
            elems.append(elem((), t))
            index.add(len(elems) - 1)
        visible |= batch
        for sigma in [*visible, *probes]:
            assert index.children.get((sigma, None), []) == scan_next_symbols(visible, sigma)


@pytest.mark.parametrize(
    "name", ["cc_faithful@80", "CC_DEFECTIVE@100", "dc_diagonal@50", "three_copies@80"])
def test_live_copies_match_the_reference_generator_at_every_stage(name, monkeypatch):
    """Beside each live copy, the reference generator ingests the same stage
    from the same slice and a plain store fed the live store's grows and
    declarations, so that it reads neither label stamps nor relabelled keys
    off the live store; after every stage both copies hold the same facts in
    the same order and the same element numbering."""
    from types import SimpleNamespace

    from reference_engine import ReferenceGenerator, ScanStore, fixed_configs

    from cubetree.engine import Engine

    config = fixed_configs()[name]
    engine = Engine(config)
    plain = ScanStore(config.variant)
    for method in ("grow", "declare"):
        def both(*args, live=getattr(engine.store, method), mirror=getattr(plain, method)):
            mirror(*args)
            return live(*args)
        monkeypatch.setattr(engine.store, method, both)
    ground = SimpleNamespace(store=plain, universe_strings=engine.universe_strings)
    refs = {spec.label: ReferenceGenerator(config.variant, engine.schedule, spec.permutation,
                                           spec.delay, spec.defects, spec.label)
            for spec in config.adversaries}
    live_ingest = FaithfulGenerator.ingest
    stages = []

    def checked_ingest(self, stage, live_ground):
        live_ingest(self, stage, live_ground)
        ref = refs[self.adversary.label]
        ref.ingest(stage, ground)
        assert (list(ref.adversary.stream.to_lines())
                == list(self.adversary.stream.to_lines())), stage
        assert ref.adversary.to_copy == self.adversary.to_copy, stage
        stages.append(stage)

    monkeypatch.setattr(FaithfulGenerator, "ingest", checked_ingest)
    engine.run()
    assert stages == [s for s in range(1, config.horizon + 1) for _ in refs]
    assert all(len(ref.adversary.stream) for ref in refs.values())


@pytest.mark.parametrize("name", ["cc_faithful@80", "CC_DEFECTIVE@100", "dc_diagonal@50"])
def test_labels_on_every_window_element_form_a_prefix_stamped_in_order(name):
    """The generator reads one top label per element: on every element of
    the final window the labels are S_0..S_{k-1}, and their stamps never
    decrease in n."""
    from reference_engine import fixed_configs

    from cubetree.engine import run_stages

    result = run_stages(fixed_configs()[name])
    store = result.store
    elements = result.snapshot().elements()
    assert any(len(store.labels(e)) > 1 for e in elements)
    for e in elements:
        labels = store.labels(e)
        assert labels == list(range(len(labels))), e
        stamps = [store.label_stamp(n, e) for n in labels]
        assert stamps == sorted(stamps), e


def copy_work_counter(monkeypatch, *methods):
    """Tally the calls of each (class, name) in methods by whether copy work
    is running: a copy's ingest or the shared enumeration's batch, wherever
    either is called from.  Returns name -> {False: calls, True: calls}."""
    depth = 0
    tally = {name: {False: 0, True: 0} for _cls, name in methods}

    def region(fn):
        def wrapped(*args, **kw):
            nonlocal depth
            depth += 1
            try:
                return fn(*args, **kw)
            finally:
                depth -= 1
        return wrapped

    def counted(name, fn):
        def wrapped(*args, **kw):
            tally[name][depth > 0] += 1
            return fn(*args, **kw)
        return wrapped

    for cls, name in (FaithfulGenerator, "ingest"), (GroundEnumeration, "batch"):
        monkeypatch.setattr(cls, name, region(getattr(cls, name)))
    for cls, name in methods:
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    return tally


def test_ingest_never_probes_a_label_stamp(monkeypatch):
    """Counted work, not time: on CC_FAITHFUL at h=150 the copies, with the
    enumeration they share, read one top label per element and no per-label
    stamp.  A probe made after the run shows that the count reaches the
    store."""
    from test_acceptance import CC_FAITHFUL

    from cubetree.config import config_from_dict
    from cubetree.engine import run_stages

    probes = copy_work_counter(monkeypatch, (LabelStore, "label_stamp"))["label_stamp"]
    result = run_stages(config_from_dict(dict(CC_FAITHFUL, horizon=150)))
    assert all(len(adv.stream) for adv in result.adversaries)
    assert probes[True] == 0, probes
    outside = probes[False]
    assert result.store.label_stamp(0, elem((), ())) is not None
    assert probes[False] == outside + 1


def test_one_enumeration_serves_every_copy(monkeypatch):
    """Counted work, not time: on configs/cc_faithful.json at h=80, with two
    copies, the run reads the links of each cube element once, and the
    copies read at most one top label per element per relabelling: one for
    the element's backlog and one per stage that relabels its key after it
    entered."""
    from reference_engine import fixed_configs

    from cubetree.engine import Engine

    config = fixed_configs()["cc_faithful@80"]
    assert len(config.adversaries) == 2
    engine = Engine(config)
    tally = copy_work_counter(monkeypatch, (Incidence, "links"), (LabelStore, "top_label"))
    engine.run()
    cube = [e for e in engine.adversaries[0].to_ground.values() if isinstance(e, CubeElem)]
    links, tops = tally["links"], tally["top_label"]
    assert links[True] + links[False] == len(cube) > 0
    relabellings = sum(len(engine.schedule.fsets(s))
                       for s in range(1, config.horizon + 1)
                       for sigma, _sort in set(engine.store.relabelled(s))
                       if engine.entered.get(sigma, s + 1) <= s)
    assert 0 < tops[True] <= len(cube) + relabellings, (tops, len(cube), relabellings)


def test_oldest_satisfying_never_sorts(monkeypatch):
    """Counted work, not time: on CC_FAITHFUL at h=150 the witness query
    reads the W index in its kept order and sorts nothing."""
    import builtins

    from test_acceptance import CC_FAITHFUL

    from cubetree import adversary
    from cubetree.config import config_from_dict
    from cubetree.engine import run_stages

    query = FactStream.oldest_satisfying
    inside = False
    calls = {"query": 0, "sorted": 0}

    def counted_query(self, conjuncts, budget):
        nonlocal inside
        calls["query"] += 1
        inside = True
        try:
            return query(self, conjuncts, budget)
        finally:
            inside = False

    def counted_sorted(*args, **kw):
        calls["sorted"] += inside
        return builtins.sorted(*args, **kw)

    monkeypatch.setattr(FactStream, "oldest_satisfying", counted_query)
    monkeypatch.setattr(adversary, "sorted", counted_sorted, raising=False)
    run_stages(config_from_dict(dict(CC_FAITHFUL, horizon=150)))
    assert calls["query"] > 0
    assert calls["sorted"] == 0, calls
