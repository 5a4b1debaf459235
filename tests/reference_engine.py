"""The plain reference engine: `Engine` with every stage-loop fast path
replaced by the plain formula it replaced.  Each plain formula lives here
once; the tests of a single fast path import it from here.

- Idle tails and child links: `ReferenceEngine.run` types, acts on and
  pushes every depth, one record per event, and finds each node by address.
- `PathIndex.lead`: `reference_first_fit` scans the order from its start.
- `PathIndex` mothers, coverage and frozen diagonalizers: `WalkedPath` and
  the `walk_*` functions walk the path.
- Interned `KeyRecord`s and the `Node.grew` memo: `ScanStore` rescans the
  events, and `ReferenceEngine.grow` scans the choice records at every grow.
- The incremental matcher: `reference_visit` rebuilds B, its children index
  and the keys chosen below from scratch and checks every key of B.
- The shared `GroundEnumeration`: `ReferenceGenerator` builds each copy on
  its own.
- The claim checks: `replay_B` rebuilds a matcher's B at each visit from
  every entered string and every choice record, where `verify.ReplayedB`
  updates it by deltas; `reference_check_isomorphism` is the ordered loop
  the streamed `check_isomorphism` replaced.

`tests/test_reference_engine.py` checks that both engines write the same
artifacts.  `REPLACED` names what the reference stands in for, so that a
renamed fast path fails a test instead of running in the reference too.
"""

from bisect import insort
from itertools import count

from conftest import is_frozen

from cubetree import cc, dc
from cubetree.adversary import FACT_ARG0, HOLE, Adversary, FactStream
from cubetree.engine import Engine, ReqDaughter, ReqIdle, ReqM, ReqMother, ReqU, req_label
from cubetree.match import _fields, oldest_witness
from cubetree.structure import (
    CubeElem,
    GrowEvent,
    Snapshot,
    UElem,
    UndefinedLabel,
    birth_stage,
    format_elem,
    format_string,
    holds_P,
    ladder_key,
    sorts,
)
from cubetree.verify import Report, snapshot_view, true_facts

# What the reference stands in for, as (module, attribute path) under
# `cubetree`: Engine methods it overrides or never calls, hooks it does not
# call, the classes of the objects it replaces, and the claim checks it
# has plain formulas of.
REPLACED = [
    ("engine", "Engine.run"), ("engine", "Engine.first_fit"), ("engine", "Engine.grow"),
    ("engine", "Engine._child"), ("engine", "Engine._visit_tail"),
    ("engine", "Engine.keys_chosen_below"), ("engine", "Trace.add_tail"),
    ("engine", "PathIndex"),
    ("cc", "act_M"), ("dc", "act_M"), ("cc", "compute_B"), ("dc", "compute_B_pairs"),
    ("match", "act_M"), ("match", "responsibility_set"), ("match", "MatcherState"),
    ("structure", "LabelStore"), ("structure", "KeyRecord"),
    ("adversary", "FaithfulGenerator.ingest"), ("adversary", "GroundEnumeration.batch"),
    ("verify", "ReplayedB"), ("verify", "check_isomorphism"),
]


# ---------------------------------------------------------------------------
# Typing: a scan of the priority order from its start.

def reference_first_fit(engine, accepts):
    """The first requirement of the priority order that accepts takes, scanned
    from the order's start and drawing more of the order as needed; Idle once
    a finite order runs out."""
    ordering = engine.ordering
    for k in count():
        if k == len(ordering):
            req = next(engine._ordering_rest, None)
            if req is None:
                return ReqIdle()
            ordering.append(req)
        if accepts(ordering[k]):
            return ordering[k]


# ---------------------------------------------------------------------------
# The two-sorted path lookups as walks of the path's nodes, root first, down
# to the address addr below them.

def walk_daughter_coverage(nodes):
    """Largest n of a daughter among the nodes, per (slot, sort)."""
    best = {}
    for nd in nodes:
        if isinstance(nd.req, ReqDaughter):
            key = (nd.req.r, nd.req.a)
            best[key] = max(best.get(key, 0), nd.req.n)
    return best


def walk_frozen_us(nodes, addr):
    """The frozen diagonalizers whose 1-outcome the path to addr takes."""
    return [nd for nd in nodes
            if isinstance(nd.req, ReqU) and is_frozen(nd)
            and len(addr) > len(nd.addr) and addr[len(nd.addr)] == "1"]


def walk_resolve_gamma(nodes, node):
    """(provider, inherited string) of a daughter below the path nodes: the
    deepest of her mother, the previous daughter of her family and a
    qualifying frozen diagonalizer."""
    req = node.req
    theta = next((nd for nd in nodes if nd.req == ReqMother(req.r, req.a)), None)
    if theta is None:
        raise dc.GammaUnresolved(f"daughter {node} has no mother")
    v_theta = theta.state.v
    for nd in reversed(nodes):
        if nd is theta:
            return nd, theta.state.sigma
        if nd.req == ReqDaughter(req.r, req.n - 1, req.a):
            alpha = node.addr[len(nd.addr)]
            sig = nd.state.sig
            if alpha not in sig:
                raise dc.GammaUnresolved(f"previous daughter {nd} lacks outcome {alpha}")
            return nd, sig[alpha]
        if (isinstance(nd.req, ReqU) and is_frozen(nd)
                and node.addr[len(nd.addr)] == "1"):
            i = nd.state.i
            if (req.a == 0 and i == v_theta) or (req.a == 1 and i > v_theta):
                stolen = nd.state.stolen.get(theta)
                if stolen is None:
                    raise dc.GammaUnresolved(f"frozen {nd} holds nothing for this mother")
                return nd, stolen
    raise dc.GammaUnresolved(f"no provider for {node}")


class WalkedPath:
    """The stage path as `PathIndex` presents it to the strategy hooks, with
    each lookup a walk of the path's nodes.  addr is the address below the
    last node pushed: the node the loop visits next."""

    def __init__(self, nodes=(), addr=()):
        self.nodes = list(nodes)
        self.addr = addr

    def push(self, node, token):
        self.nodes.append(node)
        self.addr = node.addr + (token,)

    @property
    def by_req(self):
        return {nd.req: nd for nd in self.nodes}

    @property
    def mothers(self):
        return [nd for nd in self.nodes if isinstance(nd.req, ReqMother)]

    @property
    def coverage(self):
        return walk_daughter_coverage(self.nodes)

    @property
    def frozen(self):
        return walk_frozen_us(self.nodes, self.addr)


# ---------------------------------------------------------------------------
# The label store: every query rescans the key's whole event list.

class ScanStore:
    """A label store whose queries rescan the events: a grow reads its
    pre-top with `top_label`, and no key is interned."""

    def __init__(self, variant="cc"):
        self.variant = variant
        self.events = {}  # (sigma, sort) -> its growth events
        self.direct = {}  # element -> {n: stage}
        self.log = []  # the growth events and direct (stage, n, element) declarations

    def grows(self, sigma, sort):
        return self.events.get((tuple(sigma), sort), [])

    def grow(self, sigma, sort, stage):
        sigma = tuple(sigma)
        pre = self.top_label(CubeElem(frozenset(), sigma, sort))
        ev = GrowEvent(stage, -1 if pre is None else pre, sigma, sort)
        self.events.setdefault((sigma, sort), []).append(ev)
        self.log.append(ev)
        return ev

    def declare(self, n, e, stage):
        if self.label_stamp(n, e) is not None:
            return False
        self.direct.setdefault(e, {})[n] = stage
        self.log.append((stage, n, e))
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

    def n_sigma(self, sigma, sort, s):
        top = self.top_label(CubeElem(frozenset(), tuple(sigma), sort), before=s)
        if top is None:
            raise UndefinedLabel(f"no label on {format_string(tuple(sigma))} before stage {s}")
        return top

    def declaration_events(self):
        """The growth events and direct declarations by stage, ties as recorded."""
        return sorted(self.log, key=lambda ev: ev[0])

    def relabelled(self, stage):
        """The keys whose empty-set vertex got a label stamped at stage, in
        record order."""
        return [(ev.sigma, ev.sort) if isinstance(ev, GrowEvent) else (ev[2].sigma, ev[2].sort)
                for ev in self.log
                if ev[0] == stage and (isinstance(ev, GrowEvent) or not ev[2].fset)]


def scan_declarations(store, stage_bound, fsets):
    """The snapshot expansion of a store's declaration events, one row per
    label per vertex, with a cursor per element."""
    rows, cursor, sparse = [], {}, set()
    window_f = sorted(fsets, key=lambda f: (len(f), tuple(sorted(f))))

    def extend(e, upto, stage):
        start = cursor.get(e, 0)
        for n in range(start, upto):
            if (n, e) not in sparse:
                rows.append((stage, n, e))
        if upto > start:
            cursor[e] = upto

    for ev in store.declaration_events():
        stage = ev[0]
        if stage > stage_bound:
            continue
        if not isinstance(ev, GrowEvent):
            _stage, n, e = ev
            if n >= cursor.get(e, 0) and (n, e) not in sparse:
                sparse.add((n, e))
                rows.append((stage, n, e))
            continue
        extend(CubeElem(frozenset(), ev.sigma, ev.sort), ev.pre_top + 2, stage)
        if ev.pre_top > 0:
            for f in window_f:
                if not f or max(f) >= stage:
                    continue
                extend(CubeElem(f, ev.sigma, ev.sort), ev.pre_top, stage)
    return rows


# ---------------------------------------------------------------------------
# The copy matcher as it stood before it kept its state across visits: B
# rebuilt from the universe by a scan of the choice records, the children
# index rebuilt from B, and every bullet checked on every key of B.

def reference_chosen_below(engine, prefix):
    """The keys some node at or below prefix is recorded as choosing."""
    return {key for key, records in engine.chosen.items()
            if any(c.addr[:len(prefix)] == prefix for c, _stage in records)}


def reference_B(engine, node, C, t, k0):
    """B by the paper's definition, in ladder order: the stage-t universe less
    the starting set C and less the keys chosen below the finite outcome
    str(k0)."""
    excluded = reference_chosen_below(engine, node.addr + (str(k0),)) | set(C)
    return [(sigma, sort) for sigma in engine.universe_strings(t)
            for sort in sorts(engine.variant) if (sigma, sort) not in excluded]


def reference_children_index(pool):
    """Parent key -> its children in pool, sorted."""
    index = {}
    for key in pool:
        sigma, sort = key
        if sigma:
            index.setdefault((sigma[:-1], sort), []).append(key)
    for kids in index.values():
        kids.sort()
    return index


def reference_visit(engine, node, s, st=None, emit=None):
    """One visit of the plain matcher.  Its state is the dict st, by default
    one kept in node.state; its events go to emit, by default engine.emit."""
    if st is None:
        if node.state is None:
            node.state = {}
        st = node.state
    emit = emit or engine.emit
    if "C" not in st:
        start = cc._tree_images if engine.variant == "cc" else dc._c_pairs
        st.update(C=start(engine, node), f={}, k0=0, k1=0, t=0, x_at_t={})
    stream = engine.adversaries[node.req.index].stream
    f = st["f"]
    t, k0, k1 = st["t"], st["k0"], st["k1"]
    B = reference_B(engine, node, st["C"], t, k0)
    emit("mstat", s, node, t, k0, k1, len(B))
    for key in B:
        if key not in f:
            x = oldest_witness(engine.store, stream, key, t + 1, s)
            if x is not None:
                f[key] = x
                emit("ftau", s, node, *_fields(key), x)
    children = reference_children_index(B)
    for key in B:
        bullet = None
        if key not in f:
            bullet = 1
        elif not stream.holds_within(("S", engine.store.n_sigma(*key, t + 1), f[key]), s):
            bullet = 2
        elif any(child not in f or not stream.holds_within(("P", f[key], f[child]), s)
                 for child in children.get(key, ())):
            bullet = 3
        if bullet:
            emit("mfail", s, node, *_fields(key), bullet)
            return str(k0)
    D = set(B) - reference_chosen_below(engine, node.addr + ("ii",))
    xs = {}
    stable = True
    for key in st["C"]:
        sigma, sort = key
        conjuncts = [("W", sigma, sort, HOLE)]
        conjuncts += [("P", HOLE, f[child]) for child in children.get(key, ()) if child in D]
        x = stream.oldest_satisfying(conjuncts, s)
        xs[key] = x
        emit("xtau", s, node, *_fields(key), x)
        if x is None or x != st["x_at_t"].get(key):
            stable = False
    token = f"i{k1}" if stable else "ii"
    st.update(x_at_t=xs, t=s, k0=k0 + 1)
    if token == "ii":
        st["k1"] = k1 + 1
    return token


# ---------------------------------------------------------------------------
# The claim checks as plain formulas: B rebuilt at each matcher visit, and the
# isomorphism check as one ordered loop over the true facts.

def replay_B(result, m, s, t, k0):
    """B of matcher m at its stage-s visit, from m's t and k0 and the choice
    records alone: every key whose string entered by stage t, less the keys
    that a counting record leaves out.  A record (c, st) counts when st < s,
    or st = s and c is shallower than m, since a stage path acts ancestors
    first.  It leaves its key out when c is at or below m's finite outcome,
    or when c is an ancestor that took the outcome towards m at st."""
    addr = m.addr
    fin = addr + (str(k0),)
    left_out = set()
    for key, records in result.chosen.items():
        for c, st in records:
            above = len(c.addr) < len(addr)
            counts = st < s or st == s and above
            if counts and (c.addr[:len(fin)] == fin or above and
                           addr[:len(c.addr) + 1] == c.addr + (dict(c.outcomes).get(st),)):
                left_out.add(key)
                break
    keys = sorts(result.variant)
    return {(sigma, sort) for sigma, e in result.entered.items() if e <= t
            for sort in keys} - left_out


def reference_check_isomorphism(g, source, target, horizon=None):
    """`check_isomorphism` as one ordered loop: each true fact and its image
    as a tuple, the per-argument chosen test on every fact, the label sets
    due by the lag built up front, and the stream probed through
    `holds_within`."""
    if isinstance(target, Snapshot):
        view = snapshot_view(target)
        return reference_check_isomorphism(lambda e: view.to_copy.get(g(e)), source, view,
                                           source.stage)
    if horizon is None:
        horizon = source.stage
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
    label_bound = max(0, min(source.stage, horizon) - target.delay)
    due = [isinstance(e, CubeElem) and set(source.store.labels(e, upto=label_bound))
           for e in elems]
    back = {x: k for k, x in enumerate(images)}
    chosen = [back[x] == k for k, x in enumerate(images)]
    sound = set()
    locus = {}
    for fact in true_facts(elems, source.labels):
        kind, k = fact[0], FACT_ARG0[fact[0]]
        args = fact[k:]
        image = fact[:k] + tuple(images[x] for x in args)
        if all(chosen[x] for x in args):
            sound.add(image)
        if (kind not in locus and (kind != "S" or fact[1] in due[fact[2]])
                and not stream.holds_within(image, horizon)):
            names = [format_elem(elems[x]) for x in args]
            head = f"S_{fact[1]} " if kind == "S" else ""
            locus[kind] = head + ("-" if kind == "E" else "->").join(names)
    for _step, fact in stream.facts_within(horizon):
        args = fact[FACT_ARG0[fact[0]]:]
        if fact not in sound and covered.issuperset(args):
            head = f"S_{fact[1]}" if fact[0] == "S" else fact[0]
            locus["sound"] = f"{head} at {','.join(map(str, args))}"
            break
    for kind in "WSEP":
        report.add(f"respects-{kind}", kind not in locus, locus.get(kind, ""))
    report.add("sound", "sound" not in locus, locus.get("sound", ""))
    return report


# ---------------------------------------------------------------------------
# Faithful copies, each generated on its own.

class ReferenceGenerator:
    """The generator before it read the ground's stage record or shared an
    enumeration: each copy diffs the stage's slice against the strings it
    has seen, reads the keys relabelled in the stage, finds each label's
    stamp with one probe per label, and sends each fact through its own
    defects and into its stream one at a time."""

    def __init__(self, variant, schedule, permutation, delay, defects, label):
        self.variant = variant
        self.schedule = schedule
        self.permutation = permutation
        self.defects = defects
        self.adversary = Adversary(FactStream(), label=label, delay=delay)
        self._frozen = False
        self._strings = set()
        self._fsets = []
        self._by_key = {}
        self._next_symbols = {}
        self._next_label = {}

    def _alloc(self, e):
        x = self.permutation.apply(len(self.adversary.to_ground))
        self.adversary.to_ground[x] = e
        self.adversary.to_copy[e] = x
        if isinstance(e, CubeElem):
            self._by_key.setdefault((e.sigma, e.sort), []).append(e)

    def _emit(self, step, fact):
        if self._frozen:
            return
        to_ground = self.adversary.to_ground
        for d in self.defects:
            if d.kind == "freeze_after" and step > d.step:
                self._frozen = True
                return
            if d.kind == "omit_label" and fact[0] == "S":
                ge = to_ground[fact[2]]
                if (isinstance(ge, CubeElem) and fact[1] == d.n and ge.sigma == d.sigma
                        and (d.sort is None or ge.sort == d.sort)):
                    return
            if d.kind == "break_p" and fact[0] == "P":
                ge1, ge2 = to_ground[fact[1]], to_ground[fact[2]]
                if (isinstance(ge1, CubeElem) and isinstance(ge2, CubeElem)
                        and ge1.sigma == d.sigma and ge2.sigma == d.sigma + (d.j,)
                        and (d.sort is None or ge1.sort == d.sort)):
                    return
        self.adversary.stream.append(step, fact)

    def _emit_labels(self, step, e, store, upto_stage):
        n = self._next_label.get(e, 0)
        while (stamp := store.label_stamp(n, e)) is not None and stamp <= upto_stage:
            self._emit(step, ("S", n, self.adversary.to_copy[e]))
            n += 1
        self._next_label[e] = n

    def ingest(self, stage, ground):
        step = stage + self.adversary.delay
        to_copy, keys = self.adversary.to_copy, sorts(self.variant)
        universe, fsets = ground.universe_strings(stage), self.schedule.fsets(stage)
        widened = [f for f in fsets if f not in self._fsets]
        fresh = [sigma for sigma in universe if sigma not in self._strings]
        new = [UElem(0), UElem(1)] if stage == 1 and self.variant == "dc" else []
        new += [CubeElem(f, sigma, a) for sigma in universe if sigma in self._strings
                for f in widened for a in keys]
        new += [CubeElem(f, sigma, a) for sigma in fresh for f in fsets for a in keys]
        self._strings.update(fresh)
        for sigma in fresh:
            if sigma:
                insort(self._next_symbols.setdefault(sigma[:-1], []), sigma[-1])
        self._fsets = fsets
        for e in new:
            self._alloc(e)
        cube = [e for e in new if isinstance(e, CubeElem)]
        for e in cube:
            self._emit(step, ("W", e.sigma, e.sort, to_copy[e]))
        for e in cube:
            x = to_copy[e]
            for other in self._by_key[(e.sigma, e.sort)]:
                diff = other.fset ^ e.fset
                if len(diff) == 1:
                    (i,) = diff
                    self._emit(step, ("E", i, x, to_copy[other]))
                    self._emit(step, ("E", i, to_copy[other], x))
            for other in self._by_key.get((e.sigma[:-1], e.sort), []) if e.sigma else ():
                if holds_P(other, e):
                    self._emit(step, ("P", to_copy[other], x))
            for j in self._next_symbols.get(e.sigma, ()):
                for other in self._by_key.get((e.sigma + (j,), e.sort), []):
                    if holds_P(e, other):
                        self._emit(step, ("P", x, to_copy[other]))
            for u in (UElem(0), UElem(1)):
                if u in to_copy and holds_P(u, e):
                    self._emit(step, ("P", to_copy[u], x))
        for e in cube:
            self._emit_labels(step, e, ground.store, stage)
        relabelled = sorted(set(ground.store.relabelled(stage)),
                            key=lambda k: (ladder_key(k[0]), -1 if k[1] is None else k[1]))
        for key in relabelled:
            for e in self._by_key.get(key, []):
                self._emit_labels(step, e, ground.store, stage)


# ---------------------------------------------------------------------------
# The engine.

class ReferenceEngine(Engine):
    """`Engine` with the plain formulas listed at the top of this module: its
    own store, path and copies, a stage loop without tails or child links, a
    full-scan typing, grows without the chooser memo and the plain matcher."""

    def __init__(self, config):
        super().__init__(config)
        self.store = ScanStore(self.variant)
        self.path = WalkedPath()
        self._generators = []
        for i, spec in enumerate(config.adversaries):
            if spec.kind == "faithful":
                gen = ReferenceGenerator(self.variant, self.schedule, spec.permutation,
                                         spec.delay, spec.defects, spec.label)
                self._generators.append(gen)
                self.adversaries[i] = gen.adversary

    def run(self):
        """Every depth of every stage path is typed through the strategy's
        assign_type, acted on and pushed, one trace record per event."""
        for s in range(1, self.horizon + 1):
            self.mention(s)
            self.emit("stage", s)
            self.emit("window", s, self.schedule.width(s), self.schedule.f_width(s))
            for sigma in self.schedule.base_strings(s):
                self._enter(sigma, s)
            addr = ()
            self.path = WalkedPath()
            for _depth in range(s + 1):
                node = self.node_at(addr)
                if node.req is None:
                    node.req = self.strat.assign_type(self, node, s)
                    node.label = req_label(node.req)
                    self.emit("typed", s, node, node.label)
                self.emit("visit", s, node, node.label)
                if isinstance(node.req, ReqM):
                    token = reference_visit(self, node, s)
                else:
                    token = self.strat.act(self, node, s)
                node.outcomes.append((s, token))
                self.emit("outcome", s, node, token)
                self.path.push(node, token)
                addr = addr + (token,)
            self.path = WalkedPath()
            self.strat.act_G(self, s)
            for gen in self._generators:
                gen.ingest(s, self)
        return self

    def first_fit(self, allowed=None):
        """The first requirement off the path that `allowed` accepts, by a
        scan from the order's start."""
        on_path = {node.req for node in self.path.nodes}
        return reference_first_fit(
            self, lambda req: req not in on_path and (allowed is None or allowed(req)))

    def grow(self, sigma, sort, stage, chooser):
        """Record a growth; a chooser's record is looked up in the choice
        records at every grow."""
        ev = self.store.grow(sigma, sort, stage)
        sigma = ev.sigma
        self.emit("grow", stage, sigma, sort, ev.pre_top)
        if sigma:
            self.mention(max(sigma))
        if chooser is not None:
            records = self.chosen.setdefault((sigma, sort), [])
            if not any(c is chooser for c, _ in records):
                records.append((chooser, stage))
                self.emit("choose", stage, chooser, sigma, sort)
                self._enter(sigma, birth_stage(sigma))


# ---------------------------------------------------------------------------
# The fixed runs the differential and the per-feature tests share.

def fixed_configs():
    """Named configs: two copies, one permuted; a copy whose omitted label
    shows from stage 81 on; the same construction against no copy, where
    Idle tails come soonest; a diagonalizing run against a copy; three
    copies sharing each batch, the first (at delay 2) dropping a P link and
    freezing; the two copies of the first run, the identity one dropping
    the P link from the root to (3,), a string chosen below a matcher's ii
    outcome, so leaving that link out of the root's stability witness
    changes its xtau answers; a copy whose numbering makes a non-empty
    vertex the root's oldest W witness, so from stage 42 on the root's
    stability witness is its second one, found while the first one's link
    cursor stops short of the last child; and stage paths 150 deep."""
    import json
    from pathlib import Path

    from test_acceptance import CC_DEFECTIVE, DC_MODULUS

    from cubetree.config import config_from_dict

    shipped = Path(__file__).resolve().parent.parent / "configs"
    cc_faithful, dc_diagonal = (json.loads((shipped / name).read_text(encoding="utf-8"))
                                for name in ("cc_faithful.json", "dc_diagonal.json"))
    copies = [{"label": "broken", "delay": 2,
               "defects": [{"kind": "break_p", "sigma": [], "j": 1},
                           {"kind": "freeze_after", "step": 60}]},
              {"label": "ident", "delay": 1},
              {"label": "perm", "delay": 3,
               "permutation": {"kind": "block_rotate", "block": 8, "shift": 3}}]
    runs = {"cc_faithful@80": dict(cc_faithful, horizon=80),
            "CC_DEFECTIVE@100": dict(CC_DEFECTIVE, horizon=100),
            "cc_no_copy@60": dict(cc_faithful, horizon=60, adversaries=[]),
            "dc_diagonal@50": dict(dc_diagonal, horizon=50),
            "three_copies@80": dict(cc_faithful, horizon=80, adversaries=copies),
            "broken_root_link@60": dict(cc_faithful, horizon=60, adversaries=[
                dict(cc_faithful["adversaries"][0], label="broken",
                     defects=[{"kind": "break_p", "sigma": [], "j": 3}]),
                cc_faithful["adversaries"][1]]),
            "late_witness@50": dict(cc_faithful, horizon=50, universe={
                "rate": 20, "cap": 3, "f_rate": 1, "f_cap": 2}, adversaries=[
                {"kind": "faithful", "label": "perm", "delay": 2,
                 "permutation": {"kind": "block_rotate", "block": 4, "shift": 3}}]),
            "DC_MODULUS@150": dict(DC_MODULUS, horizon=150)}
    return {name: config_from_dict(data) for name, data in runs.items()}
