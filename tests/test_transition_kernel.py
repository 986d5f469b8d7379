"""Property tests of the transition kernel: ``statespace.transition_runs``
(the moved configurations of an edge as arithmetic runs) and
``statespace.transition_offsets`` (the same moves one configuration at a
time, by the endpoint states).

Both are checked against ``apply_transition``, the per-configuration
definition, and the passes built on them (differential, form validation,
the zero-on-fixed check, potential solving and its witness, the
edge-compatibility check of measures, the closed-form dimension) against
round trips, component counts, a breadth-first search with its witness
cycle, a shared-target check and a violation list written on the
per-configuration definition, and the rank of the differential by
elimination modulo a prime.  Forms exist only for reversible rules, so
every property that builds one draws reversible rules; the kernel, the
transition graph and the dimension are checked on any rule.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import colocal as cl
from colocal import forms
from colocal.jsonio import interaction_from_json
from colocal.statespace import transition_offsets, transition_runs
from conftest import differential_rank

BOX = cl.lattice_window(2, radius=1)
PATH3 = cl.lattice_window(1, radius=1)


@st.composite
def phis(draw, n, reversible=False):
    """A pair map on n states as a dict of changed pairs; any rule, or one
    closed under reversal (phi(i,j) = (a,b) forces phi(b,a) = (j,i))."""
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if not reversible:
        return draw(st.dictionaries(pairs, pairs, max_size=n * n))
    phi = {}
    for (i, j), (a, b) in draw(st.lists(st.tuples(pairs, pairs),
                                        max_size=n * n)):
        if (i, j) != (a, b) and (i, j) not in phi and (b, a) not in phi:
            phi[(i, j)] = (a, b)
            phi[(b, a)] = (j, i)
    return phi


@st.composite
def windows(draw, n, box_sites=(9, 6)):
    """(locale, site set): a d=1 path, or part of a 3x3 box in d=2 with at
    most ``box_sites`` sites (for 2 and 3 states), small enough that
    n^|sites| stays below about 800."""
    if draw(st.booleans()):
        locale = cl.lattice_window(1, radius=draw(st.integers(1, 3 if n == 2
                                                              else 2)))
        return locale, cl.siteset(locale.sites)
    k = draw(st.integers(2, box_sites[0] if n == 2 else box_sites[1]))
    sites = draw(st.lists(st.sampled_from(BOX.sites), min_size=k,
                          max_size=k, unique=True))
    return BOX, cl.siteset(sites)


@st.composite
def kernel_cases(draw, reversible=False):
    n = draw(st.sampled_from([2, 3]))
    interaction = cl.make_interaction(tuple(range(n)), 0,
                                      draw(phis(n, reversible)))
    locale, sites = draw(windows(n))
    return interaction, locale, sites


def moves(space, interaction, e):
    """(index of eta, index of eta^e) for every configuration eta that e
    moves, in index order, by ``apply_transition``."""
    out = []
    for idx in range(space.size):
        eta = space.config(idx)
        moved = cl.apply_transition(eta, e, interaction)
        if moved != eta:
            out.append((idx, space.encode(moved.assignment)))
    return out


@given(kernel_cases())
@example((cl.identity_interaction(3), cl.lattice_window(1, radius=2),
          cl.siteset(range(-2, 3))))
@example((cl.make_interaction((0, 1), 0, {(0, 1): (1, 1)}), BOX,
          cl.siteset(BOX.sites)))
def test_transition_offsets_and_runs_agree_with_apply_transition(case):
    """Per configuration, the offset table read at the endpoint states
    moves the index to that of eta^e, and is 0 exactly where phi fixes
    eta; the runs of the changed pairs list the same moves, each once."""
    interaction, locale, sites = case
    space = cl.ConfigSpace(sites, interaction.n_states)
    n, changed = space.n_states, tuple(interaction.changed_pairs())
    for e in cl.edges_within(locale, sites):
        stride_o, stride_t, offsets = transition_offsets(space, e, changed)
        expected = moves(space, interaction, e)
        assert [(idx, idx + d) for idx in range(space.size)
                if (d := offsets[idx // stride_o % n][idx // stride_t % n])
                ] == expected
        from_runs = [(i, i + delta) for start, stop, step, delta
                     in transition_runs(space, e, changed)
                     for i in range(start, stop, step)]
        assert sorted(from_runs) == expected


@given(kernel_cases())
@example((cl.make_interaction((0, 1), 0, {(0, 1): (1, 1)}), BOX,
          cl.siteset(BOX.sites)))
def test_transition_graph_agrees_with_apply_transition(case):
    """Records, pairs and component labels, which the graph derives from
    the runs of ``transition_runs``, against the per-configuration
    definition, on any rule: a depth-first search over the undirected
    transitions numbers the components in order of first appearance."""
    interaction, locale, sites = case
    graph = cl.transition_graph(sites, interaction, locale)
    space = graph.space
    records = []
    for idx in range(space.size):
        eta = space.config(idx)
        for e in cl.edges_within(locale, sites):
            moved = cl.apply_transition(eta, e, interaction)
            if moved != eta:
                records.append((idx, e, space.encode(moved.assignment)))
    assert graph.records == tuple(records)
    assert graph.pairs == tuple(sorted({(s, d) for s, _, d in records}))
    neighbours = [set() for _ in range(space.size)]
    for s, _, d in records:
        neighbours[s].add(d)
        neighbours[d].add(s)
    labels = [None] * space.size
    count = 0
    for root in range(space.size):
        if labels[root] is None:
            labels[root], stack = count, [root]
            while stack:
                for y in neighbours[stack.pop()]:
                    if labels[y] is None:
                        labels[y] = count
                        stack.append(y)
            count += 1
    assert graph.component_labels == tuple(labels)
    assert graph.n_components == count


@given(kernel_cases(reversible=True), st.integers(0, 2 ** 32))
@example((cl.exclusion_interaction(3), BOX, cl.siteset(BOX.sites[:6])), 5)
def test_solve_potential_inverts_differential(case, seed):
    """solve_potential(df) is f plus a constant per component, for forms
    stored with partial supports and given in either orientation."""
    interaction, locale, sites = case
    n = interaction.n_states
    rng = random.Random(seed)
    # f depends on a random part of the window, so edge tables minimize to
    # partial supports
    part = cl.siteset(s for s in sites if rng.random() < 0.7)
    f = cl.FnTable(part, n, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                  for _ in range(n ** len(part))))
    f = f.embed(sites)
    df = cl.differential(f, interaction, locale)
    tables = {}
    for (o, t) in df.edges:
        if rng.random() < 0.5:
            tables[(o, t)] = df.tables[(o, t)].minimized()
        else:
            tables[(t, o)] = df.dense_table((t, o)).minimized()
    form = cl.make_form(sites, interaction, df.edges, tables)
    mu = cl.ProductMeasure(cl.uniform_states(n))
    g = cl.solve_potential(form, mu)
    assert cl.differential(g, interaction, locale).tables == df.tables
    graph = cl.transition_graph(sites, interaction, locale)
    offsets = {}
    for idx, label in enumerate(graph.component_labels):
        offsets.setdefault(label, set()).add(g.values[idx] - f.values[idx])
    assert all(len(v) == 1 for v in offsets.values())


@given(kernel_cases())
def test_closed_form_dimension_is_vertices_minus_components(case):
    """The closed-form dimension, configurations minus components, against
    the rank of the differential by elimination modulo a prime, on any
    rule, reversible or not."""
    interaction, locale, sites = case
    graph = cl.transition_graph(sites, interaction, locale)
    assert cl.closed_form_space_dimension(sites, interaction, locale) == \
        differential_rank(graph)


def hopping(n):
    """phi moves the state at o, if not 0, to an empty t: reversible (the
    reversed edge moves it back) but not symmetric."""
    return cl.make_interaction(tuple(range(n)), 0,
                               {(a, 0): (0, a) for a in range(1, n)})


@st.composite
def potential_cases(draw):
    """Exclusion (symmetric), one-way hopping (reversible, not symmetric),
    or a random reversible rule; on windows of at most about 250
    configurations."""
    n = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["exclusion", "hopping", "reversible"]))
    if kind == "exclusion":
        interaction = cl.exclusion_interaction(n)
    elif kind == "hopping":
        interaction = hopping(n)
    else:
        interaction = cl.make_interaction(tuple(range(n)), 0,
                                          draw(phis(n, reversible=True)))
    locale, sites = draw(windows(n, box_sites=(7, 5)))
    return interaction, locale, sites


def search_oracle(form):
    """The breadth-first search on the per-configuration definition
    (``apply_transition``, ``Form.edge_value``): each directed edge in the
    order pair then reversed pair, every configuration not yet reached in
    lexicographic order a root with value 0.  Returns (potential values,
    None) if every transition is consistent with the search, else (None,
    (witness, integral, details)) of ``NotClosed``: the first inconsistent
    transition in index order, then directed-edge order, closed into a
    cycle by the search tree's paths to its two ends, trimmed at their
    common prefix."""
    space = form.space
    directed = [e for pair in form.edges for e in (pair, pair[::-1])]
    steps = {}
    for idx in range(space.size):
        eta = space.config(idx)
        steps[idx] = []
        for e in directed:
            moved = cl.apply_transition(eta, e, form.interaction)
            if moved != eta:
                steps[idx].append((e, space.encode(moved.assignment),
                                   form.edge_value(e, eta.assignment)))
    potential, parent = {}, {}
    for root in sorted(range(space.size), key=space.decode):
        if root in potential:
            continue
        potential[root] = F(0)
        frontier = [root]
        while frontier:
            nxt = []
            for i in frontier:
                for e, j, w in steps[i]:
                    if j not in potential:
                        potential[j] = potential[i] + w
                        parent[j] = (i, e)
                        nxt.append(j)
            frontier = nxt

    def from_root(k):
        """The tree's steps (src, edge, dst) from the root to k."""
        path = []
        while k in parent:
            path.append((parent[k][0], parent[k][1], k))
            k = parent[k][0]
        return path[::-1]
    for i in range(space.size):
        for e, j, w in steps[i]:
            if potential[j] - potential[i] != w:
                to_i, to_j = from_root(i), from_root(j)
                shared = 0
                while (shared < min(len(to_i), len(to_j))
                       and to_i[shared] == to_j[shared]):
                    shared += 1
                cycle = (to_i[shared:] + [(i, e, j)]
                         + [(b, edge[::-1], a)
                            for a, edge, b in reversed(to_j[shared:])])
                witness = cl.Path(space.config(cycle[0][0]),
                                  tuple(edge for _, edge, _ in cycle))
                return None, (witness, potential[i] + w - potential[j],
                              {"cycle_length": len(cycle)})
    return [potential[i] for i in range(space.size)], None


def assert_oracle_witness(form, expected):
    """solve_potential raises NotClosed with the oracle's witness, integral
    and details, and the witness is a closed path of that integral."""
    with pytest.raises(cl.NotClosed) as info:
        cl.solve_potential(form)
    witness, integral, details = expected
    assert info.value.witness == witness
    assert info.value.integral == integral != 0
    assert info.value.details == details
    assert cl.is_closed_path(witness, form.interaction)
    assert cl.path_integral(form, witness) == integral


@given(potential_cases(), st.integers(0, 2 ** 32), st.booleans())
# (1,0,0) has no lexicographically smaller neighbour, but its component's
# first configuration is (0,0,1)
@example((cl.make_interaction((0, 1), 0, {(1, 1): (0, 1), (1, 0): (1, 1)}),
          PATH3, cl.siteset(PATH3.sites)), 11, False)
@example((cl.exclusion_interaction(3), BOX, cl.siteset(BOX.sites[:5])), 13,
         True)
@example((hopping(2), BOX, cl.siteset(BOX.sites[:7])), 14, False)
def test_solve_potential_matches_search_oracle(case, seed, broken):
    """solve_potential without a measure equals the search oracle: 0 at the
    lexicographically first configuration of every component, the same
    values elsewhere, and NotClosed exactly where the search finds an
    inconsistent transition, with the oracle's witness cycle."""
    interaction, locale, sites = case
    n = interaction.n_states
    rng = random.Random(seed)
    f = cl.FnTable(sites, n, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                   for _ in range(n ** len(sites))))
    df = cl.differential(f, interaction, locale)
    tables = dict(df.tables)
    if broken and df.edges:
        # one more unit on one transition breaks closedness
        e = rng.choice(df.edges)
        values = list(df.tables[e].values)
        moved = [i for i, _ in moves(df.space, interaction, e)]
        if moved:
            values[rng.choice(moved)] += 1
        tables[e] = cl.FnTable(sites, n, values)
    form = cl.make_form(sites, interaction, df.edges, tables, validate=False)
    expected, witness = search_oracle(form)
    if expected is None:
        assert_oracle_witness(form, witness)
        return
    g = cl.solve_potential(form)
    assert list(g.values) == expected
    labels = cl.transition_graph(sites, interaction, locale).component_labels
    first = {}
    for idx in sorted(range(g.space.size), key=g.space.decode):
        first.setdefault(labels[idx], idx)
    assert all(g.values[idx] == 0 for idx in first.values())


@pytest.mark.parametrize("phi, pairs, returns_to", [
    ({(1, 1): (0, 0)}, [[1, 1]], [[0, 0]]),
    ({(0, 1): (1, 1)}, [[0, 1]], [[1, 1]]),
])
def test_forms_of_non_reversible_rules_raise_not_reversible(phi, pairs,
                                                            returns_to):
    """A form's reversed orientation is derived as -omega(eta^e), which is
    f(eta^e) - f(eta) only where the reversed transition undoes the forward
    one.  Without that, d f of the first rule looked not closed (the search
    from (0,0) never reaches (1,1)), and d f of the second read 0 across
    (t, o) where f moves.  Every way to build a form raises NotReversible
    with the message and details of the CLI's interaction reader."""
    interaction = cl.make_interaction((0, 1), 0, phi)
    with pytest.raises(cl.NotReversible) as info:
        interaction_from_json({"states": [0, 1], "base": 0,
                               "phi": [[list(ab), list(cd)]
                                       for ab, cd in phi.items()]})
    assert info.value.details == {"pairs": pairs, "returns_to": returns_to}
    expected = (info.value.message, info.value.details)
    sites = cl.siteset(BOX.sites[:2])
    f = cl.FnTable(sites, 2, (F(0), F(1), F(2), F(5)))
    exact = cl.differential(f, cl.exclusion_interaction(2), BOX)
    # phi is checked before a table given in the reversed orientation is
    # read (that table is nonzero where (1, 0) fixes the configuration)
    reversed_table = {(1, 0): cl.fn_constant(sites, 2, F(1))}
    calls = [lambda: cl.differential(f, interaction, BOX),
             lambda: cl.solve_potential(cl.differential(f, interaction, BOX)),
             lambda: cl.make_form(sites, interaction, exact.edges, {}),
             lambda: cl.make_form(sites, interaction, exact.edges,
                                  reversed_table),
             lambda: cl.Form(sites, interaction, exact.edges, exact.tables)]
    for call in calls:
        with pytest.raises(cl.NotReversible) as info:
            call()
        assert (info.value.message, info.value.details) == expected


@given(kernel_cases(reversible=True), st.integers(0, 2 ** 32))
@example((hopping(3), BOX, cl.siteset(BOX.sites[:5])), 61)
def test_differential_in_either_orientation_is_f_moved_minus_f(case, seed):
    """differential(f).dense_table(e), for the stored orientation of each
    pair and for the derived reverse, is f(eta^e) - f(eta) configuration
    by configuration (0 where e fixes eta), on any reversible rule."""
    interaction, locale, sites = case
    n = interaction.n_states
    rng = random.Random(seed)
    f = cl.FnTable(sites, n, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                   for _ in range(n ** len(sites))))
    df = cl.differential(f, interaction, locale)
    space = df.space
    for pair in df.edges:
        for e in (pair, pair[::-1]):
            values = df.dense_table(e).values
            for idx in range(space.size):
                moved = cl.apply_transition(space.config(idx), e, interaction)
                assert values[idx] == (f.values[space.encode(moved.assignment)]
                                       - f.values[idx])


def no_search(*args, **kwargs):
    raise AssertionError("the breadth-first search ran")


@given(potential_cases(), st.integers(0, 2 ** 32))
# the scan leaves several trees per component: the roots must be joined
@example((cl.exclusion_interaction(2), BOX, cl.siteset(BOX.sites)), 21)
@example((cl.exclusion_interaction(3), BOX, cl.siteset(BOX.sites)), 22)
def test_closed_forms_of_reversible_rules_never_search(case, seed):
    """On a closed form of a reversible rule the potential comes from the
    scan, with its trees joined where a component has several, and never
    from the breadth-first search: it is f minus f at the lexicographically
    first configuration of each component."""
    interaction, locale, sites = case
    n = interaction.n_states
    rng = random.Random(seed)
    f = cl.FnTable(sites, n, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                   for _ in range(n ** len(sites))))
    form = cl.differential(f, interaction, locale)
    labels = cl.transition_graph(sites, interaction, locale).component_labels
    first = {}
    for idx in sorted(range(f.space.size), key=f.space.decode):
        first.setdefault(labels[idx], idx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "_witness", no_search)
        g = cl.solve_potential(form)
    assert list(g.values) == [f.values[idx] - f.values[first[label]]
                              for idx, label in enumerate(labels)]


def scan_forest(form):
    """Offset of each configuration to its parent in the scan's spanning
    forest (0 at a root), and the root of each configuration's tree,
    followed one step at a time."""
    _, offset = forms._scan(form, forms._dense_tables(form)[0])
    roots = []
    for idx in range(form.space.size):
        while offset[idx]:
            idx += offset[idx]
        roots.append(idx)
    return offset, roots


def box_exclusion_form(n, seed):
    """d of a random potential for n-state exclusion on the 3x3 box."""
    rng = random.Random(seed)
    sites = cl.siteset(BOX.sites)
    f = cl.FnTable(sites, n, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                   for _ in range(n ** len(sites))))
    return cl.differential(f, cl.exclusion_interaction(n), BOX)


@pytest.mark.parametrize("n", [2, 3])
def test_box_exclusion_joins_the_scan_trees(n):
    """The scan's forest has more trees than the transition graph has
    components, and the join, not the search, makes the potential."""
    form = box_exclusion_form(n, 31 + n)
    _, roots = scan_forest(form)
    graph = cl.transition_graph(form.sites, form.interaction, BOX)
    assert len(set(roots)) > graph.n_components
    joined = []
    join_roots = forms._join_roots

    def recorded(*args):
        joined.append((args[3], join_roots(*args)))
        return joined[-1][1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "_witness", no_search)
        mp.setattr(forms, "_join_roots", recorded)
        g = cl.solve_potential(form)
    # the join ran once and moved some tree of the scan's forest
    assert len(joined) == 1 and joined[0][0] != joined[0][1]
    assert cl.differential(g, form.interaction, BOX).tables == form.tables


def with_one_more_unit(form, pair, idx):
    """The form with one more unit on the transition from configuration
    idx across ``pair`` and one less on its reverse: still alternating
    (exclusion moves both ways across one map), but not closed."""
    dst = dict(moves(form.space, form.interaction, pair))[idx]
    values = list(form.dense_table(pair).values)
    values[idx] += 1
    values[dst] -= 1
    tables = dict(form.tables)
    tables[pair] = cl.FnTable(form.sites, form.n_states, tuple(values))
    return cl.make_form(form.sites, form.interaction, form.edges, tables)


def assert_search_witness(form):
    """The per-configuration oracle finds the form not closed, and
    solve_potential raises NotClosed with the oracle's witness."""
    expected, witness = search_oracle(form)
    assert expected is None
    assert_oracle_witness(form, witness)


def box_transitions(form):
    """(pair, src, dst) for every transition of every stored pair."""
    return [(pair, idx, dst) for pair in form.edges
            for idx, dst in moves(form.space, form.interaction, pair)]


def test_disagreeing_links_between_two_trees_are_not_closed():
    """Two transitions join the same two scan trees; one carries a unit
    more, so the links between the trees disagree."""
    form = box_exclusion_form(2, 41)
    _, roots = scan_forest(form)
    between = {}
    for pair, idx, dst in box_transitions(form):
        if roots[idx] != roots[dst]:
            between.setdefault(frozenset((roots[idx], roots[dst])),
                               []).append((pair, idx))
    pair, idx = next(links[0] for links in between.values()
                     if len(links) > 1)
    assert_search_witness(with_one_more_unit(form, pair, idx))


def test_a_failing_transition_inside_one_tree_is_not_closed():
    """A transition between two configurations of one scan tree that is
    not a parent link carries a unit more."""
    form = box_exclusion_form(2, 43)
    offset, roots = scan_forest(form)
    pair, idx = next((pair, idx) for pair, idx, dst in box_transitions(form)
                     if roots[idx] == roots[dst]
                     and offset[idx] != dst - idx
                     and offset[dst] != idx - dst)
    assert_search_witness(with_one_more_unit(form, pair, idx))


PATH5 = cl.lattice_window(1, radius=2)


@pytest.mark.parametrize("a_before_b", [True, False], ids=["a<b", "a>b"])
@pytest.mark.parametrize("n, locale, sites", [
    (2, PATH5, cl.siteset(PATH5.sites)),
    (3, PATH5, cl.siteset(PATH5.sites)),
    (2, BOX, cl.siteset(BOX.sites)),
    (3, BOX, cl.siteset(BOX.sites[:6]))], ids=["path-2", "path-3", "box-2",
                                               "box-3"])
def test_a_form_that_is_not_alternating_is_not_closed(n, locale, sites,
                                                       a_before_b):
    """A Form built directly (make_form rejects it) from d of a random
    potential for n-state exclusion, with one unit more on a single
    transition and not on its inverse, the move back across the same
    directed edge.  Exclusion's two moves across a pair, (a, b) -> (b, a)
    and back, are each other's inverses, so the unit goes on either: where
    the pair's endpoint states have a < b, or a > b.  It never sits on the
    scan's own parent link, so the scan's potential does not read it."""
    interaction = cl.exclusion_interaction(n)
    rng = random.Random(71 + n)
    f = cl.FnTable(sites, n, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                   for _ in range(n ** len(sites))))
    df = cl.differential(f, interaction, locale)
    offset, _ = scan_forest(df)
    space = df.space
    candidates = [
        (pair, idx) for pair in df.edges
        for idx, dst in moves(space, interaction, pair)
        if offset[idx] != dst - idx
        and (space.decode(idx)[sites.position(pair[0])]
             < space.decode(idx)[sites.position(pair[1])]) == a_before_b]
    pair, idx = rng.choice(candidates)
    values = list(df.dense_table(pair).values)
    values[idx] += 1
    tables = dict(df.tables)
    tables[pair] = cl.FnTable(sites, n, tuple(values))
    assert_search_witness(cl.Form(sites, interaction, df.edges, tables))


def swap_and_hop():
    """Three states: 1 and 2 swap across an edge, so (1, 2) and (2, 1) move
    into each other, and a 1 at o hops onto a 0 at t, which only the
    reversed edge undoes: reversible, not symmetric, and the changed pair
    (1, 0) has no inverse pair."""
    return cl.make_interaction((0, 1, 2), 0, {(1, 2): (2, 1), (2, 1): (1, 2),
                                              (1, 0): (0, 1)})


@pytest.mark.parametrize("locale, sites", [
    (PATH5, cl.siteset(PATH5.sites)), (BOX, cl.siteset(BOX.sites[:6]))],
    ids=["path", "box"])
def test_round_trip_with_and_without_inverse_pairs(locale, sites):
    """solve_potential(df) is f minus f at the first configuration of each
    component, without the search, under ``swap_and_hop``; one unit more
    on a single transition of a swap, not on its inverse, is not
    closed."""
    interaction = swap_and_hop()
    assert interaction.is_reversible and not interaction.is_symmetric
    rng = random.Random(83)
    f = cl.FnTable(sites, 3, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                   for _ in range(3 ** len(sites))))
    form = cl.differential(f, interaction, locale)
    labels = cl.transition_graph(sites, interaction, locale).component_labels
    first = {}
    for idx in sorted(range(f.space.size), key=f.space.decode):
        first.setdefault(labels[idx], idx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "_witness", no_search)
        g = cl.solve_potential(form)
    assert list(g.values) == [f.values[idx] - f.values[first[label]]
                              for idx, label in enumerate(labels)]
    pair = form.edges[-1]
    po, pt = sites.position(pair[0]), sites.position(pair[1])
    for states in [(1, 2), (2, 1)]:
        idx = next(idx for idx, _ in moves(form.space, interaction, pair)
                   if (form.space.decode(idx)[po],
                       form.space.decode(idx)[pt]) == states)
        values = list(form.tables[pair].values)
        values[idx] += 1
        tables = dict(form.tables)
        tables[pair] = cl.FnTable(sites, 3, tuple(values))
        assert_search_witness(cl.Form(sites, interaction, form.edges, tables))


def shared_target_oracle(form):
    """The first disagreement of two directed edges with a common target,
    configuration by configuration on the per-configuration definition
    (``apply_transition``, ``Form.edge_value``), each pair then its
    reverse: (message, assignment), or None."""
    space = form.space
    for idx in range(space.size):
        eta = space.config(idx)
        by_target = {}
        for pair in form.edges:
            for e in (pair, pair[::-1]):
                moved = cl.apply_transition(eta, e, form.interaction)
                if moved == eta:
                    continue
                value = form.edge_value(e, eta.assignment)
                if moved not in by_target:
                    by_target[moved] = (e, value)
                elif by_target[moved][1] != value:
                    return (f"omega_{e} and omega_{by_target[moved][0]} "
                            "disagree on a shared transition",
                            eta.assignment)
    return None


def potential_tables(interaction, locale, sites, core, rng):
    """(pairs, tables): the edge differentials, each on ``core`` plus the
    edge's endpoints, of a random potential on the sites ``core``."""
    f = cl.FnTable(core, interaction.n_states,
                   tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                         for _ in range(interaction.n_states ** len(core))))
    pairs = forms.canonical_pairs(cl.edges_within(locale, sites))
    return pairs, {e: forms.edge_differential(
        f.embed(core.union(cl.siteset(e))), interaction, e) for e in pairs}


@given(kernel_cases(reversible=True), st.integers(0, 2 ** 32),
       st.integers(0, 2), st.booleans())
# phi changes one site only: moves across different pairs share targets,
# and two broken entries make omega_(1,2) and omega_(1,0) disagree there
@example((cl.make_interaction((0, 1, 2), 0, {(1, 0): (2, 0), (0, 2): (0, 1)}),
          BOX, cl.siteset(BOX.sites[:4])), 51, 2, False)
@example((cl.exclusion_interaction(3), BOX, cl.siteset(BOX.sites[:5])), 52,
         2, False)
# small tables on the whole box; the least failing configuration is where
# the broken pair (3, 4) holds (1, 0), the move that certification drops
# of the inverse pair (1, 0) <-> (0, 1)
@example((cl.exclusion_interaction(), BOX, cl.siteset(BOX.sites)), 56, 1,
         True)
def test_validate_form_matches_shared_target_oracle(case, seed, n_broken,
                                                     small):
    """validate_form on d of a random potential with ``n_broken`` entries
    moved by one unit (where the edge moves) raises MalformedForm with the
    oracle's message and assignment exactly where the oracle finds a
    disagreement, on any reversible rule.  With ``small`` the potential
    lives on two of the sites, and each table on those two plus its edge,
    minimized."""
    interaction, locale, sites = case
    n = interaction.n_states
    rng = random.Random(seed)
    core = (cl.siteset(sorted(rng.sample(sites.sites, 2))) if small
            else sites)
    pairs, tables = potential_tables(interaction, locale, sites, core, rng)
    for _ in range(n_broken if pairs else 0):
        e = rng.choice(pairs)
        table = tables[e]
        moved = [i for i, _ in moves(table.space, interaction, e)]
        if moved:
            values = list(table.values)
            values[rng.choice(moved)] += 1
            tables[e] = cl.FnTable(table.sites, n, tuple(values))
    if small:
        tables = {e: table.minimized() for e, table in tables.items()}
    form = cl.make_form(sites, interaction, pairs, tables, validate=False)
    expected = shared_target_oracle(form)
    if expected is None:
        cl.validate_form(form)
        return
    with pytest.raises(cl.MalformedForm) as info:
        cl.validate_form(form)
    assert (info.value.message, info.value.details["assignment"]) == expected


def test_an_exclusion_form_validates_without_window_scale_tables(
        monkeypatch):
    """Every move of exclusion changes both endpoints, so no two edges
    share a target and validation checks alternation on each pair's own
    table: a form of small tables on the 3x3 box validates without a table
    spread to the window."""
    def refuse(*args):
        raise AssertionError("a table was spread to the window")
    monkeypatch.setattr(forms, "spread", refuse)
    monkeypatch.setattr(forms, "_dense_tables", refuse)
    sites = cl.siteset(BOX.sites)
    pairs, tables = potential_tables(cl.exclusion_interaction(), BOX, sites,
                                     cl.siteset([1, 3]), random.Random(57))
    form = cl.make_form(sites, cl.exclusion_interaction(), pairs,
                        {e: table.minimized() for e, table in tables.items()},
                        validate=True)
    assert form.edges == pairs and not form.is_zero()


def ordinary_oracle(sub, mu, interaction, locale):
    """The edge-compatibility violations of a window measure on the larger
    window, configuration by configuration (``decode``,
    ``apply_transition``), each edge inside ``sub`` in edge order, with
    the marginal on ``sub`` summed here: (assignment, edge, lhs, rhs)."""
    sup_space = mu.space
    marginal = {}
    restrict = {}
    for idx, w in enumerate(mu.weights):
        eta = sup_space.config(idx)
        restrict[idx] = cl.Config(sub, tuple(eta.state_at(s) for s in sub))
        key = restrict[idx].assignment
        marginal[key] = marginal.get(key, 0) + w
    out = []
    for idx in range(sup_space.size):
        eta = sup_space.config(idx)
        for e in cl.edges_within(locale, sub):
            moved = cl.apply_transition(eta, e, interaction)
            if moved == eta:
                continue
            moved_sub = cl.apply_transition(restrict[idx], e, interaction)
            lhs = marginal[moved_sub.assignment] * mu.weights[idx]
            rhs = (marginal[restrict[idx].assignment]
                   * mu.weights[sup_space.encode(moved.assignment)])
            if lhs != rhs:
                out.append((sup_space.decode(idx), e, lhs, rhs))
    return out


@given(st.sampled_from(["exclusion", "hopping", "any"]), kernel_cases(),
       st.integers(0, 2 ** 32), st.booleans())
@example("exclusion", (cl.exclusion_interaction(3), BOX,
                       cl.siteset(BOX.sites[:5])), 71, False)
def test_is_ordinary_matches_per_configuration_oracle(kind, case, seed,
                                                      product):
    """is_ordinary lists every violation of a window measure, in index
    order and then edge order, with the oracle's sides, for exclusion,
    one-way hopping or any rule; a random window measure fails edge
    compatibility, a materialized product measure passes."""
    interaction, locale, sites = case
    n = interaction.n_states
    if kind != "any":
        interaction = (cl.exclusion_interaction(n) if kind == "exclusion"
                       else hopping(n))
    rng = random.Random(seed)
    # the endpoints of one edge and some of the other sites, not all (on
    # the whole window the identity holds trivially)
    edges = cl.edges_within(locale, sites)
    edge = rng.choice(edges) if edges else ()
    others = [s for s in sites if s not in edge]
    dropped = rng.choice(others) if others else None
    sub = cl.siteset([s for s in others if s != dropped and rng.random() < 0.5]
                     + list(edge))
    if product:
        mu = cl.materialize(cl.ProductMeasure(cl.state_measure(
            [F(k + 1, n * (n + 1) // 2) for k in range(n)])), sites)
    else:
        mu = cl.window_measure_from_raw(
            sites, n, [rng.randint(1, 9) for _ in range(n ** len(sites))])
    report = cl.is_ordinary(sub, sites, mu, interaction, locale)
    expected = ordinary_oracle(sub, mu, interaction, locale)
    assert [(v.sup_assignment, v.edge, v.lhs, v.rhs)
            for v in report.violations] == expected
    assert report.ok == (not expected)
    if product:
        assert report.ok


@given(kernel_cases(reversible=True), st.integers(0, 2 ** 32),
       st.booleans())
@example((hopping(3), BOX, cl.siteset(BOX.sites[:5])), 81, True)
def test_zero_on_fixed_error_matches_oracle(case, seed, reverse):
    """make_form raises MalformedForm naming the edge, the sites of the
    table plus the edge's endpoints, and the first configuration of those
    sites, in index order, that the edge fixes where the table is
    nonzero; the table lives on two or more sites and is given in either
    orientation of its pair."""
    interaction, locale, sites = case
    pairs = forms.canonical_pairs(cl.edges_within(locale, sites))
    if not pairs:
        return
    n = interaction.n_states
    rng = random.Random(seed)
    pair = rng.choice(pairs)
    e = pair[::-1] if reverse else pair
    support = cl.siteset(rng.sample(sites.sites,
                                    rng.randint(2, min(4, len(sites)))))
    # about half the entries zero, so that some fixed ones are
    table = cl.FnTable(support, n, tuple(
        F(rng.randint(1, 5)) if rng.random() < 0.5 else F(0)
        for _ in range(n ** len(support))))
    whole = support.union(cl.siteset(e))
    space = cl.ConfigSpace(whole, n)
    expected = None
    for idx in range(space.size):
        eta = space.config(idx)
        if (cl.apply_transition(eta, e, interaction) == eta
                and table.evaluate_in(whole, eta.assignment) != 0):
            expected = {"edge": e, "sites": whole.sites,
                        "assignment": eta.assignment}
            break
    if expected is None:
        try:
            cl.make_form(sites, interaction, pairs, {e: table})
        except cl.MalformedForm as err:
            assert "fixed configuration" not in err.message
        return
    with pytest.raises(cl.MalformedForm) as info:
        cl.make_form(sites, interaction, pairs, {e: table})
    assert info.value.message == f"omega_{e} nonzero on a fixed configuration"
    assert info.value.details == expected
