"""Property tests of the transition kernel ``statespace.edge_moves``.

The index maps are checked against ``apply_transition``, the
per-configuration definition, and the passes built on them (differential,
form validation, potential solving, the closed-form dimension) against
round trips, component counts, a breadth-first search with its witness
cycle and a shared-target check written on the per-configuration
definition, and the rank of the differential by elimination modulo a
prime.  Forms exist only for reversible rules, so every property that
builds one draws reversible rules; the kernel, the transition graph and
the dimension are checked on any rule.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import colocal as cl
from colocal import forms
from colocal.jsonio import interaction_from_json
from colocal.statespace import edge_moves

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


@given(kernel_cases())
@example((cl.identity_interaction(3), cl.lattice_window(1, radius=2),
          cl.siteset(range(-2, 3))))
@example((cl.make_interaction((0, 1), 0, {(0, 1): (1, 1)}), BOX,
          cl.siteset(BOX.sites)))
def test_edge_moves_agree_with_apply_transition(case):
    interaction, locale, sites = case
    space = cl.ConfigSpace(sites, interaction.n_states)
    for e in cl.edges_within(locale, sites):
        moves = edge_moves(space, interaction, e)
        assert len(moves) == space.size
        for idx in range(space.size):
            eta = space.config(idx)
            moved = cl.apply_transition(eta, e, interaction)
            expected = -1 if moved == eta else space.encode(moved.assignment)
            assert moves[idx] == expected


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


#: prime modulus of the rank computation in differential_rank
RANK_PRIME = (1 << 61) - 1


def differential_rank(graph):
    """Rank of the differential: one row e_dst - e_src per transition pair,
    reduced by sparse elimination modulo the prime 2^61 - 1.  The matrix is
    an incidence matrix, hence totally unimodular, so its rank modulo p is
    its rational rank.  It does not use the component count."""
    p = RANK_PRIME
    pivots: dict[int, dict[int, int]] = {}   # leading column -> monic row
    for src, dst in sorted({(min(s, d), max(s, d)) for s, d in graph.pairs}):
        row = {src: p - 1, dst: 1}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                w = (row.get(c, 0) - factor * v) % p
                if w:
                    row[c] = w
                else:
                    del row[c]
    return len(pivots)


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
        moved = [i for i, d in enumerate(edge_moves(df.space, interaction, e))
                 if d >= 0]
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
    calls = [lambda: cl.differential(f, interaction, BOX),
             lambda: cl.solve_potential(cl.differential(f, interaction, BOX)),
             lambda: cl.make_form(sites, interaction, exact.edges, {}),
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
    dst = edge_moves(form.space, form.interaction, pair)[idx]
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
            for idx, dst in enumerate(edge_moves(form.space,
                                                 form.interaction, pair))
            if dst >= 0]


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


@given(kernel_cases(reversible=True), st.integers(0, 2 ** 32),
       st.integers(0, 2))
# phi changes one site only: moves across different pairs share targets,
# and two broken entries make omega_(1,2) and omega_(1,0) disagree there
@example((cl.make_interaction((0, 1, 2), 0, {(1, 0): (2, 0), (0, 2): (0, 1)}),
          BOX, cl.siteset(BOX.sites[:4])), 51, 2)
@example((cl.exclusion_interaction(3), BOX, cl.siteset(BOX.sites[:5])), 52,
         2)
def test_validate_form_matches_shared_target_oracle(case, seed, n_broken):
    """validate_form on d of a random potential with ``n_broken`` entries
    moved by one unit (where the edge moves) raises MalformedForm with the
    oracle's message and assignment exactly where the oracle finds a
    disagreement, on any reversible rule."""
    interaction, locale, sites = case
    n = interaction.n_states
    rng = random.Random(seed)
    f = cl.FnTable(sites, n, tuple(F(rng.randint(-8, 8), rng.randint(1, 6))
                                   for _ in range(n ** len(sites))))
    df = cl.differential(f, interaction, locale)
    tables = dict(df.tables)
    for _ in range(n_broken if df.edges else 0):
        e = rng.choice(df.edges)
        moved = [i for i, d in enumerate(edge_moves(df.space, interaction, e))
                 if d >= 0]
        if moved:
            values = list(tables[e].values)
            values[rng.choice(moved)] += 1
            tables[e] = cl.FnTable(sites, n, tuple(values))
    form = cl.make_form(sites, interaction, df.edges, tables, validate=False)
    expected = shared_target_oracle(form)
    if expected is None:
        cl.validate_form(form)
        return
    with pytest.raises(cl.MalformedForm) as info:
        cl.validate_form(form)
    assert (info.value.message, info.value.details["assignment"]) == expected
