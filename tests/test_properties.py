"""Property tests over generated inputs (derandomized, so tier-1 stays
deterministic): the graph text format, path enumeration, the press/reversal
bridge, the metagraph gate and the --report writer."""

import itertools
import json

from hypothesis import assume, given, settings, strategies as st

from pressgame.bwgraph import (
    BWGraph,
    fold_path,
    format_graph,
    is_solvable,
    parse_graph,
    press,
)
from pressgame.cli import write_report
from pressgame.meta import connectivity
from pressgame.paths import DEFAULT_CAP, PathSet, enumerate_successful, greedy_solve
from pressgame.permrev import (
    SignedPermutation,
    build_dr,
    build_overlap,
    reversal_on_desire_edge,
)

from oracles import dfs_enumerate, indented_report, pairwise_lcs_gate

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def graphs(draw, n_max=8):
    n = draw(st.integers(0, n_max))
    pairs = list(itertools.combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    colors = draw(st.integers(0, (1 << n) - 1))
    return BWGraph.from_parts(
        "".join("B" if colors >> v & 1 else "W" for v in range(n)),
        [e for e, keep in zip(pairs, present) if keep],
    )


@st.composite
def signed_permutations(draw, n_max=8):
    n = draw(st.integers(1, n_max))
    order = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SignedPermutation(tuple(-m if neg else m for m, neg in zip(order, signs)))


@st.composite
def path_sets(draw):
    """2-12 distinct sequences of one length 1-7 over the vertices 0..9, none
    repeating a vertex, as pressing paths are."""
    length = draw(st.integers(1, 7))
    rows = st.permutations(range(10)).map(lambda p: tuple(p[:length]))
    paths = draw(st.lists(rows, min_size=2, max_size=12, unique=True))
    return PathSet(graph=BWGraph.from_parts("W" * 10), paths=tuple(paths), common_length=length)


# strings that need escaping: quotes, backslashes, control and non-ASCII text
texts = st.text(st.sampled_from('ab "\\\n\t\x00é€😀'), max_size=6) | st.text(max_size=4)
scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.dictionaries(texts, inner, max_size=3), max_size=4)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=24,
)


def overlap_of(p):
    return build_overlap(build_dr(p))


@FIXED
@given(graphs())
def test_graph_text_round_trips(g):
    text = format_graph(g)
    assert parse_graph(text) == g
    assert format_graph(parse_graph(text)) == text


@FIXED
@given(graphs(), st.data())
def test_fold_stops_at_a_repeated_vertex(g, data):
    # a valid prefix, one of its vertices again, then anything: the fold
    # reports bad at the second occurrence, as mh_step's filter assumes
    prefix, h = [], g
    while h.black_vertices() and data.draw(st.booleans()):
        v = data.draw(st.sampled_from(h.black_vertices()))
        prefix.append(v)
        h = press(h, v)
    assume(prefix)
    again = data.draw(st.sampled_from(prefix))
    rest = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
    assert fold_path(g, [*prefix, again, *rest])[0] == len(prefix)


@FIXED
@given(graphs())
def test_enumeration_matches_dfs_oracle_on_labeled_graphs(g):
    # reaches labeled graphs on 6-8 vertices, past the exhaustive families
    assume(is_solvable(g))
    ps, ref = enumerate_successful(g), dfs_enumerate(g, DEFAULT_CAP)
    assert (ps.paths, ps.common_length) == (ref.paths, ref.common_length)


@FIXED
@given(signed_permutations())
def test_press_commutes_with_reversal_on_hurdle_free_permutations(p):
    # every black vertex at every step of a greedy sorting run
    g = overlap_of(p)
    assume(is_solvable(g))
    for v in greedy_solve(g):
        for k in g.black_vertices():
            assert overlap_of(reversal_on_desire_edge(p, k)) == press(g, k)
        p, g = reversal_on_desire_edge(p, v), press(g, v)
    assert p.is_identity()


@FIXED
@given(path_sets())
def test_connectivity_matches_pairwise_lcs(ps):
    # covers one-vertex keys, the empty key at d = L and thresholds above L
    for k in range(ps.common_length + 2):
        assert connectivity(ps, k) == pairwise_lcs_gate(ps, k)


@FIXED
@given(st.dictionaries(texts, json_values, max_size=5))
def test_report_parses_as_the_indented_writer(tmp_path_factory, report):
    # NaN is left out: it parses unequal to itself
    path = tmp_path_factory.getbasetemp() / "report-property.json"
    write_report(report, str(path))
    assert json.loads(path.read_text()) == json.loads(indented_report(report))
