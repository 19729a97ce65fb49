"""Property tests over generated inputs (derandomized, so tier-1 stays
deterministic): the graph text format and the press/reversal bridge."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from pressgame.bwgraph import (
    BWGraph,
    format_graph,
    is_solvable,
    parse_graph,
    press,
)
from pressgame.paths import greedy_solve
from pressgame.permrev import (
    SignedPermutation,
    build_dr,
    build_overlap,
    reversal_on_desire_edge,
)

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


def overlap_of(p):
    return build_overlap(build_dr(p))


@FIXED
@given(graphs())
def test_graph_text_round_trips(g):
    text = format_graph(g)
    assert parse_graph(text) == g
    assert format_graph(parse_graph(text)) == text


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
