"""Helpers that only the tests need, so the package does not export them."""

from kmatchlab.coeffs import compute_f
from kmatchlab.graph import Graph, _check_n, graph6_from_mask, graph_from_mask


def f_table(m):
    """{pi: f(pi)} over the partitions of {1..m}, from one walk of compute_f."""
    return {pi: fv for _, pi, fv in compute_f(m)}


def enumerate_all_graphs(n):
    """Every labeled simple graph on n <= MAX_ENUM_N vertices once, n checked on call.

    Graphs come out in ascending mask order, which is ascending graph6
    order: the graph at position i is graph_from_mask(n, i).
    """
    _check_n(n)
    return (graph_from_mask(n, mask) for mask in range(1 << n * (n - 1) // 2))


def encode_graph6(g: Graph) -> str:
    """Inverse serializer for :func:`parse_graph6`."""
    # pair p = j(j-1)/2 + i is bit nbits-1-p of the mask, as in graph_from_mask
    top = g.n * (g.n - 1) // 2 - 1
    mask = 0
    for i, row in enumerate(g.rows):
        for j in row:
            mask |= 1 << (top - j * (j - 1) // 2 - i)
    return graph6_from_mask(g.n, mask)
