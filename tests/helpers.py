"""Helpers that only the tests need, so the package does not export them."""

from kmatchlab.graph import _check_n, graph_from_mask


def enumerate_all_graphs(n):
    """Every labeled simple graph on n <= MAX_ENUM_N vertices once, n checked on call.

    Graphs come out in ascending mask order, which is ascending graph6
    order: the graph at position i is graph_from_mask(n, i).
    """
    _check_n(n)
    return (graph_from_mask(n, mask) for mask in range(1 << n * (n - 1) // 2))
