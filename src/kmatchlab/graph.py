"""Simple undirected graphs as forward-neighbour rows.

A graph stores its vertex count and, per 0-based vertex i, the ascending
tuple of its neighbours j > i.  Read row by row, the rows list the edges
(i, j), i < j, in row-major order, so two graphs are equal, and hash alike,
exactly when their vertex counts and edge sets are.  The rows are the one
edge representation, with no tuple per edge; everything else is derived
from them on first read and cached: degrees, the degree histogram, and the
symmetric 0/1 adjacency matrix, which only the literal referees read.
Vertices are labeled 1..n in the external inputs (edge lists, edge-list
text, error messages).  Graphs are immutable after construction and are
built through the constructors below, never from a matrix.

Supported external formats:

* graph6 (standard ASCII encoding, single-byte order, n <= 62)
* plain edge-list text (input only): first line ``n m``, then m lines ``a b``

An edge mask is graph6's data bits without their padding (graph_from_mask),
so ascending masks are graphs in ascending graph6 order, and the graph6
parser decodes through the same function as the enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator
import random

from .errors import CapacityError, Graph6ParseError

# the one n bound of every walk over all labeled graphs: 2^15 graphs at
# n = 6, while the 2^21 graphs at n = 7, a record or more each, cannot finish
MAX_ENUM_N = 6


@dataclass(frozen=True)
class Graph:
    """Simple graph: vertex count ``n`` and ``rows[i]``, the ascending neighbours j > i of i."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Symmetric 0/1 adjacency matrix, built on first read (n*n cells)."""
        mat = [[0] * self.n for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for j in row:
                mat[i][j] = mat[j][i] = 1
        return tuple(map(tuple, mat))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees, counted once per graph: row lengths, plus one per edge's later end."""
        deg = list(map(len, self.rows))
        for row in self.rows:
            for j in row:
                deg[j] += 1
        return tuple(deg)

    @cached_property
    def degree_counts(self) -> tuple[tuple[int, int], ...]:
        """(degree, multiplicity) pairs in ascending degree order, built once per graph."""
        return tuple(sorted(Counter(self.degrees).items()))


def from_edge_list(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 1..n from unordered vertex pairs.

    Duplicate pairs collapse; out-of-range vertices and self-loops are errors.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    rows: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        if a == b:
            raise ValueError(f"self-loop ({a},{b}) not allowed")
        rows[min(a, b) - 1].add(max(a, b) - 1)
    return Graph(n, tuple(tuple(sorted(row)) for row in rows))


def generate(kind: str, n: int, p: float | None = None, seed: int = 0) -> Graph:
    """Named generators: path, cycle, complete, or seeded random G(n, p).

    The random generator flips one coin per vertex pair in row-major order
    ((1,2), (1,3), ..., (2,3), ...) using ``random.Random(seed)``, so a given
    (n, p, seed) triple reproduces bit-exactly.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if kind == "path":
        return from_edge_list(n, [(i, i + 1) for i in range(1, n)])
    if kind == "cycle":
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        return from_edge_list(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
    if kind == "complete":
        return from_edge_list(n, [(a, b) for a, b in combinations(range(1, n + 1), 2)])
    if kind == "random":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError(f"random graph needs edge probability p in [0,1], got {p}")
        r = random.Random(seed).random
        vertices = list(range(n))  # one int object per vertex, shared by its rows
        # one row of coins at a time, keeping only the neighbours drawn
        return Graph(n, tuple(tuple([j for j in vertices[i + 1:] if r() < p]) for i in vertices))
    raise ValueError(f"unknown graph kind {kind!r}")


def degree_vector(g: Graph) -> tuple[int, ...]:
    """Vertex degrees of ``g`` (its cached ``degrees``)."""
    return g.degrees


def enumerate_all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n <= MAX_ENUM_N vertices once, n checked on call.

    Graphs come out in ascending mask order, which is ascending graph6
    order: the graph at position i is graph_from_mask(n, i).
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > MAX_ENUM_N:
        raise CapacityError(f"refusing to enumerate 2^{n * (n - 1) // 2} graphs (n={n} > {MAX_ENUM_N})")
    return (graph_from_mask(n, mask) for mask in range(1 << n * (n - 1) // 2))


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph whose graph6 data bits, without padding, are ``mask``.

    With N = n(n-1)/2, bit N-1-p of the mask selects the p-th pair of the
    order (0,1), (0,2), (1,2), (0,3), ...
    """
    nbits = n * (n - 1) // 2
    if not 0 <= mask < 1 << nbits:
        raise ValueError(f"mask {mask} out of range for n={n}")
    rows: list[list[int]] = [[] for _ in range(n)]
    # the p-th binary digit, high bit first, is bit N-1-p
    digits = iter(format(mask, f"0{nbits}b"))
    for j in range(1, n):
        for i in range(j):
            if next(digits) == "1":
                rows[i].append(j)
    return Graph(n, tuple(map(tuple, rows)))


# -- graph6 ------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6-encoded graph (single-byte order, n <= 62)."""
    raw = text.rstrip("\n")
    if raw.startswith(_G6_HEADER):
        raw = raw[len(_G6_HEADER):]
    if not raw:
        raise Graph6ParseError("empty graph6 input", 0)
    first = ord(raw[0])
    if first == 126:
        raise Graph6ParseError("multi-byte vertex count not supported (n > 62)", 0)
    if not 63 <= first <= 125:
        raise Graph6ParseError(f"invalid order byte {raw[0]!r}", 0)
    n = first - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) - 1 != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} data bytes for n={n}, got {len(raw) - 1}", len(raw)
        )
    x = 0
    for pos, ch in enumerate(raw[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6ParseError(f"invalid data byte {ch!r}", pos)
        x = x << 6 | val
    pad = nbytes * 6 - nbits
    if x & (1 << pad) - 1:
        raise Graph6ParseError("nonzero padding bits", len(raw) - 1)
    return graph_from_mask(n, x >> pad)


def encode_graph6(g: Graph) -> str:
    """Inverse serializer for :func:`parse_graph6`."""
    if g.n > 62:
        raise ValueError(f"graph6 single-byte order limited to n <= 62, got {g.n}")
    # bit j(j-1)/2 + i is pair (i, j), column-major, padded to whole bytes;
    # bit 0 is the highest of the nbits-bit integer x, read 6 bits at a time
    nbits = (g.n * (g.n - 1) // 2 + 5) // 6 * 6
    x = 0
    for i, row in enumerate(g.rows):
        for j in row:
            x |= 1 << (nbits - 1 - j * (j - 1) // 2 - i)
    return chr(g.n + 63) + "".join([chr((x >> off & 63) + 63) for off in range(nbits - 6, -1, -6)])


# -- edge-list text ----------------------------------------------------------

def parse_edge_list_text(text: str) -> Graph:
    """Parse the plain-text format: first line "n m", then m lines "a b"."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'a b', got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edge_list(n, edges)
