"""Simple undirected graphs as symmetric 0/1 adjacency matrices.

Vertices are labeled 1..n in all external interfaces (edge lists, text
formats, error messages); the adjacency matrix itself is stored 0-indexed.
Graphs are immutable after construction.

Supported external formats:

* graph6 (standard ASCII encoding, single-byte order, n <= 62)
* plain edge-list text: first line ``n m``, then m lines ``a b``
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator
import random

from .errors import CapacityError, Graph6ParseError

MAX_ENUM_N = 7  # 2^21 labeled graphs at n=7; enumeration refuses beyond this


@dataclass(frozen=True)
class Graph:
    """Simple graph: vertex count ``n`` and symmetric 0/1 adjacency ``adj``."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Row sums of the adjacency matrix, summed once per graph."""
        return tuple(sum(row) for row in self.adj)

    def edge_count(self) -> int:
        return sum(self.adj[i][j] for i in range(self.n) for j in range(i + 1, self.n))

    def edges(self) -> list[tuple[int, int]]:
        """Edges as 1-based pairs (a, b) with a < b, in row-major order."""
        return [
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.adj[i][j]
        ]


def _build(n: int, edge_set: set[tuple[int, int]]) -> Graph:
    """Assemble an adjacency matrix from 0-based (i, j) pairs with i < j."""
    rows = [[0] * n for _ in range(n)]
    for i, j in edge_set:
        rows[i][j] = 1
        rows[j][i] = 1
    return Graph(n, tuple(tuple(r) for r in rows))


def from_edge_list(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 1..n from unordered vertex pairs.

    Duplicate pairs collapse; out-of-range vertices and self-loops are errors.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    edge_set: set[tuple[int, int]] = set()
    for a, b in edges:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        if a == b:
            raise ValueError(f"self-loop ({a},{b}) not allowed")
        i, j = a - 1, b - 1
        edge_set.add((min(i, j), max(i, j)))
    return _build(n, edge_set)


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
        rng = random.Random(seed)
        edge_set = {(i, j) for i, j in combinations(range(n), 2) if rng.random() < p}
        return _build(n, edge_set)
    raise ValueError(f"unknown graph kind {kind!r}")


def degree_vector(g: Graph) -> tuple[int, ...]:
    """Column sums of the adjacency matrix (= row sums by symmetry)."""
    return g.degrees


def enumerate_all_graphs(n: int) -> Iterator[Graph]:
    """Yield every labeled simple graph on n vertices exactly once.

    Graphs come out in edge-bitmask order: bit i of the mask selects the i-th
    pair in row-major order over the upper triangle.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if n > MAX_ENUM_N:
        raise CapacityError(f"refusing to enumerate 2^{n * (n - 1) // 2} graphs (n={n} > {MAX_ENUM_N})")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_mask(n, mask)


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph at position ``mask`` of the enumerate_all_graphs(n) stream."""
    pairs = list(combinations(range(n), 2))
    if not 0 <= mask < 1 << len(pairs):
        raise ValueError(f"mask {mask} out of range for n={n}")
    return _build(n, {pairs[i] for i in range(len(pairs)) if mask >> i & 1})


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
    bits: list[int] = []
    for pos, ch in enumerate(raw[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6ParseError(f"invalid data byte {ch!r}", pos)
        bits.extend(val >> shift & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6ParseError("nonzero padding bits", len(raw) - 1)
    # bit order: column-major upper triangle (0,1), (0,2), (1,2), (0,3), ...
    edge_set = set()
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edge_set.add((i, j))
            idx += 1
    return _build(n, edge_set)


def encode_graph6(g: Graph) -> str:
    """Inverse serializer for :func:`parse_graph6`."""
    if g.n > 62:
        raise ValueError(f"graph6 single-byte order limited to n <= 62, got {g.n}")
    bits = [g.adj[i][j] for j in range(1, g.n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for off in range(0, len(bits), 6):
        val = 0
        for b in bits[off:off + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


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


def format_edge_list(g: Graph) -> str:
    """Inverse of :func:`parse_edge_list_text`."""
    es = g.edges()
    lines = [f"{g.n} {len(es)}"]
    lines.extend(f"{a} {b}" for a, b in es)
    return "\n".join(lines) + "\n"
