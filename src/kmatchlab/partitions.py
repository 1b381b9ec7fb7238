"""Set partitions of {1..m}: the canonical form and the enumeration bound.

A set partition is the canonical tuple of its blocks itself, for example
``((1, 3), (2,))``: elements ascend within each block and blocks are ordered
by their minimum element, so a partition is an exact lookup key as it
stands.  Its text is ``{1,3|2}``: blocks in order, split by ``|``,
elements by ``,``; it is the form of THM4 instances and ``kmatch coeffs
--what f``.  ``coeffs.compute_f(m)`` walks the partitions of {1..m} in the
ascending order of their texts, each with its text and its f weight.
"""

from __future__ import annotations

MAX_ENUM_M = 12  # B_12 ~ 4.2M partitions; the f walk refuses beyond this

Partition = tuple[tuple[int, ...], ...]
