"""Readable query rows for tests.

A row is ((x1, y1, x2, y2), class_id, score, level), the candidate format of
`oracles.nms_ref`; `query_set` packs rows into the library's QuerySet arrays.
"""

import numpy as np

from densepanoptic.selection import QuerySet


def row(x1, y1, x2, y2, cls=1, score=0.9, level=0):
    return ((x1, y1, x2, y2), cls, score, level)


def query_set(rows) -> QuerySet:
    """QuerySet holding `rows` in the given order."""
    rows = list(rows)
    return QuerySet(np.array([r[0] for r in rows], dtype=np.float64).reshape(-1, 4),
                    [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows])
