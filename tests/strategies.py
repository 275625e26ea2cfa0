"""Hypothesis strategies for matrices and DAGs."""

from __future__ import annotations

from hypothesis import strategies as st

from cfrs import BinaryMatrix

from tests.helpers import Dag


@st.composite
def binary_matrices(draw, max_rows: int = 5, max_cols: int = 5) -> BinaryMatrix:
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = [
        [draw(st.integers(0, 1)) for _ in range(n)]
        for _ in range(m)
    ]
    for i in range(m):
        if not any(rows[i]):
            rows[i][draw(st.integers(0, n - 1))] = 1
    for j in range(n):
        if not any(row[j] for row in rows):
            rows[draw(st.integers(0, m - 1))][j] = 1
    return BinaryMatrix(tuple(tuple(row) for row in rows))


@st.composite
def dags(draw, max_vertices: int = 7) -> Dag:
    n = draw(st.integers(1, max_vertices))
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    return Dag(n, arcs)
