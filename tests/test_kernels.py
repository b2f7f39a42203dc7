"""Integer determinant kernel against a cofactor-expansion oracle."""

from hypothesis import given, settings, strategies as st

from tamewall import kernels


def cofactor_det(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=200, deadline=None)
@given(small_matrix)
def test_det_matches_cofactor_oracle(rows):
    assert kernels.det_int(rows) == cofactor_det(rows)


def test_known_values():
    assert kernels.det_int([[1, 0], [0, 1]]) == 1
    assert kernels.det_int([[2]]) == 2
    assert kernels.det_int([]) == 1
    # two equal columns
    assert kernels.det_int([[1, 1, 3], [2, 2, 5], [4, 4, 7]]) == 0


def test_big_simplex_edge_matrix():
    cols = [
        [1, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, -3],
    ]
    assert kernels.det_int(cols) == -3


def test_large_entries_fall_back_exactly():
    big = 10**12
    rows = [[big, 1], [1, big]]
    assert kernels.det_int(rows) == big * big - 1


def test_flat_variant():
    assert kernels.det_int_flat([1, 2, 3, 4], 2) == -2

