"""Exact integer determinants by fraction-free (Bareiss) elimination."""

# perfbench reports this, and its compare.py refuses pairs where it differs.
IMPLEMENTATION = "python"


def det_int(rows):
    """Exact determinant of a square integer matrix.

    Fraction-free (Bareiss) elimination: every intermediate entry is a
    minor of the input, so the arithmetic stays in the integers and the
    divisions below are exact.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_int_flat(flat, n):
    """det_int on a row-major flattened square matrix.

    Unused inside the package since the census stopped taking one
    determinant per subset; perfbench's tracer still wraps it by name.
    """
    return det_int([flat[i * n:(i + 1) * n] for i in range(n)])
