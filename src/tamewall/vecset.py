"""Canonical finite sets of integer vectors and their shared text format.

Text format: first line "k n", then k lines of n integers.
"""

from __future__ import annotations


class VectorParseError(ValueError):
    """Malformed vector-set text; carries a 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


def canonical_sign(v):
    """Representative of the pair {v, -v} with first nonzero entry positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def _int_tuple(v):
    """v as a tuple of ints: v itself when it already is one, else a copy."""
    if type(v) is tuple and all(type(x) is int for x in v):
        return v
    return tuple(int(x) for x in v)


def canonical_set(vectors):
    """Duplicate-free lexicographically sorted tuple of integer tuples.

    A vector that already is a tuple of ints is kept as it is, not copied.
    """
    return tuple(sorted({_int_tuple(v) for v in vectors}))


def canonical_sign_set(vectors):
    """Like canonical_set but identifying v with -v."""
    return tuple(sorted({canonical_sign(v) for v in vectors}))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def format_vectors(vectors, n=None):
    vectors = [tuple(v) for v in vectors]
    if n is None:
        if not vectors:
            raise ValueError("cannot infer dimension of an empty set")
        n = len(vectors[0])
    lines = [f"{len(vectors)} {n}"]
    for v in vectors:
        if len(v) != n:
            raise ValueError("inconsistent vector dimensions")
        lines.append(" ".join(str(int(x)) for x in v))
    return "\n".join(lines) + "\n"


def parse_vectors(text):
    """Parse the shared vector-set format; returns a tuple of int tuples."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise VectorParseError(1, "missing header 'k n'")
    head = lines[0].split()
    if len(head) != 2:
        raise VectorParseError(1, "header must be 'k n'")
    try:
        k, n = int(head[0]), int(head[1])
    except ValueError:
        raise VectorParseError(1, "header entries must be integers") from None
    if k < 0 or n < 1:
        raise VectorParseError(1, "need k >= 0 and n >= 1")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != k:
        raise VectorParseError(len(lines), f"expected {k} vector lines, found {len(body)}")
    out = []
    for idx, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != n:
            raise VectorParseError(idx, f"expected {n} integers, found {len(parts)}")
        try:
            out.append(tuple(int(p) for p in parts))
        except ValueError:
            raise VectorParseError(idx, "entries must be integers") from None
    return tuple(out)
