"""Reference exterior algebra that derives the benchmark's expected results.

A point is a dict from ascending label tuples to Fractions.  Nothing here
imports hyperwedge, so a defect in the library cannot leak into the answers
it is checked against.  Every routine is the textbook definition, written
for clarity rather than speed; the benchmark calls them outside any timed
region.
"""
from fractions import Fraction


def labels(n, p):
    """Window labels -n..-1, 1..p in ascending order."""
    return tuple(range(-n, 0)) + tuple(range(1, p + 1))


def sort_sign(seq):
    """Sign of the permutation that sorts seq; 0 when a label repeats."""
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    width = len(a[0]) if a else 0
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            factor = a[i][col] / a[r][col]
            if factor:
                for j in range(col, width):
                    a[i][j] -= factor * a[r][j]
        r += 1
    return r


def minors(rows, labs):
    """Coordinates of the wedge of the rows, which are their maximal minors."""
    out = {(): Fraction(1)}
    for row in rows:
        out = wedge(out, {(label,): c for label, c in zip(labs, row) if c})
    return out


def add(*points):
    out = {}
    for point in points:
        for key, c in point.items():
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def wedge(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            sign = sort_sign(ka + kb)
            if sign:
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, 0) + sign * ca * cb
    return {k: c for k, c in out.items() if c}


def power(a, l):
    out = {(): Fraction(1)}
    for _ in range(l):
        out = wedge(out, a)
    return out


def star(a, n, p):
    """Star into the mirrored window: e_I -> sgn(I, I^c) e_(-I^c)."""
    labs = labels(n, p)
    out = {}
    for key, c in a.items():
        comp = tuple(x for x in labs if x not in key)
        out[tuple(sorted(-x for x in comp))] = sort_sign(key + comp) * c
    return out


def contract(f, a):
    """Right interior product by the covector f (a dict label -> Fraction)."""
    out = {}
    for key, c in a.items():
        for pos, label in enumerate(key):
            weight = f.get(label, 0)
            if weight:
                sign = -1 if (len(key) - 1 - pos) % 2 else 1
                rest = key[:pos] + key[pos + 1:]
                out[rest] = out.get(rest, 0) + sign * weight * c
    return {k: c for k, c in out.items() if c}


def transition(kind, a, n, p):
    """The four window maps; returns (terms, (n', p'))."""
    if kind == "i":
        return dict(a), (n + 1, p)
    if kind == "j":
        return {key + (p + 1,): c for key, c in a.items()}, (n, p + 1)
    if kind == "i_dagger":
        return {key: c for key, c in a.items() if -n not in key}, (n - 1, p)
    return {key[:-1]: c for key, c in a.items() if key[-1] == p}, (n, p - 1)


def matvec(matrix, row):
    """Image of the vector with coordinates row under matrix (row-major)."""
    return [sum(matrix[r][c] * row[c] for c in range(len(row))) for r in range(len(matrix))]


def skew_rank(two_form, labs):
    """Rank of the skew matrix of a two-form; it is twice the form's rank."""
    pos = {label: i for i, label in enumerate(labs)}
    rows = [[Fraction(0)] * len(labs) for _ in labs]
    for (a, b), c in two_form.items():
        rows[pos[a]][pos[b]] = c
        rows[pos[b]][pos[a]] = -c
    return rank(rows)
