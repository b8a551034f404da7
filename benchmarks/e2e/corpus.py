"""Seeded corpus of MiniJ integer methods for the ``warmup`` and
``warm_start`` workloads.

The corpus is stratified so that its cost does not depend on the seed:
five method shapes times up to four size classes, with the same number
of methods in every (shape, size) cell. The seed picks only what does not
change the amount of work: constants, moduli, comparison operators,
which helper a method calls, and the argument values. All arithmetic
stays non-negative and below 10**6, so no tier can disagree with the
interpreter about overflow or the sign of ``%``.
"""

from __future__ import annotations

import random

MODULE = "Corpus"

SHAPES = ("loop", "nest", "branchy", "calls", "straight")

#: Loop trip count per size class. Classes 2 and 3 cross the default
#: OSR threshold (100 back-edges) inside their first interpreted call.
SIZES = (12, 40, 130, 300)

#: Inner trip count of the ``nest`` shape, per size class (the outer
#: loop runs ``SIZES[c] // 4`` times so nests cost about as much as
#: loops of the same class).
NEST_INNER = (3, 4, 4, 5)

#: Number of shared helper functions methods may call.
HELPERS = 8


class Corpus:
    """A generated MiniJ module plus the call plan for each method."""

    def __init__(self, source, methods):
        self.source = source
        #: list of (name, shape, size class); the order is the round order
        self.methods = methods

    def names(self):
        return [name for name, _shape, _cls in self.methods]

    def by_cell(self):
        """Method names grouped per (shape, size class)."""
        cells = {}
        for name, shape, cls in self.methods:
            cells.setdefault((shape, cls), []).append(name)
        return cells


def _helper(rng, j):
    a = rng.randint(3, 97)
    b = rng.randint(1, 500)
    m = rng.randint(600, 2000)
    t = rng.randint(100, m - 100)
    return (
        "def h%d(x) {\n"
        "  var y = (x * %d + %d) %% %d;\n"
        "  if (y > %d) { y = y - %d; }\n"
        "  return y;\n"
        "}\n" % (j, a, b, m, t, t))


def _method(rng, name, shape, cls):
    m = rng.randint(5000, 10007)
    a = rng.randint(3, 97)
    c = rng.randint(1, 300)
    t = rng.randint(m // 4, 3 * m // 4)
    h1 = rng.randrange(HELPERS)
    h2 = rng.randrange(HELPERS)
    cmp = rng.choice(("<", ">"))
    head = "def %s(n, s) {\n  var acc = s %% %d;\n  var i = 0;\n" % (name, m)
    if shape == "loop":
        body = (
            "  while (i < n) {\n"
            "    acc = (acc * %d + i) %% %d;\n"
            "    if (acc %s %d) { acc = acc + h%d(i); } else { acc = acc + %d; }\n"
            "    i = i + 1;\n"
            "  }\n" % (a, m, cmp, t, h1, c))
    elif shape == "nest":
        body = (
            "  while (i < n) {\n"
            "    var j = 0;\n"
            "    while (j < %d) { acc = (acc + i * %d + j) %% %d; j = j + 1; }\n"
            "    i = i + 1;\n"
            "  }\n" % (NEST_INNER[cls], a, m))
    elif shape == "branchy":
        t2 = rng.randint(t, m)
        k = rng.randint(3, 9)
        body = (
            "  while (i < n) {\n"
            "    var t = (acc * %d + i) %% %d;\n"
            "    if (t < %d) { acc = acc + t; }\n"
            "    else { if (t < %d) { acc = acc + h%d(t); }"
            " else { acc = (acc + %d) %% %d; } }\n"
            "    if (i %% %d == 0) { acc = acc %% %d; }\n"
            "    i = i + 1;\n"
            "  }\n" % (a, m, t, t2, h1, c, m, k, m))
    elif shape == "calls":
        body = (
            "  while (i < n) {\n"
            "    acc = (acc + h%d(i) + h%d(acc)) %% %d;\n"
            "    i = i + 1;\n"
            "  }\n" % (h1, h2, m))
    else:  # straight: no loop, a chain of branches over helper calls
        lines = ["  var b = (n * %d + %d) %% %d;\n" % (a, c, m)]
        for __ in range(2 + cls):
            hj = rng.randrange(HELPERS)
            cc = rng.randint(1, 300)
            lines.append(
                "  b = h%d(acc + b);\n"
                "  if (acc %s b) { acc = (acc + b) %% %d; }"
                " else { b = (b + %d) %% %d; }\n"
                % (hj, rng.choice(("<", ">")), m, cc, m))
        body = "".join(lines) + "  acc = (acc + b + i) %% %d;\n" % m
    return head + body + "  return acc;\n}\n"


def generate(seed, per_cell=10, classes=range(len(SIZES))):
    """Build the corpus: ``per_cell`` methods in every (shape, size)
    cell for the given size classes."""
    rng = random.Random("corpus-%d" % seed)
    parts = [_helper(rng, j) for j in range(HELPERS)]
    methods = []
    for cls in classes:
        for shape in SHAPES:
            for __ in range(per_cell):
                name = "m%d" % len(methods)
                methods.append((name, shape, cls))
                parts.append(_method(rng, name, shape, cls))
    rng.shuffle(methods)
    return Corpus("".join(parts), methods)


def call_args(rng, shape, cls, calls):
    """``calls`` argument tuples for one method: the cell's fixed trip
    count and seeded start values."""
    n = SIZES[cls] // 4 if shape == "nest" else SIZES[cls]
    return [(n, rng.randint(0, 10**5)) for __ in range(calls)]
