"""Interval (value-range) analysis over the staged CFG.

A forward dataflow problem on maps ``{name: (lo, hi)}``, each mapping a
sym to a closed interval over the reals (``None`` bound = unbounded).
Intervals attach only to values produced by numeric sources — constants,
``num``-flagged arithmetic, comparisons/booleans (as ``[0, 1]``),
``alen`` (``[0, +inf)``) — so holding an interval implies the runtime
value is a number/bool and the bounds are sound for it.

Design notes (see DESIGN.md):

* **Closed bounds only.** The IR does not separate ints from floats, so a
  strict comparison refines to a *closed* bound (``x < c`` gives
  ``x <= c``, never ``x <= c - 1``); strictness is recovered when
  *proving* a comparison by requiring a strict bound inequality.
* **Float-sound arithmetic.** Bounds whose magnitude exceeds ``2**52``
  are widened to infinity: below that every integer bound is exactly
  representable as a float, and round-to-nearest monotonicity keeps
  computed float bounds sound.
* **Landmark joins, threshold widening.** Joins snap bounds outward to
  the nearest *landmark* — a constant appearing in the unit (plus
  -1/0/1) — so the lattice is finite and bounds stay precise where
  guards compare against program constants. Snapping alone still lets a
  loop counter climb one landmark per sweep, so at loop headers the
  solver widens instead: a bound that grew jumps to the next
  *threshold* of its name — -1/0/1 and c-1/c/c+1 for every constant c
  compared against a name in its copy class — or to unbounded. A
  descending phase of at most two sweeps then wins back bounds the loop
  body implies but no threshold names.

Branch edges and ``guard`` statements refine the interval of the
condition's operands (sound here because the verifier enforces
availability == dominance for the block-argument SSA form, so a
condition sym can never be stale with respect to its operands).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property

from repro.analysis.cfg import def_counts, phi_assigns_for_edge
from repro.analysis.dataflow import ForwardAnalysis, solve
from repro.lms.ir import Branch, Deopt, Jump, OsrCompile, Return
from repro.lms.rep import ConstRep, Sym

_MAX_EXACT = 2 ** 52

#: Widening thresholds of a name never compared against a constant.
_THRESHOLDS = [-1, 0, 1]

#: Comparison op -> (mirror op swapping the operands).
_MIRROR = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le",
           "eq": "eq", "ne": "ne"}
_NEGATE = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
           "eq": "ne", "ne": "eq"}


def _num(v):
    return isinstance(v, (int, float)) and not isinstance(v, complex) \
        and v == v                     # excludes NaN; bool is fine


def _cap(bound, sign):
    """Widen a bound to unbounded once it leaves the float-exact integer
    range; ``sign`` is -1 for lows, +1 for highs."""
    if bound is None:
        return None
    if bound != bound or bound in (float("inf"), float("-inf")):
        return None
    if abs(bound) > _MAX_EXACT:
        return None
    return bound


def _floor(marks, v):
    """The largest of the sorted ``marks`` at or below ``v`` (None if
    there is none)."""
    i = bisect_right(marks, v)
    return marks[i - 1] if i else None


def _ceil(marks, v):
    """The smallest of the sorted ``marks`` at or above ``v`` (None if
    there is none)."""
    i = bisect_left(marks, v)
    return marks[i] if i < len(marks) else None


def interval(lo, hi):
    return (_cap(lo, -1), _cap(hi, 1))

TOP = (None, None)


class RangeAnalysis(ForwardAnalysis):
    """Environments are dicts (absent name = unknown); ``None`` is the
    unreachable bottom."""

    def __init__(self, blocks, entry_id, params=()):
        self.blocks = blocks
        self.entry_id = entry_id
        self.params = tuple(params)
        self.landmarks = self._collect_landmarks(blocks)
        counts = def_counts(blocks)
        # Refinement through a condition's defining statement is only
        # sound for single-definition names (always true for staged SSA;
        # checked, not assumed).
        self.defs = {}
        for block in blocks.values():
            for stmt in block.stmts:
                if counts.get(stmt.sym.name) == 1:
                    self.defs[stmt.sym.name] = stmt

    @staticmethod
    def _collect_landmarks(blocks):
        marks = {-1, 0, 1}

        def note(rep):
            if isinstance(rep, ConstRep) and _num(rep.value):
                v = rep.value
                if abs(v) <= _MAX_EXACT:
                    marks.update((v - 1, v, v + 1))

        for block in blocks.values():
            for stmt in block.stmts:
                for a in stmt.args:
                    note(a)
            term = block.terminator
            if isinstance(term, Branch):
                note(term.cond)
                for __, rep in term.true_assigns + term.false_assigns:
                    note(rep)
            elif isinstance(term, Jump):
                for __, rep in term.phi_assigns:
                    note(rep)
            elif isinstance(term, Return):
                note(term.value)
            elif isinstance(term, (Deopt, OsrCompile)):
                for rep in term.lives:
                    note(rep)
        return sorted(marks)

    @cached_property
    def thresholds(self):
        """``{name: sorted widening thresholds}`` for names in a copy
        class (names joined by ``id``/``taint``/``untaint`` and by phi
        assigns of a sym) that is compared against a numeric constant.
        Built on the first widening; most units never widen."""
        parent = {}

        def find(name):
            root = parent.setdefault(name, name)
            while root != parent[root]:
                root = parent[root]
            while parent[name] != root:
                parent[name], name = root, parent[name]
            return root

        def union(a, b):
            parent[find(a)] = find(b)

        compared = []                    # (name, constant)
        for block in self.blocks.values():
            for stmt in block.stmts:
                if stmt.op in ("id", "taint", "untaint") \
                        and isinstance(stmt.args[0], Sym):
                    union(stmt.sym.name, stmt.args[0].name)
                elif stmt.op in _MIRROR:
                    for x, y in (stmt.args[:2], stmt.args[1::-1]):
                        if isinstance(x, Sym) and isinstance(y, ConstRep) \
                                and _num(y.value) \
                                and abs(y.value) <= _MAX_EXACT:
                            compared.append((x.name, y.value))
            for succ in block.terminator.successors():
                for param, rep in phi_assigns_for_edge(block.terminator,
                                                       succ):
                    if isinstance(rep, Sym):
                        union(param, rep.name)
        marks = {}
        for name, v in compared:
            marks.setdefault(find(name), {-1, 0, 1}).update(
                (v - 1, v, v + 1))
        marks = {root: sorted(m) for root, m in marks.items()}
        return {name: marks[find(name)] for name in parent
                if find(name) in marks}

    # -- lattice ---------------------------------------------------------------

    def bottom(self):
        return None

    def boundary(self, blocks, entry_id):
        return {}

    def _snap_lo(self, lo):
        return None if lo is None else _floor(self.landmarks, lo)

    def _snap_hi(self, hi):
        return None if hi is None else _ceil(self.landmarks, hi)

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        out = {}
        for name, (alo, ahi) in a.items():
            other = b.get(name)
            if other is None:
                continue
            blo, bhi = other
            lo = None if alo is None or blo is None else min(alo, blo)
            hi = None if ahi is None or bhi is None else max(ahi, bhi)
            if lo != alo or lo != blo:
                lo = self._snap_lo(lo)
            if hi != ahi or hi != bhi:
                hi = self._snap_hi(hi)
            if lo is not None or hi is not None:
                out[name] = (lo, hi)
        return out

    def widen(self, old, new):
        """Loop-header widening: a bound of ``new`` that grew past
        ``old`` jumps to the next threshold of its name (unbounded past
        the last); bounds that did not grow keep ``old``'s value."""
        if old is None:
            return new
        if new is None:
            return old
        out = {}
        for name, (lo, hi) in old.items():
            other = new.get(name)
            if other is None:
                continue
            nlo, nhi = other
            marks = self.thresholds.get(name, _THRESHOLDS)
            if lo is not None and (nlo is None or nlo < lo):
                lo = None if nlo is None else _floor(marks, nlo)
            if hi is not None and (nhi is None or nhi > hi):
                hi = None if nhi is None else _ceil(marks, nhi)
            if lo is not None or hi is not None:
                out[name] = (lo, hi)
        return out

    # -- transfer --------------------------------------------------------------

    def value_of(self, rep, env):
        if isinstance(rep, ConstRep):
            if _num(rep.value):
                v = int(rep.value) if isinstance(rep.value, bool) \
                    else rep.value
                return interval(v, v)
            return TOP
        if isinstance(rep, Sym):
            return env.get(rep.name, TOP)
        return TOP

    def stmt_interval(self, stmt, env):
        """The interval of ``stmt``'s result under ``env`` (TOP when the
        op produces nothing interval-trackable)."""
        op = stmt.op
        args = stmt.args
        val = lambda i: self.value_of(args[i], env)     # noqa: E731
        if op in ("id", "taint", "untaint"):
            return val(0)
        if op in ("add", "sub", "mul", "neg") and stmt.flags.get("num"):
            a = val(0)
            if op == "neg":
                lo, hi = a
                return interval(None if hi is None else -hi,
                                None if lo is None else -lo)
            b = val(1)
            return self._arith(op, a, b)
        if op == "mod":
            return self._mod(val(0), val(1))
        if op in ("lt", "le", "gt", "ge", "eq", "ne"):
            proven = self.prove_compare(op, val(0), val(1))
            if proven is True:
                return (1, 1)
            if proven is False:
                return (0, 0)
            return (0, 1)
        if op == "not":
            lo, hi = val(0)
            if lo is not None and lo >= 1:
                return (0, 0)            # operand truthy
            if (lo, hi) == (0, 0):
                return (1, 1)            # operand falsy
            return (0, 1)
        if op in ("truthy", "instanceof"):
            return (0, 1)
        if op == "alen":
            return (0, None)
        if op == "new_array":
            return TOP
        return TOP

    @staticmethod
    def _arith(op, a, b):
        alo, ahi = a
        blo, bhi = b
        if op == "add":
            lo = None if alo is None or blo is None else alo + blo
            hi = None if ahi is None or bhi is None else ahi + bhi
            return interval(lo, hi)
        if op == "sub":
            lo = None if alo is None or bhi is None else alo - bhi
            hi = None if ahi is None or blo is None else ahi - blo
            return interval(lo, hi)
        # mul: need all four finite corner products.
        if None in (alo, ahi, blo, bhi):
            return TOP
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return interval(min(corners), max(corners))

    @staticmethod
    def _mod(a, b):
        blo, bhi = b
        if blo is None or bhi is None:
            return TOP
        bound = max(abs(blo), abs(bhi))
        alo = a[0]
        lo = 0 if (alo is not None and alo >= 0) else -bound
        return interval(lo, bound)

    @staticmethod
    def prove_compare(op, a, b):
        """True/False when the comparison is decided by the intervals,
        else None. Strict comparisons are proven only via strict bound
        inequalities (sound for floats under closed bounds)."""
        alo, ahi = a
        blo, bhi = b
        if op == "lt":
            if ahi is not None and blo is not None and ahi < blo:
                return True
            if alo is not None and bhi is not None and alo >= bhi:
                return False
        elif op == "le":
            if ahi is not None and blo is not None and ahi <= blo:
                return True
            if alo is not None and bhi is not None and alo > bhi:
                return False
        elif op == "gt":
            return RangeAnalysis.prove_compare("lt", b, a)
        elif op == "ge":
            return RangeAnalysis.prove_compare("le", b, a)
        elif op == "eq":
            if None not in (alo, ahi, blo, bhi) and alo == ahi == blo == bhi:
                return True
            if RangeAnalysis._disjoint(a, b):
                return False
        elif op == "ne":
            proven = RangeAnalysis.prove_compare("eq", a, b)
            return None if proven is None else not proven
        return None

    @staticmethod
    def _disjoint(a, b):
        alo, ahi = a
        blo, bhi = b
        if ahi is not None and blo is not None and ahi < blo:
            return True
        return bhi is not None and alo is not None and bhi < alo

    def transfer(self, block, env):
        if env is None:
            return None
        env = dict(env)
        for stmt in block.stmts:
            iv = self.stmt_interval(stmt, env)
            if iv != TOP:
                env[stmt.sym.name] = iv
            else:
                env.pop(stmt.sym.name, None)
            if stmt.op == "guard":
                env = self.assume(stmt.args[0], True, env)
            elif stmt.op == "guard_not":
                env = self.assume(stmt.args[0], False, env)
        return env

    # -- condition refinement ---------------------------------------------------

    def assume(self, cond, outcome, env):
        """Refine ``env`` under "``cond`` is truthy == ``outcome``";
        returns a new env (never mutates)."""
        env = dict(env)
        self._assume_into(cond, outcome, env, depth=0)
        return env

    def _assume_into(self, cond, outcome, env, depth):
        if depth > 8 or not isinstance(cond, Sym):
            return
        name = cond.name
        # The condition itself is now a known boolean.
        env[name] = (1, 1) if outcome else (0, 0)
        stmt = self.defs.get(name)
        if stmt is None:
            return
        op = stmt.op
        if op in ("id", "taint", "untaint"):
            self._assume_into(stmt.args[0], outcome, env, depth + 1)
            return
        if op == "not":
            self._assume_into(stmt.args[0], not outcome, env, depth + 1)
            return
        if op not in _MIRROR:
            return
        if not outcome:
            op = _NEGATE[op]
        lhs, rhs = stmt.args[0], stmt.args[1]
        self._refine(lhs, op, rhs, env)
        self._refine(rhs, _MIRROR[op], lhs, env)

    def _refine(self, target, op, other, env):
        """Narrow ``target``'s interval under ``target <op> other``.

        When ``target`` has no interval yet one is *created*, provided the
        other side is known numeric: an ordered comparison against a
        number raises on every non-numeric operand, and a true ``eq``
        against a number pins the value — either way, reaching this
        program point proves ``target`` numeric."""
        if not isinstance(target, Sym):
            return
        olo, ohi = self.value_of(other, env)
        if target.name in env:
            lo, hi = env[target.name]
        elif olo is not None or ohi is not None:
            lo, hi = TOP
        else:
            return
        if op in ("lt", "le") and ohi is not None:
            hi = ohi if hi is None else min(hi, ohi)
        elif op in ("gt", "ge") and olo is not None:
            lo = olo if lo is None else max(lo, olo)
        elif op == "eq":
            if olo is not None:
                lo = olo if lo is None else max(lo, olo)
            if ohi is not None:
                hi = ohi if hi is None else min(hi, ohi)
        if lo is not None and hi is not None and lo > hi:
            # Contradiction: path is dynamically dead; keep a thin
            # interval rather than inventing an unreachable lattice value.
            hi = lo
        env[target.name] = (lo, hi)

    # -- phi flow ---------------------------------------------------------------

    def edge_value(self, block, succ_id, out):
        if out is None:
            return None
        env = out
        term = block.terminator
        if isinstance(term, Branch) and term.true_target != term.false_target:
            if succ_id == term.true_target:
                env = self.assume(term.cond, True, env)
            elif succ_id == term.false_target:
                env = self.assume(term.cond, False, env)
        assigns = phi_assigns_for_edge(term, succ_id)
        if assigns:
            env = dict(env)
            for param, rep in assigns:
                iv = self.value_of(rep, env)
                if iv != TOP:
                    env[param] = iv
                else:
                    env.pop(param, None)
        return env


def range_facts(blocks, entry_id, params=()):
    """Solve the analysis; returns ``(analysis, solution)``, the
    :class:`~repro.analysis.dataflow.Solution` ``{bid: (env_in,
    env_out)}``. ``env_in`` of an unreachable block is ``None``."""
    analysis = RangeAnalysis(blocks, entry_id, params)
    return analysis, solve(blocks, entry_id, analysis)
