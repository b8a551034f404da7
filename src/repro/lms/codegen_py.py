"""Python code generation from the staged IR.

The CFG is emitted as one Python function whose control flow is nested
``if``/``while``, from the tree :mod:`repro.lms.structure` builds::

    def __compiled(a1, a2):
     s1 = _add(a1, 1)
     while True:
      if not s2:
       break
      ...

Each level indents by one space, so deep decision trees stay small.
Single-predecessor blocks read their predecessor's variables directly
(the predecessor dominates them); merge blocks receive values through
explicit parameter variables assigned by each predecessor.

A unit the structurer cannot express (an irreducible region, an exit out
of two loops, nesting past CPython's limits) falls back to one
``while True:`` loop over an ``if/elif __L == k:`` chain, and
:attr:`PyCodegen.fallback` holds the structurer's reason.

This module only *renders*: block fusion and DCE are PassManager passes
(:mod:`repro.pipeline.passes`) shared by every backend; the names are
re-exported here for standalone codegen users.
"""

from __future__ import annotations

from repro.analysis.dce import eliminate_dead  # noqa: F401  (re-export)
from repro.analysis.fuse import fuse_blocks  # noqa: F401  (re-export)
from repro.lms.ir import Branch, Deopt, Jump, OsrCompile, Return
from repro.lms.rep import ConstRep, StaticRep, Sym
from repro.lms.structure import structure, walk


def _no_delite(*args):
    raise RuntimeError("no Delite runtime attached to this VM")

_INFIX = {"add": "+", "sub": "-", "mul": "*", "eq": "==", "ne": "!=",
          "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_HELPER_BY_OP = {
    "add": "_add", "sub": "_sub", "mul": "_mul", "div": "_div",
    "mod": "_mod", "neg": "_neg", "eq": "_eq", "ne": "_ne", "lt": "_lt",
    "le": "_le", "gt": "_gt", "ge": "_ge",
    "getfield": "_getf", "putfield": "_putf",
    "aload": "_aload", "astore": "_astore", "alen": "_alen",
}


class PyCodegen:
    """Emits and ``exec``-compiles one function from a CFG."""

    def __init__(self, vm, statics, metas, fn_name="__compiled"):
        self.vm = vm
        self.statics = statics
        self.metas = metas
        self.fn_name = fn_name
        self._native_bindings = {}   # binding name -> callable
        self.native_refs = {}        # binding name -> (class, native name)
        self.persist_blockers = []   # why this source can't be persisted
        self.fallback = None         # why generate fell back, if it did

    # -- value rendering -------------------------------------------------------

    def rep(self, r):
        if isinstance(r, Sym):
            return r.name
        if isinstance(r, ConstRep):
            return self.const(r.value)
        if isinstance(r, StaticRep):
            return "K[%d]" % r.index
        raise AssertionError("bad rep %r" % (r,))

    @staticmethod
    def const(v):
        if isinstance(v, float):
            if v != v:
                return "float('nan')"
            if v in (float("inf"), float("-inf")):
                return "float('%sinf')" % ("-" if v < 0 else "")
        return repr(v)

    def _bind_native(self, nat):
        name = "n_%s_%s" % (nat.class_name, nat.name)
        self._native_bindings[name] = nat.fn
        self.native_refs[name] = (nat.class_name, nat.name)
        return name

    def bind_native_by_name(self, binding, class_name, native_name):
        """Re-resolve a recorded native binding (persistent-cache reload).
        Returns False when the native no longer exists."""
        from repro.runtime.natives import lookup_native
        nat = lookup_native(class_name, native_name)
        if nat is None:
            return False
        self._native_bindings[binding] = nat.fn
        self.native_refs[binding] = (class_name, native_name)
        return True

    # -- statement rendering --------------------------------------------------------

    def stmt(self, stmt):
        op = stmt.op
        args = stmt.args
        flags = stmt.flags
        r = self.rep
        target = stmt.sym.name

        if op in ("id", "taint", "untaint"):
            # taint/untaint are analysis-only markers: identity at runtime.
            return "%s = %s" % (target, r(args[0]))
        if op == "throw":
            return "raise _GuestThrow(%s)" % r(args[0])
        if op in _INFIX and flags.get("num"):
            return "%s = %s %s %s" % (target, r(args[0]), _INFIX[op], r(args[1]))
        if op in ("not",):
            return "%s = not %s" % (target, r(args[0]))
        if op == "neg" and flags.get("num"):
            return "%s = -%s" % (target, r(args[0]))
        if op == "concat":
            return "%s = %s + %s" % (target, r(args[0]), r(args[1]))
        if op == "to_str":
            return "%s = _gstr(%s)" % (target, r(args[0]))
        if op == "truthy":
            return "%s = bool(%s)" % (target, r(args[0]))
        if op == "getfield":
            if flags.get("objfast"):
                return "%s = %s.fields[%r]" % (target, r(args[0]), args[1])
            return "%s = _getf(%s, %r)" % (target, r(args[0]), args[1])
        if op == "putfield":
            if flags.get("objfast"):
                return "%s.fields[%r] = %s; %s = None" % (
                    r(args[0]), args[1], r(args[2]), target)
            return "%s = _putf(%s, %r, %s)" % (target, r(args[0]), args[1],
                                               r(args[2]))
        if op == "putfield_stablecheck":
            return "%s = _putf(%s, %r, %s)" % (target, r(args[0]), args[1],
                                               r(args[2]))
        if op == "alen" and flags.get("arrfast"):
            return "%s = len(%s)" % (target, r(args[0]))
        if op == "aload" and (flags.get("fast") or flags.get("known_arr")):
            return "%s = %s[%s]" % (target, r(args[0]), r(args[1]))
        if op == "astore" and flags.get("fast"):
            return "%s[%s] = %s; %s = None" % (r(args[0]), r(args[1]),
                                               r(args[2]), target)
        if op in _HELPER_BY_OP:
            rendered = ", ".join(r(a) for a in args)
            return "%s = %s(%s)" % (target, _HELPER_BY_OP[op], rendered)
        if op == "instanceof":
            return ("%s = isinstance(%s, _Obj) and %s.cls.is_subclass_of(%r)"
                    % (target, r(args[0]), r(args[0]), args[1]))
        if op == "class_is":
            # Exact-class test backing trace receiver speculation (the
            # subclass-aware `instanceof` would admit overriding classes).
            return ("%s = isinstance(%s, _Obj) and %s.cls.name == %r"
                    % (target, r(args[0]), r(args[0]), args[1]))
        if op == "new":
            return "%s = _newinst(%s)" % (target, r(args[0]))
        if op == "new_array":
            return "%s = _newarr(%s)" % (target, r(args[0]))
        if op == "array_lit":
            return "%s = [%s]" % (target, ", ".join(r(a) for a in args))
        if op == "delite":
            desc = args[0]
            binding = "dop_%d" % id(desc)
            self._native_bindings[binding] = desc
            # Kernel descriptors are live host objects bound by identity;
            # the rendered source is process-private.
            self.persist_blockers.append("delite kernel binding")
            rendered = ", ".join(r(a) for a in args[1:])
            return "%s = _drun(%s, %s)" % (target, binding, rendered)
        if op == "native":
            nat = args[0]
            if nat.py_inline is not None:
                expr = nat.py_inline.format(*[r(a) for a in args[1:]])
                return "%s = %s" % (target, expr)
            binding = self._bind_native(nat)
            rendered = ", ".join(r(a) for a in args[1:])
            return "%s = %s(vm, %s)" % (target, binding,
                                        rendered) if rendered else \
                   "%s = %s(vm)" % (target, binding)
        if op == "invoke":
            name = args[0]
            rendered = ", ".join(r(a) for a in args[2:])
            return "%s = _callv(%s, %r, [%s])" % (target, r(args[1]), name,
                                                  rendered)
        if op == "invoke_method":
            rendered = ", ".join(r(a) for a in args[2:])
            return "%s = _callm(%s, %s, [%s])" % (target, r(args[0]),
                                                  r(args[1]), rendered)
        if op == "guard":
            meta_id = args[1]
            lives = ", ".join(r(a) for a in args[2:])
            return ("if not %s: raise _DeoptEx(%d, (%s))\n%s = None"
                    % (r(args[0]), meta_id, lives + ("," if lives else ""),
                       target))
        if op == "guard_not":
            meta_id = args[1]
            lives = ", ".join(r(a) for a in args[2:])
            return ("if %s: raise _DeoptEx(%d, (%s))\n%s = None"
                    % (r(args[0]), meta_id, lives + ("," if lives else ""),
                       target))
        if op == "make_cont":
            meta_id = args[0]
            lives = ", ".join(r(a) for a in args[1:])
            return "%s = _mkcont(%d, (%s))" % (target, meta_id,
                                               lives + ("," if lives else ""))
        raise AssertionError("cannot render op %r" % (op,))

    # -- terminators ----------------------------------------------------------------

    def _assigns(self, assigns):
        if not assigns:
            return []
        names = ", ".join(n for n, __ in assigns)
        vals = ", ".join(self.rep(v) for __, v in assigns)
        return ["%s = %s" % (names, vals)]

    def exit_lines(self, term):
        """The lines of a terminator that leaves the function; empty for
        the edges (``Jump``/``Branch``) the caller lays out."""
        if isinstance(term, Return):
            return ["return %s" % self.rep(term.value)]
        if isinstance(term, Deopt):
            lives = ", ".join(self.rep(a) for a in term.lives)
            return ["raise _DeoptEx(%d, (%s))"
                    % (term.meta_id, lives + ("," if lives else ""))]
        if isinstance(term, OsrCompile):
            lives = ", ".join(self.rep(a) for a in term.lives)
            return ["return _osr(%d, (%s))"
                    % (term.meta_id, lives + ("," if lives else ""))]
        if isinstance(term, (Jump, Branch)):
            return []
        raise AssertionError("missing terminator")

    def _dispatch_edges(self, term):
        if isinstance(term, Jump):
            return self._assigns(term.phi_assigns) + \
                ["__L = %d" % term.target, "continue"]
        if isinstance(term, Branch):
            lines = ["if %s:" % self.rep(term.cond)]
            body = self._assigns(term.true_assigns) + \
                ["__L = %d" % term.true_target, "continue"]
            lines += ["    " + ln for ln in body]
            lines.append("else:")
            body = self._assigns(term.false_assigns) + \
                ["__L = %d" % term.false_target, "continue"]
            lines += ["    " + ln for ln in body]
            return lines
        return self.exit_lines(term)

    # -- whole function ----------------------------------------------------------------

    def generate(self, blocks, entry_id, param_names, callv, callm, mkcont,
                 osr, optimize=True):
        """Render, compile, and return ``(function, source)``.

        ``optimize=False`` skips fusion/DCE — the JIT pipeline has already
        run them (plus the IR analyses) by the time it calls us.
        """
        if optimize:
            fuse_blocks(blocks, entry_id)
            eliminate_dead(blocks, entry_id)
        lines = ["def %s(%s):" % (self.fn_name, ", ".join(param_names))]
        tree, self.fallback = structure(blocks, entry_id)
        if tree is not None:
            self._render_tree(tree, blocks, lines)
        else:
            self._render_dispatch(blocks, entry_id, lines)
        source = "\n".join(lines) + "\n"
        return self.exec_source(source, callv, callm, mkcont, osr), source

    def _render_tree(self, tree, blocks, lines):
        opened = []      # len(lines) after each open suite's header
        for depth, kind, arg in walk(tree):
            pad = " " * (depth + 1)
            if kind == "block":
                block = blocks[arg]
                body = [self.stmt(stmt) for stmt in block.stmts]
                body += self.exit_lines(block.terminator)
                if body:
                    # A guard renders as two lines; indent them all.
                    lines.append(pad + "\n".join(body).replace(
                        "\n", "\n" + pad))
            elif kind == "assign":
                lines.extend(pad + ln for ln in self._assigns(arg))
            elif kind in ("else", "end"):
                if len(lines) == opened.pop():
                    lines.append(pad + " pass")
                if kind == "else":
                    lines.append(pad + "else:")
                    opened.append(len(lines))
            else:
                if kind == "if":
                    lines.append(pad + "if %s:" % self.rep(arg))
                elif kind == "ifnot":
                    lines.append(pad + "if not %s:" % self.rep(arg))
                elif kind == "loop":
                    lines.append(pad + "while True:")
                else:
                    lines.append(pad + kind)      # break / continue
                    continue
                opened.append(len(lines))

    def _render_dispatch(self, blocks, entry_id, lines):
        lines.append("    __L = %d" % entry_id)
        lines.append("    while True:")
        first = True
        for bid in sorted(blocks):
            block = blocks[bid]
            lines.append("        %s __L == %d:" % ("if" if first else "elif",
                                                    bid))
            first = False
            body = [self.stmt(stmt) for stmt in block.stmts]
            body += self._dispatch_edges(block.terminator)
            for chunk in body or ["pass"]:
                for ln in chunk.split("\n"):
                    lines.append("            " + ln)

    def exec_source(self, source, callv, callm, mkcont, osr,
                    filename="<lancet-compiled>"):
        """Compile already-rendered source against this codegen's
        namespace (statics, natives, runtime hooks). This is the reload
        half of the persistent code cache: cached source re-enters here
        without any staging."""
        namespace = self._namespace(callv, callm, mkcont, osr)
        code = compile(source, filename, "exec")
        exec(code, namespace)
        return namespace[self.fn_name]

    def _namespace(self, callv, callm, mkcont, osr):
        import math as _math

        from repro.compiler.deopt import DeoptException
        from repro.interp.interpreter import GuestThrow
        from repro.runtime import ops
        from repro.runtime.natives import to_guest_string
        from repro.runtime.objects import Obj, new_instance

        def _newarr(n):
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                from repro.errors import GuestTypeError
                raise GuestTypeError("bad array length %r" % (n,))
            return [None] * n

        ns = {
            "K": self.statics.objects,
            "vm": self.vm,
            "_add": ops.guest_add, "_sub": ops.guest_sub,
            "_mul": ops.guest_mul, "_div": ops.guest_div,
            "_mod": ops.guest_mod, "_neg": ops.guest_neg,
            "_eq": ops.guest_eq, "_ne": ops.guest_ne,
            "_lt": ops.guest_lt, "_le": ops.guest_le,
            "_gt": ops.guest_gt, "_ge": ops.guest_ge,
            "_getf": ops.guest_getfield, "_putf": ops.guest_putfield,
            "_aload": ops.guest_aload, "_astore": ops.guest_astore,
            "_alen": ops.guest_alen,
            "_gstr": to_guest_string,
            "_Obj": Obj,
            "_newinst": new_instance,
            "_newarr": _newarr,
            "_DeoptEx": DeoptException,
            "_GuestThrow": GuestThrow,
            "_math": _math,
            "_callv": callv,
            "_callm": callm,
            "_mkcont": mkcont,
            "_osr": osr,
            "_drun": getattr(self.vm, "delite", None)
            and self.vm.delite.run or _no_delite,
        }
        ns.update(self._native_bindings)
        return ns
