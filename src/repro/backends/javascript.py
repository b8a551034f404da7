"""JavaScript cross-compilation (paper 3.5).

Lancet acts as a bytecode decompilation front-end: guest code is staged
exactly as for native compilation, and the resulting IR is rendered as
JavaScript. Control flow comes from the same structuring step as the
Python backend (:mod:`repro.lms.structure`): nested ``if``/``while (true)``
with ``break;``/``continue;``, and a ``switch (__L)`` dispatch loop only
for a unit the structurer cannot express. Residual virtual calls become
JS method calls — this plays the role of the paper's DOM macro
(``invokeMethod`` on classes inheriting the ``JS`` marker emits
``receiver.name(args)``).

Usage::

    js = cross_compile_js(jit, "Main", "draw")   # or a guest closure
    print(js)

Limitations (as in the paper: "only core functionality of a JavaScript
cross-compiler"): no guest-class translation (object-constructing code
should be inlined/scalar-replaced away), no deoptimization (guards are
rejected), statics must be primitives.
"""

from __future__ import annotations

from repro.errors import CompilationError
from repro.lms.ir import Branch, Jump, Return
from repro.lms.rep import ConstRep, StaticRep, Sym
from repro.lms.structure import structure, walk
from repro.pipeline.backend import Backend, register_backend

_PRELUDE = """\
function __div(a, b) { var q = a / b; return (Number.isInteger(a) && Number.isInteger(b)) ? Math.trunc(q) : q; }
function __mod(a, b) { return a - __div(a, b) * b; }
"""

_INFIX = {"add": "+", "sub": "-", "mul": "*", "eq": "===", "ne": "!==",
          "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_NATIVES = {
    ("Builtins", "println"): "console.log({0})",
    ("Builtins", "print"): "console.log({0})",
    ("Builtins", "str"): "String({0})",
    ("Builtins", "len"): "({0}).length",
    ("Builtins", "charCode"): "({0}).charCodeAt({1})",
    ("Builtins", "substring"): "({0}).substring({1}, {2})",
    ("Builtins", "split"): "({0}).split({1})",
    ("Math", "exp"): "Math.exp({0})",
    ("Math", "log"): "Math.log({0})",
    ("Math", "sqrt"): "Math.sqrt({0})",
    ("Math", "abs"): "Math.abs({0})",
    ("Math", "min"): "Math.min({0}, {1})",
    ("Math", "max"): "Math.max({0}, {1})",
    ("Math", "pow"): "Math.pow({0}, {1})",
    ("Math", "floor"): "Math.floor({0})",
}


@register_backend
class JSBackend(Backend):
    """Backend-protocol face of the JS renderer: consumes the canonical
    post-PassManager IR (same input as the Python backend)."""

    name = "js"

    def emit(self, unit, **kwargs):
        return render_js(unit.result, kwargs.get("fn_name") or unit.name)


def cross_compile_js(jit, class_name, method_name=None, fn_name=None):
    """Cross-compile a guest static method (or closure) to JavaScript
    source; returns the JS text."""
    from repro.pipeline.backend import CompilationUnit, get_backend
    if method_name is None:
        compiled = jit.compile_closure(class_name)   # a closure object
        unit_name = fn_name or "apply"
    else:
        compiled = jit.compile_function(class_name, method_name)
        unit_name = fn_name or method_name
    unit = CompilationUnit(result=compiled.ir, name=unit_name, jit=jit)
    return get_backend("js").emit(unit)


def render_js(result, fn_name):
    """``result``'s CFG as one JS function: nested ``if``/``while`` from
    the shared structurer, or a ``switch (__L)`` dispatch loop when the
    structurer reports the unit unstructured."""
    blocks = result.blocks
    params = ", ".join(result.param_names)
    lines = [_PRELUDE, "function %s(%s) {" % (fn_name, params)]
    tree, __ = structure(blocks, result.entry_bid)
    if tree is not None:
        for depth, kind, arg in walk(tree):
            pad = "  " * (depth + 1)
            if kind == "block":
                block = blocks[arg]
                lines.extend(pad + _stmt_js(stmt) for stmt in block.stmts)
                lines.extend(pad + ln for ln in _term_js(block.terminator))
            elif kind == "assign":
                lines.extend(pad + ln for ln in _assigns_js(arg))
            elif kind == "if":
                lines.append(pad + "if (%s) {" % _rep(arg))
            elif kind == "ifnot":
                lines.append(pad + "if (!(%s)) {" % _rep(arg))
            elif kind == "else":
                lines.append(pad + "} else {")
            elif kind == "loop":
                lines.append(pad + "while (true) {")
            elif kind == "end":
                lines.append(pad + "}")
            else:
                lines.append(pad + kind + ";")     # break / continue
        lines.append("}")
        return "\n".join(lines)
    lines.append("  var __L = %d;" % result.entry_bid)
    lines.append("  while (true) { switch (__L) {")
    for bid in sorted(blocks):
        block = blocks[bid]
        lines.append("  case %d: {" % bid)
        for stmt in block.stmts:
            lines.append("    " + _stmt_js(stmt))
        lines.extend("    " + ln for ln in _dispatch_js(block.terminator))
        lines.append("  }")
    lines.append("  } }")
    lines.append("}")
    return "\n".join(lines)


def _rep(r):
    if isinstance(r, Sym):
        return r.name
    if isinstance(r, ConstRep):
        v = r.value
        if v is None:
            return "null"
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, str):
            return '"%s"' % v.replace("\\", "\\\\").replace('"', '\\"') \
                .replace("\n", "\\n")
        return repr(v)
    if isinstance(r, StaticRep):
        raise CompilationError(
            "JS backend: cannot ship heap object %r; specialize it away "
            "or pass it as a parameter" % (r.obj,))
    raise AssertionError(r)


def _stmt_js(stmt):
    op = stmt.op
    r = _rep
    t = stmt.sym.name
    if op in _INFIX:
        return "var %s = %s %s %s;" % (t, r(stmt.args[0]), _INFIX[op],
                                       r(stmt.args[1]))
    if op == "div":
        return "var %s = __div(%s, %s);" % (t, r(stmt.args[0]),
                                            r(stmt.args[1]))
    if op == "mod":
        return "var %s = __mod(%s, %s);" % (t, r(stmt.args[0]),
                                            r(stmt.args[1]))
    if op == "concat":
        return "var %s = %s + %s;" % (t, r(stmt.args[0]), r(stmt.args[1]))
    if op == "neg":
        return "var %s = -%s;" % (t, r(stmt.args[0]))
    if op == "not":
        return "var %s = !%s;" % (t, r(stmt.args[0]))
    if op == "id":
        return "var %s = %s;" % (t, r(stmt.args[0]))
    if op == "alen":
        return "var %s = (%s).length;" % (t, r(stmt.args[0]))
    if op == "aload":
        return "var %s = %s[%s];" % (t, r(stmt.args[0]), r(stmt.args[1]))
    if op == "astore":
        return "%s[%s] = %s; var %s = null;" % (
            r(stmt.args[0]), r(stmt.args[1]), r(stmt.args[2]), t)
    if op == "array_lit":
        return "var %s = [%s];" % (t, ", ".join(r(x) for x in stmt.args))
    if op == "new_array":
        return "var %s = new Array(%s).fill(null);" % (t, r(stmt.args[0]))
    if op == "getfield":
        return "var %s = %s.%s;" % (t, r(stmt.args[0]), stmt.args[1])
    if op == "putfield":
        return "%s.%s = %s; var %s = null;" % (
            r(stmt.args[0]), stmt.args[1], r(stmt.args[2]), t)
    if op == "invoke":
        # The paper's DOM macro: residual method calls become JS calls.
        name = stmt.args[0]
        rendered = ", ".join(r(x) for x in stmt.args[2:])
        return "var %s = %s.%s(%s);" % (t, r(stmt.args[1]), name, rendered)
    if op == "native":
        nat = stmt.args[0]
        template = _NATIVES.get((nat.class_name, nat.name))
        if template is None:
            raise CompilationError("JS backend: no translation for native "
                                   "%s.%s" % (nat.class_name, nat.name))
        expr = template.format(*[r(x) for x in stmt.args[1:]])
        return "var %s = %s;" % (t, expr)
    raise CompilationError("JS backend: cannot translate op %r "
                           "(guards/deopt are host-only)" % (op,))


def _term_js(term):
    """A block's exit; the edges of ``Jump``/``Branch`` are laid out by
    the caller."""
    if isinstance(term, (Jump, Branch)):
        return []
    if isinstance(term, Return):
        return ["return %s;" % _rep(term.value)]
    raise CompilationError("JS backend: cannot translate terminator %r"
                           % (term,))


def _dispatch_js(term):
    if isinstance(term, Jump):
        return _assigns_js(term.phi_assigns) + \
            ["__L = %d; continue;" % term.target]
    if isinstance(term, Branch):
        out = ["if (%s) {" % _rep(term.cond)]
        out += ["  " + ln for ln in _assigns_js(term.true_assigns)]
        out.append("  __L = %d; continue;" % term.true_target)
        out.append("} else {")
        out += ["  " + ln for ln in _assigns_js(term.false_assigns)]
        out.append("  __L = %d; continue;" % term.false_target)
        out.append("}")
        return out
    return _term_js(term)


def _assigns_js(assigns):
    # Phi assigns are parallel (a loop may swap two parameters), so
    # several go through one destructuring assignment.
    if not assigns:
        return []
    if len(assigns) == 1:
        (name, rep), = assigns
        return ["var %s = %s;" % (name, _rep(rep))]
    return ["var [%s] = [%s];" % (", ".join(n for n, __ in assigns),
                                  ", ".join(_rep(r) for __, r in assigns))]
