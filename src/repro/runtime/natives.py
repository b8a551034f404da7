"""Native methods: the guest's window to the host.

Natives are invoked through ``INVOKE_STATIC`` on well-known namespace
classes (``Builtins``, ``Math``, ``IO``, ``Lancet``). Each native carries a
``pure`` flag: pure natives with fully static arguments are executed at
JIT-compile time by the staged interpreter — this is what lets
``indexOf(schema, key)`` fold to a constant in the CSV example.

``Lancet.*`` natives are the *user-facing markers* of the JIT API
(paper 2.3: "the user-facing method is declared with the signature of the
identity function"). Under plain interpretation they have their identity
semantics; under compilation they are intercepted by JIT macros before
native dispatch.
"""

from __future__ import annotations

import math
import time

from repro.errors import GuestError, GuestTypeError
from repro.lms.ir import Effect


class NativeMethod:
    """A host-implemented static method.

    ``fn(vm, *args)``; ``argc`` is the arity (``None`` disallowed — MiniJVM
    calls are fixed arity). ``pure`` marks compile-time foldable natives;
    ``calls_guest`` marks natives that may invoke guest closures (these are
    never folded blindly — they are macro territory). ``allocates`` marks
    natives that allocate guest-visible heap data (for ``checkNoAlloc``).
    ``effect``, the IR effect of a residual call, follows from the flags
    in that order: an allocation's only effect is the fresh array.
    """

    __slots__ = ("class_name", "name", "argc", "fn", "pure", "calls_guest",
                 "allocates", "result_ty", "py_inline", "effect")

    def __init__(self, class_name, name, argc, fn, pure=False,
                 calls_guest=False, allocates=False, result_ty=None,
                 py_inline=None):
        self.class_name = class_name
        self.name = name
        self.argc = argc
        self.fn = fn
        self.pure = pure
        self.calls_guest = calls_guest
        self.allocates = allocates
        # Abstract type of the result ('num', 'str', 'arr', 'bool', None).
        self.result_ty = result_ty
        # Optional inline expression template for generated code, e.g.
        # "({0}).split({1})" — avoids the call through the wrapper.
        self.py_inline = py_inline
        self.effect = (Effect.CALL if calls_guest else
                       Effect.ALLOC if allocates else
                       Effect.PURE if pure else Effect.IO)

    @property
    def key(self):
        return (self.class_name, self.name)

    def __repr__(self):
        return "NativeMethod(%s.%s/%d)" % (self.class_name, self.name, self.argc)


NATIVES = {}


def native(class_name, name, argc, pure=False, calls_guest=False,
           allocates=False, result_ty=None, py_inline=None):
    """Decorator registering a native method."""
    def wrap(fn):
        nm = NativeMethod(class_name, name, argc, fn, pure=pure,
                          calls_guest=calls_guest, allocates=allocates,
                          result_ty=result_ty, py_inline=py_inline)
        NATIVES[nm.key] = nm
        return fn
    return wrap


def lookup_native(class_name, method_name):
    return NATIVES.get((class_name, method_name))


# ---------------------------------------------------------------------------
# Builtins: strings, arrays, conversions, output
# ---------------------------------------------------------------------------

@native("Builtins", "len", 1, pure=True, result_ty="num")
def _len(vm, x):
    if isinstance(x, (str, list)):
        return len(x)
    raise GuestTypeError("len() on %r" % type(x).__name__)


@native("Builtins", "print", 1)
def _print(vm, x):
    vm.write(to_guest_string(x))
    return None


@native("Builtins", "println", 1)
def _println(vm, x):
    vm.write(to_guest_string(x) + "\n")
    return None


@native("Builtins", "str", 1, pure=True, result_ty="str")
def _str(vm, x):
    return to_guest_string(x)


@native("Builtins", "split", 2, pure=True, allocates=True,
        result_ty="arr:str", py_inline="({0}).split({1})")
def _split(vm, s, sep):
    return s.split(sep)


@native("Builtins", "splitLines", 1, pure=True, allocates=True,
        result_ty="arr:str", py_inline="({0}).splitlines()")
def _split_lines(vm, s):
    return s.splitlines()


@native("Builtins", "indexOf", 2, pure=True, result_ty="num")
def _index_of(vm, arr, x):
    try:
        return arr.index(x)
    except ValueError:
        return -1


@native("Builtins", "contains", 2, pure=True, result_ty="bool")
def _contains(vm, arr, x):
    return x in arr


@native("Builtins", "charAt", 2, pure=True, result_ty="str")
def _char_at(vm, s, i):
    return s[i]


@native("Builtins", "charCode", 2, pure=True, result_ty="num",
        py_inline="ord(({0})[{1}])")
def _char_code(vm, s, i):
    return ord(s[i])


@native("Builtins", "fromCharCode", 1, pure=True, result_ty="str",
        py_inline="chr({0})")
def _from_char_code(vm, c):
    return chr(c)


@native("Builtins", "substring", 3, pure=True, result_ty="str",
        py_inline="({0})[{1}:{2}]")
def _substring(vm, s, lo, hi):
    return s[lo:hi]


@native("Builtins", "startsWith", 2, pure=True, result_ty="bool",
        py_inline="({0}).startswith({1})")
def _starts_with(vm, s, prefix):
    return s.startswith(prefix)


@native("Builtins", "parseInt", 1, pure=True, result_ty="num",
        py_inline="int({0})")
def _parse_int(vm, s):
    return int(s)


@native("Builtins", "parseFloat", 1, pure=True, result_ty="num",
        py_inline="float({0})")
def _parse_float(vm, s):
    return float(s)


@native("Builtins", "newArray", 2, allocates=True)
def _new_array(vm, n, fill):
    return [fill] * n


@native("Builtins", "copyArray", 1, allocates=True)
def _copy_array(vm, arr):
    return list(arr)


@native("Builtins", "concatArrays", 2, pure=True, allocates=True)
def _concat_arrays(vm, a, b):
    return list(a) + list(b)


@native("Builtins", "now", 0)
def _now(vm):
    return time.perf_counter()


# ---------------------------------------------------------------------------
# Math
# ---------------------------------------------------------------------------

def _math(name, fn, argc=1, py_inline=None):
    NATIVES[("Math", name)] = NativeMethod(
        "Math", name, argc, lambda vm, *a: fn(*a), pure=True,
        result_ty="num", py_inline=py_inline)


_math("exp", math.exp, py_inline="_math.exp({0})")
_math("log", math.log, py_inline="_math.log({0})")
_math("sqrt", math.sqrt, py_inline="_math.sqrt({0})")
_math("floor", lambda x: math.floor(x))
_math("ceil", lambda x: math.ceil(x))
_math("abs", abs, py_inline="abs({0})")
_math("min", min, argc=2)
_math("max", max, argc=2)
_math("pow", math.pow, argc=2)
_math("toFloat", float)
_math("toInt", int)


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

@native("IO", "readFile", 1)
def _read_file(vm, path):
    with open(path, "r") as f:
        return f.read()


@native("IO", "readLines", 1, allocates=True)
def _read_lines(vm, path):
    with open(path, "r") as f:
        return f.read().splitlines()


@native("IO", "writeFile", 2)
def _write_file(vm, path, text):
    with open(path, "w") as f:
        f.write(text)
    return None


# ---------------------------------------------------------------------------
# Lancet intrinsics: identity semantics under plain interpretation.
# The corresponding JIT macros live in repro.macros.
# ---------------------------------------------------------------------------

@native("Lancet", "freeze", 1, calls_guest=True)
def _freeze(vm, thunk):
    # By-name argument: the frontend wraps the expression in a thunk.
    return vm.call_closure(thunk, [])


@native("Lancet", "unroll", 1, pure=True)
def _unroll(vm, xs):
    return xs


@native("Lancet", "ntimes", 2, calls_guest=True)
def _ntimes(vm, n, f):
    for i in range(n):
        vm.call_closure(f, [i])
    return None


@native("Lancet", "compile", 1, calls_guest=True)
def _compile(vm, f):
    if vm.jit is not None:
        return vm.jit.compile_closure(f)
    return f


@native("Lancet", "likely", 1)
def _likely(vm, c):
    return c


@native("Lancet", "speculate", 1)
def _speculate(vm, c):
    return c


@native("Lancet", "stable", 1, calls_guest=True)
def _stable(vm, thunk):
    return vm.call_closure(thunk, [])


@native("Lancet", "slowpath", 0)
def _slowpath(vm):
    return None


@native("Lancet", "fastpath", 0)
def _fastpath(vm):
    return None


def _run_thunk(vm, thunk):
    return vm.call_closure(thunk, [])


for _name in ("inlineAlways", "inlineNever", "inlineNonRec",
              "unrollTopLevel", "checkNoAlloc", "checkNoTaint",
              "tier1", "tier2"):
    NATIVES[("Lancet", _name)] = NativeMethod(
        "Lancet", _name, 1, _run_thunk, calls_guest=True)


@native("Lancet", "atScope", 3, calls_guest=True)
def _at_scope(vm, pattern, directive, thunk):
    return vm.call_closure(thunk, [])


@native("Lancet", "inScope", 3, calls_guest=True)
def _in_scope(vm, pattern, directive, thunk):
    return vm.call_closure(thunk, [])


@native("Lancet", "taint", 1)
def _taint(vm, x):
    return x


@native("Lancet", "untaint", 1)
def _untaint(vm, x):
    return x


# ---------------------------------------------------------------------------
# Guest string conversion
# ---------------------------------------------------------------------------

def to_guest_string(x):
    """How guest code renders values as strings (ADD-concat, print)."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, list):
        return "[" + ", ".join(to_guest_string(v) for v in x) + "]"
    try:
        return str(x)
    except ValueError:
        # CPython's int->str digit guard (sys.int_max_str_digits) fired.
        # Surface it as a guest error so every tier fails identically
        # instead of leaking a host ValueError from whichever tier
        # happened to render the value.
        raise GuestError("integer too large to render as a string")


@native("Lancet", "reset", 1, calls_guest=True)
def _reset(vm, thunk):
    return vm.call_closure(thunk, [])


@native("Lancet", "shift", 1, calls_guest=True)
def _shift(vm, f):
    raise GuestError("Lancet.shift is only supported inside compiled code "
                     "(the delimiter is the compile boundary)")
