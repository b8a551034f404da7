"""Guest operator semantics, shared by the interpreter and compiled code.

The staged compiler emits calls to these helpers for operations whose
operand types are not statically known, which guarantees that compiled code
computes exactly what the interpreter computes (a correctness property the
deoptimization machinery depends on: OSR between the two must be
observationally invisible).

Semantics notes:

* ``+`` concatenates when either operand is a string (Scala/Java style),
  otherwise adds numbers.
* int/int division and modulo truncate toward zero (Java style), unlike
  Python's floor semantics.
* ``==`` compares ``Obj`` instances by reference and primitives/strings by
  value; arrays compare by reference (Java style).
"""

from __future__ import annotations

import numpy as _np

from repro.errors import (GuestArithmeticError, GuestIndexError,
                          GuestNullError, GuestThrow, GuestTypeError)
from repro.runtime.objects import Obj

# Guest arrays are Python lists; Delite ops hand numpy arrays back to guest
# code, so the array helpers accept both.
ARRAY_TYPES = (list, _np.ndarray)


def guest_add(a, b):
    if isinstance(a, str) or isinstance(b, str):
        from repro.runtime.natives import to_guest_string
        return to_guest_string(a) + to_guest_string(b)
    try:
        return a + b
    except TypeError:
        raise GuestTypeError("cannot add %r and %r" % (a, b))


def guest_sub(a, b):
    try:
        return a - b
    except TypeError:
        raise GuestTypeError("cannot subtract %r and %r" % (a, b))


def guest_mul(a, b):
    if isinstance(a, str) or isinstance(b, str):
        raise GuestTypeError("cannot multiply strings")
    try:
        return a * b
    except TypeError:
        raise GuestTypeError("cannot multiply %r and %r" % (a, b))


def guest_div(a, b):
    # Ints truncate toward zero; `type() is int` keeps bools out.
    if type(a) is int and type(b) is int:
        if b == 0:
            raise GuestArithmeticError("division by zero")
        q = a // b
        if q < 0 and q * b != a:
            q += 1
        return q
    if b == 0:
        raise GuestArithmeticError("division by zero")
    try:
        return a / b
    except TypeError:
        raise GuestTypeError("cannot divide %r and %r" % (a, b))


def guest_mod(a, b):
    # The remainder takes the dividend's sign, matching guest_div.
    if type(a) is int and type(b) is int:
        if b == 0:
            raise GuestArithmeticError("modulo by zero")
        r = a % b
        if r and (a ^ b) < 0:
            r -= b
        return r
    if b == 0:
        raise GuestArithmeticError("modulo by zero")
    try:
        return a % b
    except TypeError:
        raise GuestTypeError("cannot take %r mod %r" % (a, b))


def guest_neg(a):
    try:
        return -a
    except TypeError:
        raise GuestTypeError("cannot negate %r" % (a,))


def guest_eq(a, b):
    if isinstance(a, Obj) or isinstance(b, Obj):
        return a is b
    if isinstance(a, list) or isinstance(b, list):
        return a is b
    return a == b


def guest_ne(a, b):
    return not guest_eq(a, b)


def _cmp_guard(a, b):
    if a is None or b is None:
        raise GuestNullError("comparison with null")
    if isinstance(a, str) != isinstance(b, str):
        raise GuestTypeError("cannot order %r and %r" % (a, b))


def guest_lt(a, b):
    _cmp_guard(a, b)
    return a < b


def guest_le(a, b):
    _cmp_guard(a, b)
    return a <= b


def guest_gt(a, b):
    _cmp_guard(a, b)
    return a > b


def guest_ge(a, b):
    _cmp_guard(a, b)
    return a >= b


def guest_not(a):
    return not a


def guest_instanceof(v, cls_name):
    return isinstance(v, Obj) and v.cls.is_subclass_of(cls_name)


def guest_newarray(n):
    if not isinstance(n, int) or n < 0:
        raise GuestTypeError("bad array length %r" % (n,))
    return [None] * n


def guest_throw(v):
    raise GuestThrow(v)


def guest_aload(arr, i):
    if arr is None:
        raise GuestNullError("array load on null")
    if not isinstance(arr, ARRAY_TYPES):
        raise GuestTypeError("array load on %r" % type(arr).__name__)
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < len(arr):
        raise GuestIndexError("index %r out of bounds (len %d)" % (i, len(arr)))
    v = arr[i]
    if isinstance(v, _np.generic):
        return v.item()    # numpy scalar -> guest primitive
    return v


def guest_astore(arr, i, v):
    if arr is None:
        raise GuestNullError("array store on null")
    if not isinstance(arr, ARRAY_TYPES):
        raise GuestTypeError("array store on %r" % type(arr).__name__)
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < len(arr):
        raise GuestIndexError("index %r out of bounds (len %d)" % (i, len(arr)))
    arr[i] = v


def guest_alen(arr):
    if arr is None:
        raise GuestNullError("length of null")
    if not isinstance(arr, (str,) + ARRAY_TYPES):
        raise GuestTypeError("length of %r" % type(arr).__name__)
    return len(arr)


def guest_getfield(obj, name):
    if obj is None:
        raise GuestNullError("field %r read on null" % name)
    if not isinstance(obj, Obj):
        raise GuestTypeError("field %r read on %r" % (name, type(obj).__name__))
    return obj.get(name)


def guest_putfield(obj, name, value):
    if obj is None:
        raise GuestNullError("field %r write on null" % name)
    if not isinstance(obj, Obj):
        raise GuestTypeError("field %r write on %r" % (name, type(obj).__name__))
    obj.put(name, value)


def guest_setfield(obj, value, name):
    """PUTFIELD in operand-stack order (``obj value --`` plus the field
    name immediate), so the handler table and the baseline templates can
    pass operands bottom-to-top uniformly."""
    guest_putfield(obj, name, value)
