"""Guest operator semantics, including property-based checks.

These matter doubly: the interpreter AND compiled code share these
helpers, so they define the observable semantics deoptimization must
preserve.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import (GuestArithmeticError, GuestIndexError,
                          GuestNullError, GuestTypeError)
from repro.runtime import ops
from repro.runtime.objects import Obj, RtClass
from repro.bytecode.classfile import ClassFile


def make_obj():
    cf = ClassFile("T")
    cf.add_field("x")
    return Obj(RtClass("T", cf, None), {"x": None})


class TestAdd:
    def test_numbers(self):
        assert ops.guest_add(2, 3) == 5
        assert ops.guest_add(2.5, 0.5) == 3.0

    def test_string_concat(self):
        assert ops.guest_add("a", "b") == "ab"

    def test_string_plus_number(self):
        assert ops.guest_add("n=", 3) == "n=3"
        assert ops.guest_add(3, "=n") == "3=n"

    def test_string_plus_bool_null(self):
        assert ops.guest_add("", True) == "true"
        assert ops.guest_add("", None) == "null"

    def test_add_none_raises(self):
        with pytest.raises(GuestTypeError):
            ops.guest_add(None, 1)


class TestDivMod:
    def test_int_div_truncates_toward_zero(self):
        assert ops.guest_div(7, 2) == 3
        assert ops.guest_div(-7, 2) == -3     # Python would give -4
        assert ops.guest_div(7, -2) == -3
        assert ops.guest_div(-7, -2) == 3

    def test_float_div(self):
        assert ops.guest_div(7.0, 2) == 3.5

    def test_div_by_zero(self):
        with pytest.raises(GuestArithmeticError):
            ops.guest_div(1, 0)

    def test_mod_sign_follows_dividend(self):
        assert ops.guest_mod(7, 3) == 1
        assert ops.guest_mod(-7, 3) == -1     # Python would give 2
        assert ops.guest_mod(7, -3) == 1

    def test_mod_by_zero(self):
        with pytest.raises(GuestArithmeticError):
            ops.guest_mod(1, 0)

    def test_div_mod_match_a_truncating_reference(self):
        """The int path agrees with an independent trunc-toward-zero
        rule; bools and floats keep true division and Python's ``%``;
        zero divisors still raise."""
        def ref_div(a, b):
            if type(a) is int and type(b) is int:
                return math.trunc(a / b)      # exact for these magnitudes
            return a / b

        def ref_mod(a, b):
            if type(a) is int and type(b) is int:
                return a - ref_div(a, b) * b
            return a % b

        ints = range(-60, 61)
        others = [True, False, 2.5, -3.0, 0.5]
        for a in list(ints) + others:
            for b in [b for b in ints if b] + [True, 2.5, -0.5]:
                for helper, ref in ((ops.guest_div, ref_div),
                                    (ops.guest_mod, ref_mod)):
                    got, want = helper(a, b), ref(a, b)
                    assert got == want and type(got) is type(want), \
                        (helper.__name__, a, b, got, want)
            for zero in (0, False, 0.0):
                for helper in (ops.guest_div, ops.guest_mod):
                    with pytest.raises(GuestArithmeticError):
                        helper(a, zero)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_div_mod_identity(self, a, b):
        """Java invariant: a == (a / b) * b + (a % b)."""
        if b == 0:
            return
        q = ops.guest_div(a, b)
        r = ops.guest_mod(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_trunc_div_matches_c(self, a, b):
        assert ops.guest_div(a, b) == math.trunc(a / b) or abs(a) > 2**52


class TestEq:
    def test_primitives_by_value(self):
        assert ops.guest_eq(1, 1)
        assert ops.guest_eq("x", "x")
        assert not ops.guest_eq(1, 2)

    def test_objects_by_reference(self):
        a, b = make_obj(), make_obj()
        assert ops.guest_eq(a, a)
        assert not ops.guest_eq(a, b)

    def test_arrays_by_reference(self):
        a = [1, 2]
        assert ops.guest_eq(a, a)
        assert not ops.guest_eq(a, [1, 2])

    def test_null(self):
        assert ops.guest_eq(None, None)
        assert not ops.guest_eq(None, 0)


class TestCompare:
    def test_numbers(self):
        assert ops.guest_lt(1, 2)
        assert ops.guest_ge(2, 2)

    def test_strings(self):
        assert ops.guest_lt("a", "b")

    def test_mixed_raises(self):
        with pytest.raises(GuestTypeError):
            ops.guest_lt("a", 1)

    def test_null_raises(self):
        with pytest.raises(GuestNullError):
            ops.guest_lt(None, 1)


class TestArrays:
    def test_load_store(self):
        arr = [1, 2, 3]
        assert ops.guest_aload(arr, 1) == 2
        ops.guest_astore(arr, 1, 9)
        assert arr[1] == 9

    def test_negative_index_rejected(self):
        # Python would wrap; guest semantics must not.
        with pytest.raises(GuestIndexError):
            ops.guest_aload([1, 2], -1)

    def test_out_of_bounds(self):
        with pytest.raises(GuestIndexError):
            ops.guest_aload([1], 1)
        with pytest.raises(GuestIndexError):
            ops.guest_astore([1], 5, 0)

    def test_bool_index_rejected(self):
        with pytest.raises(GuestIndexError):
            ops.guest_aload([1, 2], True)

    def test_null_array(self):
        with pytest.raises(GuestNullError):
            ops.guest_aload(None, 0)
        with pytest.raises(GuestNullError):
            ops.guest_alen(None)

    def test_alen_on_string(self):
        assert ops.guest_alen("abc") == 3


class TestFields:
    def test_get_put(self):
        o = make_obj()
        ops.guest_putfield(o, "x", 5)
        assert ops.guest_getfield(o, "x") == 5

    def test_null_object(self):
        with pytest.raises(GuestNullError):
            ops.guest_getfield(None, "x")
        with pytest.raises(GuestNullError):
            ops.guest_putfield(None, "x", 1)

    def test_non_object(self):
        with pytest.raises(GuestTypeError):
            ops.guest_getfield(3, "x")


class TestMulGuards:
    def test_string_mul_rejected(self):
        # Python would repeat the string; guest semantics must not.
        with pytest.raises(GuestTypeError):
            ops.guest_mul("ab", 3)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_mul_matches_python_for_ints(self, a, b):
        assert ops.guest_mul(a, b) == a * b
