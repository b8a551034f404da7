"""The abstract value domain (paper section 2.2).

    abstract class AbsVal[T]
    case class Const[T](x: T) extends AbsVal[T]
    case class Static[T](x: T) extends AbsVal[T]
    case class Partial[T](f: Map[JavaField,Rep[Any]]) extends AbsVal[T]
    case class Unknown[T]() extends AbsVal[T]

* ``Const``: a compile-time constant primitive (int/float/bool/str/None).
* ``Static``: a pre-existing heap object (guest ``Obj``, array, host
  callable) the compiled code references through its statics table.
* ``Partial``: an object allocated during compilation (or whose fields the
  compiler fully tracks); its field map holds staged values. Partial
  objects are scalar-replaced unless they escape.
* ``Unknown``: residual/dynamic; optionally refined with a type hint and a
  non-nullness fact.

``lub`` computes least upper bounds at control-flow joins.
"""

from __future__ import annotations

PRIMITIVES = (int, float, bool, str, type(None))

# Type hints carried by Unknown (and implied by the others):
#   'num', 'bool', 'str', 'arr', 'obj:<ClassName>', 'obj', None (anything)


class AbsVal:
    """Base class of abstract values."""

    __slots__ = ()

    @property
    def is_static_value(self):
        """True when a concrete value is available at compile time."""
        return False

    def type_hint(self):
        return None

    def nonnull(self):
        return False


class Const(AbsVal):
    """A compile-time constant primitive."""

    __slots__ = ("value",)

    def __init__(self, value):
        assert isinstance(value, PRIMITIVES), value
        self.value = value

    @property
    def is_static_value(self):
        return True

    def type_hint(self):
        return type_hint_of(self.value)

    def nonnull(self):
        return self.value is not None

    def __eq__(self, other):
        return (isinstance(other, Const) and self.value == other.value
                and type(self.value) is type(other.value))

    def __hash__(self):
        return hash(("Const", self.value))

    def __repr__(self):
        return "Const(%r)" % (self.value,)


class Static(AbsVal):
    """A pre-existing heap object, identified by reference."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    @property
    def is_static_value(self):
        return True

    def type_hint(self):
        return type_hint_of(self.obj)

    def nonnull(self):
        return self.obj is not None

    def __eq__(self, other):
        return isinstance(other, Static) and self.obj is other.obj

    def __hash__(self):
        return hash(("Static", id(self.obj)))

    def __repr__(self):
        return "Static(%r)" % (self.obj,)


class Partial(AbsVal):
    """An object allocated under compilation: class + staged field map.

    ``materialized`` flips to True once the allocation has been emitted
    into residual code (the object escaped); afterwards field knowledge is
    no longer trusted for writes from residual code.
    """

    __slots__ = ("cls", "fields", "materialized")

    def __init__(self, cls, fields=None, materialized=False):
        self.cls = cls              # RtClass
        self.fields = fields if fields is not None else {}
        self.materialized = materialized

    def type_hint(self):
        return "obj:%s" % self.cls.name

    def nonnull(self):
        return True

    def __repr__(self):
        return "Partial(%s, %r)" % (self.cls.name, sorted(self.fields))


class PartialArray(AbsVal):
    """An array allocated under compilation with per-element staged values."""

    __slots__ = ("elems", "materialized")

    def __init__(self, elems, materialized=False):
        self.elems = list(elems)
        self.materialized = materialized

    def type_hint(self):
        return "arr"

    def nonnull(self):
        return True

    def __repr__(self):
        return "PartialArray(len=%d)" % len(self.elems)


#: Type hints whose non-null fact nothing reads (only object, array and
#: string accesses do). An Unknown with one of them never claims
#: non-null, so a join does not move on a fact no staging decision uses.
NULL_BLIND_HINTS = frozenset({None, "num", "bool"})


class Unknown(AbsVal):
    """A dynamic value, optionally refined by a type hint / non-nullness."""

    __slots__ = ("ty", "_nonnull")

    def __init__(self, ty=None, nonnull=False):
        self.ty = ty
        self._nonnull = nonnull and ty not in NULL_BLIND_HINTS

    def type_hint(self):
        return self.ty

    def nonnull(self):
        return self._nonnull

    def __eq__(self, other):
        return (isinstance(other, Unknown) and other.ty == self.ty
                and other._nonnull == self._nonnull)

    def __hash__(self):
        return hash(("Unknown", self.ty, self._nonnull))

    def __repr__(self):
        bits = []
        if self.ty:
            bits.append(self.ty)
        if self._nonnull:
            bits.append("nonnull")
        return "Unknown(%s)" % ", ".join(bits)


UNKNOWN = Unknown()


def type_hint_of(value):
    """The type hint of a concrete value."""
    from repro.runtime.objects import Obj
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    if isinstance(value, list):
        return "arr"
    if isinstance(value, Obj):
        return "obj:%s" % value.cls.name
    if value is None:
        return None
    return "obj"


def merge_type_hints(a, b):
    if a == b:
        return a
    if a is None or b is None:
        return None
    if a.startswith("obj") and b.startswith("obj"):
        return "obj"
    return None


def abs_of_value(value):
    """Lift a concrete value to the most precise abstract value."""
    if isinstance(value, PRIMITIVES):
        return Const(value)
    return Static(value)


def lub(a, b):
    """Least upper bound of two abstract values.

    Partial values never survive a lub — callers must materialize them
    before joining (the staged interpreter's merge logic guarantees this).
    """
    if a == b and not isinstance(a, (Partial, PartialArray)):
        return a
    ty = merge_type_hints(a.type_hint(), b.type_hint())
    return Unknown(ty=ty, nonnull=a.nonnull() and b.nonnull())
