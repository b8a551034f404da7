"""Guest heap objects.

Guest values map onto host values: MiniJVM ints/floats/bools/strings are
Python ints/floats/bools/strs, ``null`` is ``None``, arrays are Python
lists, and class instances are :class:`Obj`. This is the "store component
modeled directly by the JVM heap" of the paper's interpreter (section 2.1)
— our JVM heap is the CPython heap.
"""

from __future__ import annotations

from repro.errors import GuestError


class RtClass:
    """A linked (runtime) class: merged field set, resolved method cache."""

    __slots__ = ("name", "classfile", "superclass", "all_fields",
                 "method_cache", "stable_fields")

    def __init__(self, name, classfile, superclass):
        self.name = name
        self.classfile = classfile
        self.superclass = superclass
        # Field name -> FieldInfo, including inherited fields.
        self.all_fields = dict(superclass.all_fields) if superclass else {}
        self.all_fields.update(classfile.fields)
        # Virtual-dispatch cache: method name -> MethodInfo (walks supers).
        self.method_cache = {}
        # Fields annotated @stable (speculation, paper 3.2); set of names.
        self.stable_fields = set(superclass.stable_fields) if superclass else set()

    def lookup_method(self, name):
        """Resolve ``name`` against this class, walking the super chain."""
        m = self.method_cache.get(name)
        if m is None and name not in self.method_cache:
            cls = self
            while cls is not None:
                m = cls.classfile.methods.get(name)
                if m is not None:
                    break
                cls = cls.superclass
            self.method_cache[name] = m
        return m

    def field_info(self, name):
        return self.all_fields.get(name)

    def is_subclass_of(self, other_name):
        cls = self
        while cls is not None:
            if cls.name == other_name:
                return True
            cls = cls.superclass
        return False

    def __repr__(self):
        return "RtClass(%s)" % self.name


class Obj:
    """A guest object: a runtime class plus a field dictionary."""

    __slots__ = ("cls", "fields", "_stable_deps")

    def __init__(self, cls, fields=None):
        self.cls = cls
        self.fields = fields if fields is not None else {}
        self._stable_deps = None  # lazily-created stable-field dependency map

    def get(self, name):
        try:
            return self.fields[name]
        except KeyError:
            if self.cls.field_info(name) is not None:
                return None
            raise GuestError("no field %r on %s" % (name, self.cls.name))

    def put(self, name, value):
        if self.cls.field_info(name) is None:
            raise GuestError("no field %r on %s" % (name, self.cls.name))
        if self._stable_deps and name in self._stable_deps:
            # Invalidate compiled code that speculated on this @stable field.
            for compiled in self._stable_deps.pop(name):
                compiled.invalidate("stable field %s.%s changed"
                                    % (self.cls.name, name))
        self.fields[name] = value

    def add_stable_dep(self, field_name, compiled, replaces=None):
        """Register compiled code that must be invalidated when
        ``field_name`` (declared @stable) is written, in place of
        ``replaces`` when given."""
        if self._stable_deps is None:
            self._stable_deps = {}
        deps = self._stable_deps.setdefault(field_name, set())
        deps.discard(replaces)
        deps.add(compiled)

    def __repr__(self):
        return "<%s obj %s>" % (self.cls.name, self.fields)


def new_instance(cls):
    """Allocate an instance with all fields null-initialized."""
    return Obj(cls, {name: None for name in cls.all_fields})
