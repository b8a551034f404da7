"""Class loading and resolution.

The linker owns the set of loaded classes and resolves names at
interpretation and compilation time (the ``Runtime`` interface of the
paper's Fig. 6, minus raw ``unsafe`` offsets — MiniJVM fields are named).
"""

from __future__ import annotations

from repro.bytecode.verifier import verify_class
from repro.errors import LinkError
from repro.runtime.objects import RtClass


class Linker:
    """Registry of loaded guest classes.

    ``version`` counts mutations of the state a program fingerprint
    covers (the loaded classes and their @stable field sets):
    :meth:`load_classes` and :meth:`mark_stable_field` bump it once the
    mutation is complete, and
    :func:`repro.codecache.fingerprint.program_fingerprint` reuses its
    digest while the version is unchanged.
    """

    def __init__(self, verify=True):
        self.classes = {}
        self.verify = verify
        self.version = 0
        # (version, digest) memo owned by program_fingerprint.
        self.fingerprint_memo = (-1, None)
        self._synth_count = 0

    def synth_class_name(self, prefix):
        """A fresh name for a host-synthesized class. Numbered per
        linker, so two VMs that synthesize the same classes in the same
        order load the same names (and fingerprint the same program)."""
        self._synth_count += 1
        return "%s%d" % (prefix, self._synth_count)

    def load_classes(self, classfiles):
        """Load a batch of classfiles (resolving supers within the batch
        and against already-loaded classes)."""
        pending = {cf.name: cf for cf in classfiles}
        for name in pending:
            if name in self.classes:
                raise LinkError("class %s already loaded" % name)
        progress = True
        while pending and progress:
            progress = False
            for name in list(pending):
                cf = pending[name]
                if cf.super_name is None:
                    superclass = None
                elif cf.super_name in self.classes:
                    superclass = self.classes[cf.super_name]
                elif cf.super_name in pending:
                    continue  # load the super first
                else:
                    raise LinkError("unknown superclass %s of %s"
                                    % (cf.super_name, name))
                if self.verify:
                    verify_class(cf)
                self.classes[name] = RtClass(name, cf, superclass)
                self.version += 1
                del pending[name]
                progress = True
        if pending:
            raise LinkError("superclass cycle involving: %s"
                            % ", ".join(sorted(pending)))
        return [self.classes[cf.name] for cf in classfiles]

    def resolve_class(self, name):
        cls = self.classes.get(name)
        if cls is None:
            raise LinkError("unknown class %s" % name)
        return cls

    def resolve_static(self, class_name, method_name):
        """Resolve a static method; walks the super chain."""
        cls = self.resolve_class(class_name)
        m = cls.lookup_method(method_name)
        if m is None or not m.is_static:
            raise LinkError("no static method %s.%s" % (class_name, method_name))
        return m

    def resolve_virtual(self, cls, method_name):
        m = cls.lookup_method(method_name)
        if m is None:
            raise LinkError("no method %s on %s" % (method_name, cls.name))
        return m

    def mark_stable_field(self, class_name, field_name):
        """Declare ``class.field`` @stable (paper 3.2): compiled code may
        speculate on its value; writes invalidate dependents."""
        cls = self.resolve_class(class_name)
        if cls.field_info(field_name) is None:
            raise LinkError("no field %s.%s" % (class_name, field_name))
        cls.stable_fields.add(field_name)
        # Propagate to already-loaded subclasses.
        for other in self.classes.values():
            if other.is_subclass_of(class_name):
                other.stable_fields.add(field_name)
        self.version += 1
