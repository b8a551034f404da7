"""Exception hierarchy for the repro package.

The paper's central contract is that explicit JIT compilation may *fail
loudly* instead of silently producing slow code: "compilation might fail
with an exception if the argument of freeze cannot be evaluated during
compilation. We argue that this is OK, and even desirable."  Every demanded-
but-impossible optimization surfaces as a subclass of
:class:`CompilationError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Guest-language toolchain errors
# ---------------------------------------------------------------------------

class MiniJSyntaxError(ReproError):
    """Raised by the MiniJ lexer/parser on malformed source."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "line %d:%d: %s" % (line, col if col is not None else 0, message)
        super().__init__(message)


class MiniJCompileError(ReproError):
    """Raised by the MiniJ-to-bytecode compiler (e.g. assignment to a
    captured variable, unknown name)."""


class AssemblerError(ReproError):
    """Raised by the textual bytecode assembler."""


class VerifyError(ReproError):
    """Raised by the bytecode verifier (bad stack depth, jump target, ...)."""


class LinkError(ReproError):
    """Raised when class/method/field resolution fails."""


# ---------------------------------------------------------------------------
# Guest runtime errors
# ---------------------------------------------------------------------------

class GuestError(ReproError):
    """A runtime error inside guest (MiniJVM) code: null dereference,
    out-of-bounds array access, bad operand types, division by zero."""


class GuestNullError(GuestError):
    pass


class GuestIndexError(GuestError):
    pass


class GuestTypeError(GuestError):
    pass


class GuestArithmeticError(GuestError):
    pass


class GuestThrow(ReproError):
    """A guest-level THROW propagating through the host."""

    def __init__(self, value):
        self.value = value
        super().__init__("guest exception: %r" % (value,))


# ---------------------------------------------------------------------------
# JIT compilation errors (the paper's explicit-compilation contract)
# ---------------------------------------------------------------------------

class CompilationError(ReproError):
    """A demanded optimization could not be performed.

    Unlike a black-box JIT, Lancet reports failures to the program so it can
    react (paper section 1: "instead of running suboptimal code, we want to
    obtain a guarantee that certain optimizations are performed").
    """


class FreezeError(CompilationError):
    """``freeze(x)`` could not evaluate ``x`` at JIT-compile time."""


class MaterializeError(CompilationError):
    """``evalM`` failed to materialize a staged value back to a concrete
    one (the value is genuinely dynamic)."""


class UnrollError(CompilationError):
    """A loop demanded to be unrolled has a non-static trip count."""


class NoAllocError(CompilationError):
    """``checkNoAlloc`` found a residual heap allocation, deoptimization
    point, or call to code not compiled under the directive (paper 3.3)."""

    def __init__(self, message, sites=()):
        super().__init__(message)
        self.sites = list(sites)


class TaintError(CompilationError):
    """The JIT taint analysis found tainted data flowing to a sink
    (paper 3.3, secure information flow)."""

    def __init__(self, message, leaks=()):
        super().__init__(message)
        self.leaks = list(leaks)


class MacroError(CompilationError):
    """A JIT macro raised or was misused."""


class IRVerifyError(CompilationError):
    """The IR well-formedness verifier found a malformed CFG (a compiler
    bug surfaced early, rather than as broken generated code)."""

    def __init__(self, message, errors=(), stage="staged"):
        super().__init__(message)
        self.errors = list(errors)
        self.stage = stage


class TranslationValidationError(CompilationError):
    """The per-pass translation validator found an optimization pass that
    does not simulate its input (a dropped/reordered effect, a
    strengthened guard, a diverging straight-line segment). The compile
    is rejected and retried with the offending pass disabled."""

    def __init__(self, message, pass_name="", findings=()):
        super().__init__(message)
        self.pass_name = pass_name
        self.findings = list(findings)


class DeoptStateError(CompilationError):
    """The deopt-state verifier found a side-exit whose recorded
    interpreter state is unsound: a live value undefined on some path, a
    live interpreter slot without a template, or a slot mapped to a
    pruned loop-header parameter (the PR 6 bug class)."""

    def __init__(self, message, pass_name="", findings=()):
        super().__init__(message)
        self.pass_name = pass_name
        self.findings = list(findings)


class ParallelSafetyError(CompilationError):
    """The parallel-safety re-checker found a fusion rewrite (or a
    demanded parallel execution) whose kernels are not proven safe —
    an internal inconsistency between the fusion preflight and the
    effect summaries, surfaced like a failed translation validation."""

    def __init__(self, message, findings=()):
        super().__init__(message)
        self.findings = list(findings)


class RaceDetected(ReproError):
    """The dynamic write sanitizer (``REPRO_PARSAFE=check``) observed two
    chunks of a parallel Delite execution writing overlapping locations —
    the runtime cross-check of a wrong ``ProvenParallel`` verdict."""

    def __init__(self, message, op_name="", overlaps=()):
        super().__init__(message)
        self.op_name = op_name
        self.overlaps = list(overlaps)


class CompilationWarningList(ReproError):
    """Container surfaced when compiling with ``warnings_as_errors``."""

    def __init__(self, warnings):
        self.warnings = list(warnings)
        super().__init__("; ".join(str(w) for w in warnings))
