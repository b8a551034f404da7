"""Option resolution: every ``REPRO_*`` variable only sets a default, and
an explicit argument always beats it (see :mod:`repro.compiler.options`).
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Lancet
from repro.delite.runtime import DeliteRuntime
from repro.server import ShardedCodeCache, close_shared_servers


def _traces_armed(jit):
    return jit.tiers.traces is not None


def _server(jit):
    """(has a compile server, uses the shared server's sharded store)."""
    return (jit.compile_server is not None,
            isinstance(jit.codecache, ShardedCodeCache))


# name -> (variable, value, explicit options, observe(jit),
#          observed under the variable, observed with the explicit options)
# "{tmp}" in a value stands for the test's tmp_path.
PRECEDENCE = {
    "validate": (
        "REPRO_VALIDATE", "1",
        {"validate_passes": False, "verify_deopt": False},
        lambda j: (j.options.validate_passes, j.options.verify_deopt),
        (True, True), (False, False)),
    "parsafe": (
        "REPRO_PARSAFE", "check", {"parsafe": "off"},
        lambda j: (j.options.parsafe, j.delite.parsafe),
        ("check", "check"), ("off", "off")),
    "baseline": (
        "REPRO_BASELINE", "0", {"baseline": True},
        lambda j: j.options.baseline, False, True),
    "trace_tier": (
        "REPRO_TRACE_TIER", "1", {"trace_tier": False},
        _traces_armed, True, False),
    "compile_server": (
        "REPRO_COMPILE_SERVER", "{tmp}/shared", {"compile_workers": 1},
        _server, (True, True), (True, False)),
    # The variable is gone: an explicit cache_dir persists regardless.
    "no_persist": (
        "REPRO_NO_PERSIST", "1", {"cache_dir": "{tmp}/cc"},
        lambda j: j.codecache is not None, False, True),
}


@pytest.mark.parametrize("name", sorted(PRECEDENCE))
def test_variable_sets_default_and_explicit_argument_wins(name, tmp_path,
                                                          monkeypatch):
    var, value, explicit, observe, under_var, with_explicit = \
        PRECEDENCE[name]

    def fill(v):
        return v.format(tmp=tmp_path) if isinstance(v, str) else v

    explicit = {k: fill(v) for k, v in explicit.items()}
    jits = []

    def build(**kw):
        jits.append(Lancet(options=CompileOptions(**kw)))
        return jits[-1]

    try:
        monkeypatch.delenv(var, raising=False)
        unset = observe(build())
        monkeypatch.setenv(var, fill(value))
        assert observe(build()) == under_var
        assert observe(build(**explicit)) == with_explicit
        if name != "no_persist":
            assert unset != under_var      # the variable does something
    finally:
        for j in jits:
            j.close()
        close_shared_servers()


@pytest.mark.parametrize("value, expected", [
    ("", False), ("0", False), ("false", False), ("No", False),
    ("off", False), ("1", True), ("yes", True), (" TRUE ", True),
])
def test_flag_spellings(value, expected, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_TIER", value)
    assert CompileOptions().trace_tier is expected


class TestParsafeModes:
    @pytest.mark.parametrize("make", [
        lambda: CompileOptions(parsafe="bogus"),
        lambda: DeliteRuntime(parsafe="bogus"),
    ], ids=["CompileOptions", "DeliteRuntime"])
    def test_unknown_argument_raises(self, make):
        with pytest.raises(ValueError, match=r"off\|check\|enforce"):
            make()

    @pytest.mark.parametrize("make", [CompileOptions, DeliteRuntime])
    def test_unknown_variable_raises(self, make, monkeypatch):
        monkeypatch.setenv("REPRO_PARSAFE", "enforced")
        with pytest.raises(ValueError, match=r"off\|check\|enforce"):
            make()

    def test_variable_is_case_insensitive(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARSAFE", " Enforce ")
        assert CompileOptions().parsafe == "enforce"
        assert DeliteRuntime().parsafe == "enforce"
