"""Command-line interface: run, disassemble, and inspect MiniJ programs.

    python -m repro run program.mj [fn [args...]]     # interpret
    python -m repro jit program.mj fn [args...]       # compile + run
    python -m repro dis program.mj                    # show bytecode
    python -m repro dump program.mj fn                # show generated code
    python -m repro analyze program.mj [fn ...]       # JIT lint report
    python -m repro validate program.mj [fn ...]      # soundness report

``analyze`` runs the collect-mode IR analysis pipeline (verifier, taint,
checkNoAlloc, plus informational findings from the optimization passes)
over the named functions — every top-level function when none are named —
and exits nonzero when any error-severity finding is reported.
``analyze --delite`` narrows the report to the parallel-safety verdicts
(:mod:`repro.analysis.parsafe`) and renders them as a per-op table —
verdict, deciding checker, and blame provenance for every Delite launch
— so ``--strict`` then gates exactly on "every op proven parallel".

``validate`` runs the same pipeline but reports only the speculation-
soundness checkers (IR verifier, per-pass translation validator,
deopt-state verifier): each tier-2 pass is validated against a
simulation relation and every guard/side-exit's deopt state is checked
against bytecode-level liveness. Both subcommands accept ``--strict``
(exit nonzero on *any* non-info finding, for CI gating) and ``--json``.

``run`` and ``jit`` accept ``--jit-stats`` (print a JSON stats summary to
stderr after execution) and ``--trace-jit out.jsonl`` (record JIT telemetry
events and export them as JSONL). ``jit`` also accepts ``--analyze``
(print the JIT lint report — collect-mode IR analysis — to stderr),
``--tier`` (fixed Tier 1/2 compile, or ``--tier 0`` to enter through the
tier ladder), ``--hot-threshold`` and ``--repeat`` (drive promotions);
the ``--jit-stats`` summary includes the per-tier breakdown (with
per-tier compile-latency aggregates under ``tiers.latency``). Tier-1
compiles take the template baseline derived from the interpreter's
handler table; ``--no-baseline`` (or ``REPRO_BASELINE=0``) forces the
staged Tier-1 pipeline instead, for A/B comparisons. The
persistent code cache and async compile service are reachable via
``--cache-dir DIR``, ``--no-persist``, and ``--compile-workers N``.
``jit`` can also join a compile-server fleet: ``--compile-server DIR``
attaches the VM as a tenant of the process-wide server over DIR's
sharded store (same as ``REPRO_COMPILE_SERVER=DIR``).
Both ``run`` and ``jit`` accept ``--trace-tier`` to enable Tier T (hot
loop back-edges record linear traces; the ``--jit-stats`` summary then
includes a ``traces`` breakdown: recordings, aborts, side exits,
stitched bridges, blacklists).

Arguments are parsed as Python literals (42, 3.5, "text", True).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

from repro import Lancet
from repro.bytecode.disassembler import disassemble_class
from repro.frontend.compiler import compile_source


def _parse_arg(text):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _options_from(args):
    """Build CompileOptions from the cache/worker flags, when present."""
    from repro.compiler.options import CompileOptions
    options = CompileOptions()
    if getattr(args, "cache_dir", None):
        options.cache_dir = args.cache_dir
    if getattr(args, "no_persist", False):
        options.persist = False
    if getattr(args, "compile_workers", None):
        options.compile_workers = args.compile_workers
    if getattr(args, "trace_tier", False):
        options.trace_tier = True
    if getattr(args, "no_baseline", False):
        options.baseline = False
    return options


def _load(path, module, options=None):
    with open(path) as f:
        source = f.read()
    jit = Lancet(options=options)
    jit.load(source, module=module)
    return jit


def _telemetry_begin(jit, args):
    if getattr(args, "trace_jit", None):
        jit.telemetry.enable_trace()


def _telemetry_end(jit, args):
    status = 0
    trace_path = getattr(args, "trace_jit", None)
    if trace_path:
        try:
            n = jit.telemetry.export_jsonl(trace_path)
        except OSError as e:
            print("error: cannot write trace to %s: %s" % (trace_path, e),
                  file=sys.stderr)
            status = 1
        else:
            print("wrote %d events to %s" % (n, trace_path), file=sys.stderr)
    if getattr(args, "jit_stats", False):
        print(json.dumps(jit.stats(), indent=2, sort_keys=True,
                         default=str), file=sys.stderr)
    return status


def cmd_run(args):
    jit = _load(args.program, args.module, options=_options_from(args))
    jit.vm._output_mode = "stdout"
    _telemetry_begin(jit, args)
    result = jit.vm.call(args.module, args.fn,
                         [_parse_arg(a) for a in args.args])
    if result is not None:
        print(result)
    return _telemetry_end(jit, args)


def cmd_jit(args):
    jit = _load(args.program, args.module, options=_options_from(args))
    if getattr(args, "compile_server", None):
        from repro.server import shared_server
        jit.attach_compile_server(shared_server(args.compile_server))
    jit.vm._output_mode = "stdout"
    if args.hot_threshold is not None:
        # In-place so the per-VM TierPolicy (which reads jit.options)
        # sees the new thresholds too.
        jit.options.tier1_threshold = args.hot_threshold
        jit.options.tier2_threshold = max(args.hot_threshold + 1,
                                          args.hot_threshold * 4)
    _telemetry_begin(jit, args)
    if args.analyze:
        print(jit.analyze(args.module, args.fn).render(), file=sys.stderr)
    if args.tier == 0:
        # Tier 0 entry: start interpreted with counters and let the tier
        # ladder promote (use --repeat to cross the thresholds).
        compiled = jit.compile_tiered(args.module, args.fn)
    elif args.tier in (1, 2):
        from repro.pipeline import tier_options
        compiled = jit.compile_function(
            args.module, args.fn,
            options=tier_options(jit.options, args.tier))
    else:
        compiled = jit.compile_function(args.module, args.fn)
    call_args = [_parse_arg(a) for a in args.args]
    result = None
    for _ in range(max(1, args.repeat)):
        result = compiled(*call_args)
    if result is not None:
        print(result)
    if args.show_code:
        source = getattr(compiled, "source", None)
        if source is None:   # a TieredFunction still in Tier 0
            source = getattr(getattr(compiled, "compiled", None),
                             "source", "# still interpreted (tier 0)")
        print("\n--- generated code ---", file=sys.stderr)
        print(source, file=sys.stderr)
    status = _telemetry_end(jit, args)
    # Drain the compile-worker pool and flush pending persistent stores.
    jit.close()
    return status


def _analysis_names(args):
    """The functions to analyze: those named, else all top-level ones."""
    if args.fns:
        return args.fns
    with open(args.program) as f:
        classes = compile_source(f.read(), module=args.module)
    by_name = {c.name: c for c in classes}
    module_cls = by_name.get(args.module)
    if module_cls is None:
        return None
    return sorted(module_cls.methods)


# Diagnostic kinds reported by the speculation-soundness checkers; the
# `validate` subcommand filters its report to these.
_SOUNDNESS_KINDS = ("verify", "validate", "deoptcheck", "compile")


def _render_delite_table(unit, findings):
    """Per-op parallel-safety verdict table for one analyzed unit."""
    rows = [d.data for d in findings if d.data]
    proven = sum(1 for r in rows if r.get("status") == "ProvenParallel")
    lines = ["Delite parallel-safety for %s: %d op(s), %d proven parallel"
             % (unit or "<unit>", len(rows), proven)]
    if not rows:
        return lines[0]
    cols = ("sym", "op_name", "op_kind", "status", "checker")
    heads = ("sym", "op", "kind", "verdict", "checker")
    widths = [max(len(h), max(len(str(r.get(c, ""))) for r in rows))
              for c, h in zip(cols, heads)]
    fmt = "  " + "  ".join("%%-%ds" % w for w in widths) + "  %s"
    lines.append(fmt % (heads + ("blame",)))
    for r in rows:
        lines.append(fmt % tuple([str(r.get(c, "")) for c in cols]
                                 + [r.get("blame", "")]))
    return "\n".join(lines)


def _run_analysis(args, kinds=None):
    jit = _load(args.program, args.module)
    delite = getattr(args, "delite", False)
    if delite:
        # Delite ops come from the OptiML accelerator macros; load the
        # library and install them so the bundled apps analyze as they
        # compile.
        from repro.optiml import load_optiml
        load_optiml(jit)
    names = _analysis_names(args)
    if names is None:
        print("error: no class %s in %s" % (args.module, args.program),
              file=sys.stderr)
        return 2
    strict = getattr(args, "strict", False)
    status = 0
    for fn in names:
        diag = jit.analyze(args.module, fn)
        if kinds is not None:
            diag.findings = [d for d in diag.findings if d.kind in kinds]
        if args.json:
            print(json.dumps(diag.to_dict(), indent=2, sort_keys=True))
        elif delite:
            print(_render_delite_table(diag.unit or fn, diag.findings))
        else:
            print(diag.render())
        if diag.errors():
            status = 1
        elif strict and any(d.severity != "info" for d in diag.findings):
            status = 1
    return status


def cmd_analyze(args):
    if getattr(args, "delite", False):
        # Narrow to the parsafe verdicts: --strict then means "exit
        # nonzero unless every Delite op is ProvenParallel".
        return _run_analysis(args, kinds=("parsafe",))
    return _run_analysis(args)


def cmd_validate(args):
    return _run_analysis(args, kinds=_SOUNDNESS_KINDS)


def cmd_dis(args):
    with open(args.program) as f:
        source = f.read()
    for cls in compile_source(source, module=args.module):
        print(disassemble_class(cls))
        print()
    return 0


def cmd_dump(args):
    jit = _load(args.program, args.module)
    compiled = jit.compile_function(args.module, args.fn)
    print(compiled.source)
    if compiled.warnings:
        print("\n# warnings:", file=sys.stderr)
        for w in compiled.warnings:
            print("#   %s" % w, file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro", description="Lancet-on-MiniJVM toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="interpret a guest program")
    p.add_argument("program")
    p.add_argument("fn", nargs="?", default="main")
    p.add_argument("args", nargs="*")
    p.add_argument("--module", default="Main")
    p.add_argument("--jit-stats", action="store_true",
                   help="print a JSON stats summary to stderr")
    p.add_argument("--trace-jit", metavar="PATH",
                   help="record JIT events; export as JSONL to PATH")
    p.add_argument("--trace-tier", action="store_true",
                   help="enable Tier T: hot loop back-edges record "
                        "linear traces that compile through the full "
                        "pass pipeline (stats land in --jit-stats)")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("jit", help="compile a function, then run it")
    p.add_argument("program")
    p.add_argument("fn")
    p.add_argument("args", nargs="*")
    p.add_argument("--module", default="Main")
    p.add_argument("--tier", type=int, choices=(0, 1, 2), default=None,
                   help="compile at a fixed tier (1 = quick, 2 = full), "
                        "or 0 to start interpreted and promote through "
                        "the tier ladder")
    p.add_argument("--hot-threshold", type=int, default=None,
                   metavar="N",
                   help="invocations before Tier-1 promotion (Tier-2 "
                        "threshold scales to 4x)")
    p.add_argument("--repeat", type=int, default=1, metavar="K",
                   help="call the function K times (lets tiered runs "
                        "cross promotion thresholds)")
    p.add_argument("--show-code", action="store_true")
    p.add_argument("--analyze", action="store_true",
                   help="print the JIT lint report (collect-mode IR "
                        "analysis) to stderr before running")
    p.add_argument("--jit-stats", action="store_true",
                   help="print a JSON stats summary to stderr")
    p.add_argument("--trace-jit", metavar="PATH",
                   help="record JIT events; export as JSONL to PATH")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent code cache directory: generated code "
                        "is stored on exit and reloaded on warm starts")
    p.add_argument("--no-persist", action="store_true",
                   help="disable the persistent code cache even when "
                        "--cache-dir is given")
    p.add_argument("--compile-workers", type=int, default=0, metavar="N",
                   help="background compile workers (0 = compile "
                        "synchronously); tier promotions become async")
    p.add_argument("--trace-tier", action="store_true",
                   help="enable Tier T: hot loop back-edges record "
                        "linear traces that compile through the full "
                        "pass pipeline (stats land in --jit-stats)")
    p.add_argument("--no-baseline", action="store_true",
                   help="route Tier-1 compiles through the staged "
                        "pipeline instead of the template baseline "
                        "(A/B comparisons; also REPRO_BASELINE=0)")
    p.add_argument("--compile-server", metavar="DIR", default=None,
                   help="attach to the process-wide compile server over "
                        "DIR's sharded store (also REPRO_COMPILE_SERVER)")
    p.set_defaults(handler=cmd_jit)

    p = sub.add_parser("analyze",
                       help="JIT lint: collect-mode IR analysis report")
    p.add_argument("program")
    p.add_argument("fns", nargs="*", metavar="fn",
                   help="functions to analyze (default: all top-level)")
    p.add_argument("--module", default="Main")
    p.add_argument("--json", action="store_true",
                   help="emit each report as JSON instead of text")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on any non-info finding")
    p.add_argument("--delite", action="store_true",
                   help="report only the Delite parallel-safety verdicts, "
                        "as a per-op table with checker/blame provenance")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("validate",
                       help="speculation-soundness report: per-pass "
                            "translation validation + deopt-state checks")
    p.add_argument("program")
    p.add_argument("fns", nargs="*", metavar="fn",
                   help="functions to validate (default: all top-level)")
    p.add_argument("--module", default="Main")
    p.add_argument("--json", action="store_true",
                   help="emit each report as JSON instead of text")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on any non-info finding")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("dis", help="disassemble compiled bytecode")
    p.add_argument("program")
    p.add_argument("--module", default="Main")
    p.set_defaults(handler=cmd_dis)

    p = sub.add_parser("dump", help="print the JIT's generated code")
    p.add_argument("program")
    p.add_argument("fn")
    p.add_argument("--module", default="Main")
    p.set_defaults(handler=cmd_dump)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
