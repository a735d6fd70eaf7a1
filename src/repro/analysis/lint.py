"""``streamlint`` — audit stream programs with the static-analysis passes.

Usage::

    python -m repro.analysis.lint src/repro/apps --strict
    python -m repro.analysis.lint repro.apps.fft my_module --json OUT.json
    python -m repro.analysis.lint src/repro/apps --graph --json OUT.json

Targets may be dotted module names, single ``.py`` files, or directories
(walked recursively for importable modules).  For every target module the
linter calls each public zero-required-argument ``build*`` factory, flattens
the resulting stream, and reports the analysis diagnostics per filter
instance.

Exit status: ``1`` when any unsuppressed **error** is found, or — with
``--strict`` — any unsuppressed **warning**; ``2`` for usage problems
(nothing importable, no streams found); ``0`` otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import pkgutil
import sys
import traceback
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import DiagnosticBag, Severity, analyze_stream
from repro.graph.base import Stream

_SEVERITIES = {
    "info": Severity.INFO,
    "warning": Severity.WARNING,
    "error": Severity.ERROR,
}


def _module_name_for_path(path: str) -> Optional[Tuple[str, str]]:
    """(sys.path root, dotted module name) for a ``.py`` file or package dir."""
    path = os.path.abspath(path)
    if os.path.isfile(path) and path.endswith(".py"):
        base = os.path.splitext(os.path.basename(path))[0]
        parent = os.path.dirname(path)
        parts = [] if base == "__init__" else [base]
    elif os.path.isdir(path):
        parent = path
        parts = []
    else:
        return None
    # Climb while the directory is a package, building the dotted prefix.
    while os.path.isfile(os.path.join(parent, "__init__.py")):
        parts.insert(0, os.path.basename(parent))
        parent = os.path.dirname(parent)
    if not parts:
        return None
    return parent, ".".join(parts)


def _import_target(target: str) -> List[object]:
    """Import a target spec into a list of module objects."""
    root_and_name = _module_name_for_path(target)
    if root_and_name is not None:
        root, name = root_and_name
        if root not in sys.path:
            sys.path.insert(0, root)
    else:
        name = target
    module = importlib.import_module(name)
    modules = [module]
    # A package: also lint its importable submodules.
    if hasattr(module, "__path__"):
        for info in pkgutil.iter_modules(module.__path__):
            if info.name.startswith("_"):
                continue
            modules.append(importlib.import_module(f"{name}.{info.name}"))
    return modules


def _builders(module: object) -> List[Tuple[str, object]]:
    """Public zero-required-argument ``build*`` callables of a module."""
    found = []
    for attr in sorted(vars(module)):
        if not attr.startswith("build"):
            continue
        fn = getattr(module, attr)
        if not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
            continue
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            continue
        required = [
            p
            for p in sig.parameters.values()
            if p.default is inspect.Parameter.empty
            and p.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]
        if required:
            continue
        found.append((attr, fn))
    return found


def _lint_module(
    module: object, verbose: bool, graph: bool = False
) -> Tuple[Dict[str, DiagnosticBag], Dict[str, dict], List[str]]:
    """app-label -> diagnostics for every buildable stream in ``module``."""
    apps: Dict[str, DiagnosticBag] = {}
    graphs: Dict[str, dict] = {}
    failures: List[str] = []
    for attr, fn in _builders(module):
        label = f"{module.__name__}.{attr}"
        try:
            stream = fn()
        except Exception as exc:
            failures.append(f"{label}: builder raised {type(exc).__name__}: {exc}")
            if verbose:
                traceback.print_exc()
            continue
        if not isinstance(stream, Stream):
            continue
        try:
            apps[label] = analyze_stream(stream)
        except Exception as exc:
            failures.append(f"{label}: analysis raised {type(exc).__name__}: {exc}")
            if verbose:
                traceback.print_exc()
            continue
        if graph:
            try:
                from repro.analysis.graph import graph_report

                report = graph_report(stream)
                apps[label].extend(report.bag)
                graphs[label] = report.payload()
            except Exception as exc:
                failures.append(
                    f"{label}: graph analysis raised {type(exc).__name__}: {exc}"
                )
                if verbose:
                    traceback.print_exc()
    return apps, graphs, failures


def run_lint(
    targets: Iterable[str],
    strict: bool = False,
    min_severity: Severity = Severity.WARNING,
    json_path: Optional[str] = None,
    verbose: bool = False,
    graph: bool = False,
    out=None,
) -> int:
    out = out or sys.stdout
    apps: Dict[str, DiagnosticBag] = {}
    graphs: Dict[str, dict] = {}
    failures: List[str] = []
    for target in targets:
        try:
            modules = _import_target(target)
        except ImportError as exc:
            print(f"streamlint: cannot import {target!r}: {exc}", file=sys.stderr)
            return 2
        for module in modules:
            module_apps, module_graphs, module_failures = _lint_module(
                module, verbose, graph
            )
            apps.update(module_apps)
            graphs.update(module_graphs)
            failures.extend(module_failures)

    if not apps and not failures:
        print("streamlint: no buildable streams found in targets", file=sys.stderr)
        return 2

    shown_floor = Severity.INFO if verbose else min_severity
    total = DiagnosticBag()
    errors = warnings = suppressed = 0
    for label in sorted(apps):
        bag = apps[label]
        total.extend(bag)
        shown = [
            d
            for d in bag.sorted()
            if (not d.suppressed and d.severity >= shown_floor)
            or (verbose and d.suppressed)
        ]
        for d in shown:
            print(f"{label}: {d.format()}", file=out)
        if graph and label in graphs:
            g = graphs[label]
            rings = g.get("rings", [])
            proved = sum(1 for r in rings if r.get("proved"))
            print(
                f"{label}: graph: {proved}/{len(rings)} ring(s) proved, "
                f"{len(g.get('shared_state', []))} shared-state group(s)",
                file=out,
            )
        errors += len(bag.errors())
        warnings += len(bag.warnings())
        suppressed += sum(1 for d in bag if d.suppressed)
    for failure in failures:
        print(f"streamlint: ERROR {failure}", file=out)

    summary = total.summary()
    checked = len(apps)
    line = (
        f"streamlint: {checked} stream(s), {len(total)} finding(s): "
        f"{errors} error(s), {warnings} warning(s), {suppressed} suppressed"
    )
    if summary:
        line += " | " + " ".join(f"{code}×{n}" for code, n in summary.items())
    print(line, file=out)

    if json_path:
        payload = {
            "targets": list(targets),
            "streams": {
                label: [
                    {
                        "code": d.code,
                        "title": d.title,
                        "severity": str(d.severity),
                        "subject": d.subject,
                        "subject_type": d.subject_type,
                        "message": d.message,
                        "suppressed": d.suppressed,
                    }
                    for d in bag.sorted()
                ]
                for label, bag in sorted(apps.items())
            },
            "summary": summary,
            "errors": errors,
            "warnings": warnings,
            "suppressed": suppressed,
            "builder_failures": failures,
        }
        if graph:
            payload["graph"] = graphs
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if errors or failures:
        return 1
    if strict and warnings:
        return 1
    return 0


def print_codes(out=None) -> int:
    """``--codes``: the stable diagnostic registry, one line per code."""
    from repro.analysis.diagnostics import CODES, CODE_DESCRIPTIONS

    out = out or sys.stdout
    for code in sorted(CODES):
        severity, title = CODES[code]
        description = CODE_DESCRIPTIONS.get(code, "")
        print(f"{code}  {str(severity):7s} {title:24s} {description}", file=out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Statically analyze stream programs (streamlint).",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="dotted module names, .py files, or package directories",
    )
    parser.add_argument(
        "--codes",
        action="store_true",
        help="list every stable SLxxx diagnostic code and exit",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on unsuppressed warnings, not just errors",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help=(
            "also run the whole-graph pass (races, ring-capacity proofs) "
            "per stream; adds a 'graph' section to --json output"
        ),
    )
    parser.add_argument(
        "--min-severity",
        choices=sorted(_SEVERITIES),
        default="warning",
        help="lowest severity to print (default: warning)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the full diagnostic report as JSON",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print INFO and suppressed findings",
    )
    ns = parser.parse_args(argv)
    if ns.codes:
        return print_codes()
    if not ns.targets:
        parser.error("targets are required unless --codes is given")
    return run_lint(
        ns.targets,
        strict=ns.strict,
        min_severity=_SEVERITIES[ns.min_severity],
        json_path=ns.json,
        verbose=ns.verbose,
        graph=ns.graph,
    )


if __name__ == "__main__":
    raise SystemExit(main())
