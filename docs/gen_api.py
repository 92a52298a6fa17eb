#!/usr/bin/env python
"""Generate the Markdown API reference in ``docs/api/`` from docstrings.

The reference is *committed* (so it is browsable on any git host without a
docs build) and *generated* (so it cannot drift from the code): CI runs
``gen_api.py --check``, which regenerates every page in memory and fails when
the committed pages differ.  The pages are built from ``inspect`` only — no
third-party dependency — while CI additionally runs `pdoc <https://pdoc.dev>`_
over the whole package to prove the docstrings build into a full HTML
reference cleanly.

Usage::

    PYTHONPATH=src python docs/gen_api.py          # (re)write docs/api/
    PYTHONPATH=src python docs/gen_api.py --check  # verify committed pages
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import typing
from pathlib import Path

#: page name -> (title, blurb, modules documented on the page).
PAGES: list[tuple[str, str, str, list[str]]] = [
    (
        "nand",
        "NAND substrate",
        "Geometry, physical addressing, flash-page state tracking, timing "
        "parameters and the config field rule — the layer everything else is "
        "built on.",
        [
            "repro.nand.geometry",
            "repro.nand.address",
            "repro.nand.flash",
            "repro.nand.timing",
            "repro.nand.fields",
            "repro.nand.errors",
        ],
    ),
    (
        "core",
        "FTL designs",
        "The five page-level FTL designs and their shared building blocks "
        "(mapping directory, allocators, mapping caches, learned models).",
        [
            "repro.core.base",
            "repro.core.dftl",
            "repro.core.tpftl",
            "repro.core.leaftl",
            "repro.core.learnedftl",
            "repro.core.idealftl",
            "repro.core.mapping",
            "repro.core.allocation",
            "repro.core.cmt",
        ],
    ),
    (
        "ssd",
        "Device model",
        "The SSD facade, the chip-parallel timing engine, the flat "
        "command-buffer request model, statistics and the energy model.",
        [
            "repro.ssd.device",
            "repro.ssd.engine",
            "repro.ssd.request",
            "repro.ssd.stats",
            "repro.ssd.energy",
        ],
    ),
    (
        "workloads",
        "Workload generators",
        "fio-style jobs, Zipf/hot-spot distributions, Filebench and RocksDB "
        "models, trace parsing/synthesis and declarative workload specs.",
        [
            "repro.workloads.fio",
            "repro.workloads.spec",
            "repro.workloads.zipf",
            "repro.workloads.synthetic",
            "repro.workloads.traces",
            "repro.workloads.filebench",
            "repro.workloads.rocksdb",
        ],
    ),
    (
        "snapshot",
        "Device snapshots",
        "Checkpoint/restore of complete warm device images: serialization "
        "format, content-addressed store and the warm-device entry point.",
        [
            "repro.snapshot.serialization",
            "repro.snapshot.store",
            "repro.snapshot.warm",
            "repro.snapshot.fingerprint",
        ],
    ),
    (
        "replay",
        "Streaming trace replay",
        "Bounded-memory replay of full trace files with checkpointed, "
        "bit-identical resume: record-boundary request chunking and the "
        "checkpoint/manifest session driver (see docs/replay.md).",
        [
            "repro.replay.stream",
            "repro.replay.engine",
        ],
    ),
    (
        "execution",
        "Execution backends",
        "The pluggable executor layer: the backend interface and wire format, "
        "the serial/thread/process backends, the multi-host file-queue, and "
        "the atomic filesystem primitives they share.",
        [
            "repro.execution",
            "repro.execution.base",
            "repro.execution.local",
            "repro.execution.filequeue",
            "repro.execution.atomic",
        ],
    ),
    (
        "experiments",
        "Experiment harness",
        "The per-figure harness registry, scales and preparation helpers, and "
        "the parallel orchestrator with its result cache.",
        [
            "repro.experiments",
            "repro.experiments.runner",
            "repro.experiments.orchestrator",
        ],
    ),
    (
        "studies",
        "Declarative studies",
        "Scenario-sweep specs, their expansion into cells and the planner "
        "that executes and merges them through the orchestrator.",
        [
            "repro.studies.spec",
            "repro.studies.cell",
            "repro.studies.planner",
        ],
    ),
    (
        "analysis",
        "Analysis helpers",
        "Latency digests and normalization, table/CSV rendering, the "
        "controller-compute cost model and windowed-telemetry rendering.",
        [
            "repro.analysis.latency",
            "repro.analysis.report",
            "repro.analysis.compute",
            "repro.analysis.windows",
        ],
    ),
    (
        "obs",
        "Observability",
        "Interval-windowed telemetry over the simulated clock and structured "
        "event tracing with Chrome trace-event export (see "
        "docs/observability.md), both fed by the device's observation log.",
        [
            "repro.obs.log",
            "repro.obs.windows",
            "repro.obs.trace",
        ],
    ),
]


def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    return inspect.cleandoc(doc).split("\n\n", 1)[0].strip()


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _document_function(name: str, obj, lines: list[str], *, depth: str = "###") -> None:
    lines.append(f"{depth} `{name}{_signature(obj)}`")
    lines.append("")
    lines.append(_first_paragraph(obj.__doc__))
    lines.append("")


def _document_class(name: str, cls: type, lines: list[str]) -> None:
    bases = [base.__name__ for base in cls.__bases__ if base is not object]
    suffix = f"({', '.join(bases)})" if bases else ""
    lines.append(f"### `class {name}{suffix}`")
    lines.append("")
    lines.append(_first_paragraph(cls.__doc__))
    lines.append("")
    members: list[str] = []
    for attr_name, attr in sorted(vars(cls).items()):
        if attr_name.startswith("_"):
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if inspect.isfunction(attr):
            members.append(
                f"- `{attr_name}{_signature(attr)}` — {_first_paragraph(attr.__doc__)}"
            )
        elif isinstance(attr, property):
            members.append(f"- `{attr_name}` *(property)* — {_first_paragraph(attr.__doc__)}")
    if members:
        lines.extend(members)
        lines.append("")


def _document_module(module_name: str, lines: list[str]) -> None:
    module = importlib.import_module(module_name)
    lines.append(f"## `{module_name}`")
    lines.append("")
    lines.append(_first_paragraph(module.__doc__))
    lines.append("")
    exported = list(getattr(module, "__all__", []))
    for name in exported:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            _document_class(name, obj, lines)
        elif inspect.isfunction(inspect.unwrap(obj)):
            _document_function(name, inspect.unwrap(obj), lines)
        elif typing.get_origin(obj) is typing.Annotated:
            # A declared field type (repro.nand.fields): its type and bound.
            kind, *bounds = typing.get_args(obj)
            lines.append(f"### `{name}` *(field type)*")
            lines.append("")
            lines.append(f"`{kind.__name__}`, {', '.join(bound.text for bound in bounds)}.")
            lines.append("")
        else:
            kind = type(obj).__name__
            lines.append(f"### `{name}` *({kind})*")
            lines.append("")
            if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
                lines.append(f"Keys: {', '.join(f'`{key}`' for key in obj)}.")
            elif isinstance(obj, (tuple, frozenset)) and obj and all(
                isinstance(item, str) for item in obj
            ):
                values = sorted(obj) if isinstance(obj, frozenset) else list(obj)
                lines.append(f"Values: {', '.join(f'`{item}`' for item in values)}.")
            else:
                lines.append(f"Module-level constant of type `{kind}`.")
            lines.append("")


def _render_page(name: str, title: str, blurb: str, modules: list[str]) -> str:
    lines = [
        f"# API: {title}",
        "",
        "<!-- generated by docs/gen_api.py; do not edit by hand -->",
        "",
        blurb,
        "",
    ]
    for module_name in modules:
        _document_module(module_name, lines)
    return "\n".join(lines).rstrip() + "\n"


def _render_index() -> str:
    lines = [
        "# API reference",
        "",
        "<!-- generated by docs/gen_api.py; do not edit by hand -->",
        "",
        "Generated from the package docstrings by `docs/gen_api.py` (CI checks",
        "these pages against the code and additionally builds the full HTML",
        "reference with pdoc).",
        "",
    ]
    for name, title, blurb, _ in PAGES:
        lines.append(f"- [{title}]({name}.md) — {blurb}")
    return "\n".join(lines) + "\n"


def generate() -> dict[str, str]:
    """Render every page; returns {relative filename: content}."""
    pages = {"README.md": _render_index()}
    for name, title, blurb, modules in PAGES:
        pages[f"{name}.md"] = _render_page(name, title, blurb, modules)
    return pages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed pages match the code instead of writing",
    )
    args = parser.parse_args(argv)
    out_dir = Path(__file__).resolve().parent / "api"
    pages = generate()
    if args.check:
        stale = []
        for filename, content in pages.items():
            path = out_dir / filename
            if not path.exists() or path.read_text(encoding="utf-8") != content:
                stale.append(filename)
        extra = sorted(
            path.name for path in out_dir.glob("*.md") if path.name not in pages
        ) if out_dir.exists() else []
        if stale or extra:
            for filename in stale:
                print(f"stale API page: docs/api/{filename}", file=sys.stderr)
            for filename in extra:
                print(f"orphaned API page: docs/api/{filename}", file=sys.stderr)
            print("run: PYTHONPATH=src python docs/gen_api.py", file=sys.stderr)
            return 1
        print(f"docs/api is current ({len(pages)} pages)")
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, content in pages.items():
        (out_dir / filename).write_text(content, encoding="utf-8")
    print(f"wrote {len(pages)} pages to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
