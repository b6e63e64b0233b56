"""Benchmark reports and rendering helpers.

:class:`Report` is the one shape every ``BENCH_*.json`` takes: the
suite's payload, its named gates (``ok`` is all of them passing) and the
provenance of the command that produced it; :func:`write_report` is the
one writer. The rendering helpers print the same rows/series the paper
reports so the reproduction can be compared against the published
numbers at a glance.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import platform
import shlex
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: The comparisons a gate may use, keyed by their JSON spelling.
GATE_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def gate(value: object, op: str, bound: object) -> dict[str, object]:
    """One named-gate record: ``value op bound`` and whether it holds.

    Numpy scalars are unwrapped so the record serializes as plain JSON
    and ``tools/check_bench.py`` can recompute ``passed`` from it.
    """
    value = value.item() if isinstance(value, np.generic) else value
    bound = bound.item() if isinstance(bound, np.generic) else bound
    return {
        "value": value,
        "op": op,
        "bound": bound,
        "passed": bool(GATE_OPS[op](value, bound)),
    }


@dataclasses.dataclass(frozen=True)
class Report:
    """A benchmark report: payload, named gates and provenance.

    Attributes:
        suite: The suite's name (the JSON ``suite`` key).
        payload: The suite's measurements, under the JSON keys they are
            written to.
        gates: ``{name: gate(...)}``; :attr:`ok` is all of them passing.
        provenance: The command that produced the report, stamped by the
            CLI (:meth:`stamp`); ``None`` for library runs.
    """

    suite: str
    payload: dict[str, object]
    gates: dict[str, dict[str, object]]
    provenance: dict[str, object] | None = None

    @property
    def ok(self) -> bool:
        return all(entry["passed"] for entry in self.gates.values())

    def stamp(self, argv: Sequence[str], smoke: bool, seed: int) -> "Report":
        """This report with the provenance of ``python -m repro *argv``."""
        return dataclasses.replace(
            self,
            provenance={
                "command": shlex.join(["python", "-m", "repro", *argv]),
                "argv": list(argv),
                "smoke": bool(smoke),
                "seed": int(seed),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        )

    def to_dict(self) -> dict[str, object]:
        """The JSON form: payload keys plus ``suite``, ``gates``, ``ok``
        and (once stamped) ``provenance``."""
        out = dict(self.payload)
        out.update(suite=self.suite, gates=self.gates, ok=self.ok)
        if self.provenance is not None:
            out["provenance"] = self.provenance
        return out

    def __getitem__(self, key: str) -> object:
        """A JSON key of the report (``report["serving"]``)."""
        return self.to_dict()[key]

    def gate_table(self) -> str:
        """One line per gate: value, op, bound and PASS/FAIL."""

        def cell(value: object) -> str:
            return f"{value:.6g}" if isinstance(value, float) else str(value)

        return format_table(
            ["gate", "value", "op", "bound", "verdict"],
            [
                [
                    name,
                    cell(entry["value"]),
                    entry["op"],
                    cell(entry["bound"]),
                    "PASS" if entry["passed"] else "FAIL",
                ]
                for name, entry in self.gates.items()
            ],
        )


def write_report(report: Report, path: str | Path) -> Path:
    """Persist a report as machine-readable JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return path


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text aligned table."""
    if not headers:
        raise ConfigurationError("table needs at least one column")
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[object], ys: Sequence[object]
) -> str:
    """One labelled (x, y) series, e.g. a figure's line."""
    if len(xs) != len(ys):
        raise ConfigurationError("series xs and ys must have equal length")
    pairs = ", ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def format_speedups(
    title: str, speedups: Mapping[str, float], baseline: str
) -> str:
    """Figure 5-style speedup annotation block."""
    lines = [f"{title} (normalized to {baseline} = 1.0)"]
    for name, value in speedups.items():
        lines.append(f"  {name:<12} {value:.2f}x")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
