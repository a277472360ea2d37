"""Machine-readable check reports and deterministic result files.

Every certification produces a Report: a list of CheckRows, each carrying a
stable claim id, the tested statement in self-contained ASCII math, the
computed value, its bound, the margin (>= 0 when passing) and a pass flag.
CheckRow.at_most, at_least and within build a row from its rule, so that
the margin and the flag are computed once, the flag as margin >= 0. Reports
round-trip through JSON and re-validate against validate_report.

CSV output prints floats with 17 significant digits so byte-identical
reruns are checkable with diff. Writing a file creates its directory, and a
file or directory that cannot be written raises ConfigError naming it.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError


@dataclass
class CheckRow:
    check_id: str
    claim: str
    value: float
    bound: float
    margin: float
    passed: bool
    context: dict = field(default_factory=dict)

    @classmethod
    def at_most(cls, check_id, claim, value, bound, context=None):
        return cls._rule(check_id, claim, value, bound, bound - value, context)

    @classmethod
    def at_least(cls, check_id, claim, value, bound, context=None):
        return cls._rule(check_id, claim, value, bound, value - bound, context)

    @classmethod
    def within(cls, check_id, claim, value, target, tol):
        return cls._rule(check_id, claim, value, target, tol - abs(value - target), None)

    @classmethod
    def _rule(cls, check_id, claim, value, bound, margin, context):
        return cls(check_id, claim, value, bound, margin, bool(margin >= 0), context or {})


@dataclass
class Report:
    name: str
    checks: list
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_margin(self) -> float | None:
        """The smallest margin; None (JSON null) for a report without rows."""
        return min((c.margin for c in self.checks), default=None)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "grid": self.grid,
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True, default=float)
        if path is not None:
            with writing(path) as fh:
                fh.write(text)
        return text


_ROW_KEYS = {"check_id", "claim", "value", "bound", "margin", "passed", "context"}
_REPORT_KEYS = {"name", "params", "grid", "pass", "worst_margin", "checks"}


def validate_report(d: dict) -> None:
    """Schema check used by the round-trip test and by run() after writing."""
    if set(d.keys()) != _REPORT_KEYS:
        raise ValueError(f"report keys {sorted(d.keys())} != {sorted(_REPORT_KEYS)}")
    if not isinstance(d["checks"], list):
        raise ValueError("checks must be a list")
    for row in d["checks"]:
        if set(row.keys()) != _ROW_KEYS:
            raise ValueError(f"check row keys {sorted(row.keys())} invalid")
        if not isinstance(row["passed"], bool):
            raise ValueError("passed must be boolean")
        for k in ("value", "bound", "margin"):
            float(row[k])
    if d["pass"] != all(r["passed"] for r in d["checks"]):
        raise ValueError("aggregate pass flag inconsistent with rows")


@contextmanager
def writing(path, newline=None):
    """open(path, "w") after creating its directory, an OSError from either
    or from its writes raised as ConfigError. The writers all come here, so
    the first file written creates the output directory."""
    folder = Path(path).parent
    try:
        folder.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(folder)!r}: "
                          f"{exc.strerror}") from exc
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def fmt17(x) -> str:
    return f"{float(x):.17g}"


def write_results_csv(path, header, rows) -> None:
    """Rows of floats/strings; floats printed at 17 significant digits."""
    with writing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt17(v) if isinstance(v, float) else v for v in row])


def write_plotdata(path, xlabel, ylabel, xs, ys) -> None:
    """Two-column tab-separated series with a '#' header line."""
    with writing(path) as fh:
        fh.write(f"# {xlabel}\t{ylabel}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{fmt17(x)}\t{fmt17(y)}\n")
