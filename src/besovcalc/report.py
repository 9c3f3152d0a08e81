"""Deterministic JSON/CSV emission for reports."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
from typing import Iterable

from .estimates import EstimateReport

SCHEMA = "besov-calc/1"


def _jsonable(v):
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


def json_document(command: str, payload) -> str:
    doc = {"schema": SCHEMA, "command": command, "result": _jsonable(payload)}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def reports_to_json(reports: Iterable[EstimateReport]) -> list[dict]:
    """One row per report: its fields, its slack and whether it passed."""
    return [_jsonable({**asdict(r), "slack": r.slack, "pass": r.passed}) for r in reports]


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def reports_to_csv(reports: Iterable[EstimateReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["estimate_id", "params", "lhs", "rhs", "slack", "pass"])
    for r in reports:
        params = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.params.items()))
        w.writerow(
            [r.estimate_id, params, _fmt(r.lhs), _fmt(r.rhs), _fmt(r.slack), str(r.passed)]
        )
    return buf.getvalue()


def curve_csv(columns: dict[str, list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    keys = list(columns.keys())
    w.writerow(keys)
    for row in zip(*columns.values()):
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()
