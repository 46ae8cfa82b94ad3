"""Check experiment results against the committed golden fixtures
(``tests/golden/<id>.json``, read only) with the golden suite's
tolerances."""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from common import ROOT

GOLDEN_DIR = ROOT / "tests" / "golden"
REL_TOL = 1e-6
ABS_TOL = 1e-9


def load_golden(experiment_id: str) -> Dict[str, Any]:
    return json.loads((GOLDEN_DIR / f"{experiment_id}.json").read_text())


def _float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


class _Diff:
    def __init__(self) -> None:
        self.checked = 0
        self.problems: List[str] = []

    def cell(self, actual, expected, where: str) -> None:
        self.checked += 1
        fa, fe = _float(actual), _float(expected)
        if fa is not None and fe is not None:
            same = math.isclose(fa, fe, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        else:
            same = str(actual) == str(expected)
        if not same:
            self.problems.append(f"{where}: {actual!r} != {expected!r}")

    def equal(self, actual, expected, where: str) -> None:
        if actual != expected:
            self.problems.append(f"{where}: {actual!r} != {expected!r}")

    def table(self, actual, expected, where: str) -> None:
        self.equal(actual["headers"], expected["headers"], f"{where} headers")
        self.equal(actual["title"], expected["title"], f"{where} title")
        self.equal(len(actual["rows"]), len(expected["rows"]),
                   f"{where} row count")
        for i, (arow, erow) in enumerate(zip(actual["rows"],
                                             expected["rows"])):
            self.equal(len(arow), len(erow), f"{where} row {i} cells")
            for j, (a, e) in enumerate(zip(arow, erow)):
                self.cell(a, e, f"{where} row {i} col {j}")

    def figure(self, actual, expected, where: str) -> None:
        self.equal(actual["figure_id"], expected["figure_id"], where)
        self.equal([s["name"] for s in actual["series"]],
                   [s["name"] for s in expected["series"]],
                   f"{where} series names")
        for sa, se in zip(actual["series"], expected["series"]):
            w = f"{where} series {sa['name']!r}"
            self.equal(len(sa["x"]), len(se["x"]), f"{w} x length")
            self.equal(len(sa["y"]), len(se["y"]), f"{w} y length")
            for a, e in zip(sa["x"], se["x"]):
                self.cell(a, e, f"{w} x")
            for a, e in zip(sa["y"], se["y"]):
                self.cell(a, e, f"{w} y")


def check(payload: Dict[str, Any], expected: Dict[str, Any]):
    """``(values checked, problems)`` for one result document."""
    diff = _Diff()
    eid = expected["experiment_id"]
    for key in ("experiment_id", "fidelity", "title", "notes"):
        diff.equal(payload.get(key), expected[key], f"{eid}.{key}")
    diff.equal(payload["table"] is None, expected["table"] is None,
               f"{eid}.table presence")
    if payload["table"] is not None and expected["table"] is not None:
        diff.table(payload["table"], expected["table"], f"{eid}.table")
    diff.equal(len(payload["extra_tables"]), len(expected["extra_tables"]),
               f"{eid}.extra_tables count")
    for k, (a, e) in enumerate(zip(payload["extra_tables"],
                                   expected["extra_tables"])):
        diff.table(a, e, f"{eid}.extra_tables[{k}]")
    diff.equal(len(payload["figures"]), len(expected["figures"]),
               f"{eid}.figures count")
    for a, e in zip(payload["figures"], expected["figures"]):
        diff.figure(a, e, f"{eid}.figures")
    diff.equal(set(payload["metrics"]), set(expected["metrics"]),
               f"{eid}.metric keys")
    for key, e in expected["metrics"].items():
        if key in payload["metrics"]:
            diff.cell(payload["metrics"][key], e, f"{eid}.metrics[{key}]")
    return diff.checked, diff.problems
