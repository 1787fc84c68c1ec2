"""Machine-readable campaign reports.

Reports are deterministic given the seed: byte-identical apart from the
per-check wall times.  Rationals serialize as "num/den" strings, exact
scalars as their three rationals and roots as coefficient vectors so
payloads can be replayed.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction as Q

from ..padic import Mono
from ..rootsys import Root, WeylElem

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

_STATUSES = (PASS, FAIL, SKIPPED)


class CheckFailure(Exception):
    """Carries the replayable counterexample payload."""

    def __init__(self, payload: dict):
        super().__init__(str(payload))
        self.payload = payload


def encode_value(v):
    """JSON-safe view of the values that show up in payloads."""
    if isinstance(v, Q):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, Mono):
        return {"rat": encode_value(v.rat), "qexp": encode_value(v.qexp), "turn": encode_value(v.turn)}
    if isinstance(v, Root):
        return {"root": list(v.coeffs)}
    if isinstance(v, WeylElem):
        return {"weyl": list(v.imgs)}
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if hasattr(v, "rows"):
        return {"rows": encode_value(v.rows)}
    return repr(v)


@dataclass
class CheckRecord:
    name: str
    status: str
    cases: int = 0
    parameters: dict = field(default_factory=dict)
    counterexample: dict = None
    seconds: float = 0.0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and not self.counterexample:
            raise ValueError("a failed check must carry a counterexample")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "cases": self.cases,
            "parameters": encode_value(self.parameters),
            "counterexample": encode_value(self.counterexample),
            "seconds": round(self.seconds, 3),
        }


@dataclass
class Report:
    version: str
    config: dict
    checks: list = field(default_factory=list)

    def tally(self) -> dict:
        """The number of checks with each status."""
        out = dict.fromkeys(_STATUSES, 0)
        for r in self.checks:
            out[r.status] += 1
        return out

    @property
    def failed(self) -> list:
        return [r for r in self.checks if r.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failed

    def as_dict(self) -> dict:
        return {
            "tool": "padicsp",
            "version": self.version,
            "config": encode_value(self.config),
            "checks": [r.as_dict() for r in sorted(self.checks, key=lambda r: r.name)],
            "summary": self.tally(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
