"""Machine-readable campaign reports.

Reports are deterministic given the seed: byte-identical apart from the
per-check wall times.  Rationals serialize as "num/den" strings, exact
scalars as their three rationals and roots as coefficient vectors so
payloads can be replayed.
"""

import json
from fractions import Fraction as Q

from ..padic import Mono
from ..rootsys import Root, WeylElem
from ..value import _slots_repr

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


class CheckRecord:
    """One check's outcome.  A record stays mutable, so it has no hash."""

    __slots__ = ("name", "status", "cases", "parameters", "counterexample", "seconds")

    def __init__(
        self,
        name: str,
        status: str,
        cases: int = 0,
        parameters: dict = None,
        counterexample: dict = None,
        seconds: float = 0.0,
    ):
        if status not in _STATUSES:
            raise ValueError(f"bad status {status!r}")
        if status == FAIL and not counterexample:
            raise ValueError("a failed check must carry a counterexample")
        self.name = name
        self.status = status
        self.cases = cases
        self.parameters = {} if parameters is None else parameters
        self.counterexample = counterexample
        self.seconds = seconds

    __repr__ = _slots_repr
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.status, self.cases, self.parameters, self.counterexample, self.seconds) == (
            other.name, other.status, other.cases, other.parameters, other.counterexample, other.seconds
        )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "cases": self.cases,
            "parameters": encode_value(self.parameters),
            "counterexample": encode_value(self.counterexample),
            "seconds": round(self.seconds, 3),
        }


class Report:
    """A campaign's records under its version and config; mutable, so it has no hash."""

    __slots__ = ("version", "config", "checks")

    def __init__(self, version: str, config: dict, checks: list = None):
        self.version = version
        self.config = config
        self.checks = [] if checks is None else checks

    __repr__ = _slots_repr
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.version, self.config, self.checks) == (other.version, other.config, other.checks)

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
