"""Campaign configuration: flags, config files, validation.

Command-line flags arrive as the same strings a config file holds, and
one splitter reads every list, so a bad entry is a HarnessError either way.
"""

from ..padic import PadicError, PrimeCtx, _Value, _as_int, _set


class HarnessError(PadicError):
    """Invalid configuration or command usage."""


DEFAULT_RANKS = (2, 3)
DEFAULT_PRIMES = (3, 5)
DEFAULT_LEVELS = (1, 2)
DEFAULT_SAMPLES = 40
DEFAULT_SEED = 287454020


class CampaignConfig(_Value):
    """One campaign's parameters; the lists and numbers must be ints
    (a bool is not), the checks are names and out is a path or None."""

    __slots__ = ("n", "p", "m", "samples", "seed", "checks", "out")

    def __init__(
        self,
        n: tuple = DEFAULT_RANKS,
        p: tuple = DEFAULT_PRIMES,
        m: tuple = DEFAULT_LEVELS,
        samples: int = DEFAULT_SAMPLES,
        seed: int = DEFAULT_SEED,
        checks: tuple = (),  # empty means the full catalog
        out: str = None,
    ):
        _set(self, "n", tuple(_as_int(v, HarnessError, "n") for v in n))
        _set(self, "p", tuple(_as_int(v, HarnessError, "p") for v in p))
        _set(self, "m", tuple(_as_int(v, HarnessError, "m") for v in m))
        _set(self, "samples", _as_int(samples, HarnessError, "samples"))
        _set(self, "seed", _as_int(seed, HarnessError, "seed"))
        _set(self, "checks", tuple(checks))
        _set(self, "out", out)

    def validate(self, catalog=None) -> "CampaignConfig":
        for plist in (self.n, self.p, self.m):
            if not plist:
                raise HarnessError("empty parameter list")
        for q in self.p:
            try:
                PrimeCtx(q)
            except PadicError as exc:
                raise HarnessError(str(exc)) from exc
        for n in self.n:
            if n < 2:
                raise HarnessError("rank must be at least 2 for root-system checks")
            if n > 4:
                raise HarnessError("rank above 4 exceeds the desk-scale envelope")
        for m in self.m:
            if m < 1:
                raise HarnessError("level m must be at least 1")
        if self.samples < 0:
            raise HarnessError("samples must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise HarnessError("seed must fit in 64 bits")
        for k, name in enumerate(self.checks):
            if name in self.checks[:k]:
                raise HarnessError(f"check {name!r} is named twice")
        if catalog is not None:
            for name in self.checks:
                if name not in catalog:
                    known = ", ".join(sorted(catalog))
                    raise HarnessError(f"unknown check {name!r}; known: {known}")
        return self

    def as_dict(self) -> dict:
        """The campaign parameters, without `out`: where a report is
        written must not change its bytes."""
        return {
            "n": list(self.n),
            "p": list(self.p),
            "m": list(self.m),
            "samples": self.samples,
            "seed": self.seed,
            "checks": list(self.checks),
        }


def _split_list(text) -> tuple:
    """A list or tuple item by item; a string split at commas and spaces."""
    if isinstance(text, (list, tuple)):
        return tuple(str(v) for v in text)
    return tuple(str(text).replace(",", " ").split())


def _parse_int(key: str, text) -> int:
    """One integer, read from its text as _parse_int_list reads each entry."""
    try:
        return int(str(text))
    except ValueError as exc:
        raise HarnessError(f"bad integer for {key}: {text!r}") from exc


def _parse_int_list(text) -> tuple:
    parts = _split_list(text)
    if not parts:
        raise HarnessError("empty integer list")
    try:
        return tuple(int(v) for v in parts)
    except ValueError as exc:
        raise HarnessError(f"bad integer list {text!r}") from exc


def read_config_file(path: str) -> dict:
    """Line-oriented `key = value` pairs; # starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise HarnessError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def build_config(file_values: dict = None, **overrides) -> CampaignConfig:
    """Config-file values first, then explicit flag overrides on top."""
    merged = dict(file_values or {})
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    fields = {}
    for key, val in merged.items():
        if key in ("n", "p", "m"):
            fields[key] = _parse_int_list(val)
        elif key in ("samples", "seed"):
            fields[key] = _parse_int(key, val)
        elif key == "checks":
            fields[key] = _split_list(val)
        elif key == "out":
            fields[key] = str(val) if val else None
        else:
            raise HarnessError(f"unknown config key {key!r}")
    return CampaignConfig(**fields)
