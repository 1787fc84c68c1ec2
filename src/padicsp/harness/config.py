"""Campaign configuration: flags, config files, validation.

Command-line flags arrive as the same strings a config file holds, and
one splitter reads every list, so a bad entry is a HarnessError either way.
"""

from dataclasses import dataclass, replace

from ..padic import PadicError, _is_prime


class HarnessError(PadicError):
    """Invalid configuration or command usage."""


DEFAULT_RANKS = (2, 3)
DEFAULT_PRIMES = (3, 5)
DEFAULT_LEVELS = (1, 2)
DEFAULT_SECTION_LEVELS = (1, 2)
DEFAULT_SAMPLES = 40
DEFAULT_SEED = 287454020


@dataclass(frozen=True)
class CampaignConfig:
    n: tuple = DEFAULT_RANKS
    p: tuple = DEFAULT_PRIMES
    m: tuple = DEFAULT_LEVELS
    i: tuple = DEFAULT_SECTION_LEVELS
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    checks: tuple = ()  # empty means the full catalog
    out: str = None

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "p", tuple(int(v) for v in self.p))
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "i", tuple(int(v) for v in self.i))
        object.__setattr__(self, "checks", tuple(self.checks))

    def validate(self, catalog=None) -> "CampaignConfig":
        for plist in (self.n, self.p, self.m, self.i):
            if not plist:
                raise HarnessError("empty parameter list")
        for q in self.p:
            if q == 2:
                raise HarnessError(
                    "p = 2 is rejected: the residue characteristic must be odd"
                )
            if not _is_prime(q):
                raise HarnessError(f"p = {q} is not prime")
        for n in self.n:
            if n < 2:
                raise HarnessError("rank must be at least 2 for root-system checks")
            if n > 4:
                raise HarnessError("rank above 4 exceeds the desk-scale envelope")
        for m in self.m:
            if m < 1:
                raise HarnessError("level m must be at least 1")
        for i in self.i:
            if i < 1:
                raise HarnessError("section level i must be at least 1")
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
            "i": list(self.i),
            "samples": self.samples,
            "seed": self.seed,
            "checks": list(self.checks),
        }


def _split_list(text) -> tuple:
    """A list or tuple item by item; a string split at commas and spaces."""
    if isinstance(text, (list, tuple)):
        return tuple(str(v) for v in text)
    return tuple(str(text).replace(",", " ").split())


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
    cfg = CampaignConfig()
    merged = dict(file_values or {})
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    for key, val in merged.items():
        if key in ("n", "p", "m", "i"):
            cfg = replace(cfg, **{key: _parse_int_list(val)})
        elif key in ("samples", "seed"):
            try:
                cfg = replace(cfg, **{key: int(val)})
            except (TypeError, ValueError) as exc:
                raise HarnessError(f"bad integer for {key}: {val!r}") from exc
        elif key == "checks":
            cfg = replace(cfg, checks=_split_list(val))
        elif key == "out":
            cfg = replace(cfg, out=str(val) if val else None)
        else:
            raise HarnessError(f"unknown config key {key!r}")
    return cfg
