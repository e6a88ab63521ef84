"""Run configuration: tolerances, iteration caps, seed, output format.

An optional config file in ``key=value`` format seeds the values; command
line flags override it.  The seed is recorded in every report so runs are
byte-reproducible.
"""

from dataclasses import dataclass, fields, replace

from .errors import InputError


@dataclass(frozen=True)
class RunConfig:
    residual_tol: float = 1e-10
    max_iterations: int = 200
    rng_seed: int = 0
    output_format: str = "json"

    def __post_init__(self):
        if not self.residual_tol > 0.0:  # NaN fails too
            raise InputError("residual_tol must be positive")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")
        if self.rng_seed < 0:
            raise InputError("rng_seed must be >= 0")
        if self.output_format not in ("json", "text"):
            raise InputError("output_format must be json or text")


_FIELDS = {field.name: field.type for field in fields(RunConfig)}


def load_config(path) -> RunConfig:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in _FIELDS:
                    raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    values[key] = _FIELDS[key](val)
                except ValueError:
                    raise InputError(f"{path}:{lineno}: bad value for {key!r}") from None
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    return RunConfig(**values)


def override(config: RunConfig, **kwargs) -> RunConfig:
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return replace(config, **kwargs) if kwargs else config
