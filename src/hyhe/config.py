"""Run configuration: defaults, file loading, validation.

A run's settings come from the defaults or from one config file of flat
``key = value`` lines with ``#`` comments.  Nothing here reads the
environment: the CLI does, and layers its HYHE_ variables and options over
the file (see hyhe.cli).
"""

import os
from dataclasses import dataclass, fields, replace

DEFAULT_SWEEP = (20, 30, 40, 50)
OUTPUT_FORMATS = ("human", "json", "csv")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    precision_digits: int = 30
    output: str = "human"

    def validate(self):
        if self.precision_digits < 30:
            raise ConfigError(
                f"precision_digits must be >= 30, got {self.precision_digits}")
        if self.output not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output must be one of {OUTPUT_FORMATS}, got {self.output!r}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key, raw):
    ftype = _FIELD_TYPES[key]
    try:
        if ftype is int:
            return int(raw)
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc


def parse_config_text(text):
    """Parse flat ``key = value`` lines into a dict (no validation here)."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_config(path=None):
    """Build a RunConfig from the config file at path (a str or
    os.PathLike), or the defaults for None.

    A file that cannot be read, or is not UTF-8 text, raises ConfigError
    naming it.  Unknown keys are rejected by name.  Layering environment
    variables and options over the file is the CLI's job.
    """
    doc = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {os.fspath(path)}: "
                              f"{getattr(exc, 'strerror', None) or exc}"
                              ) from exc

    unknown = set(doc) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    kwargs = {k: _coerce(k, v) for k, v in doc.items()}
    return RunConfig(**kwargs).validate()


def with_overrides(config, **kwargs):
    """Replace fields (None values ignored) and re-validate."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    return replace(config, **updates).validate() if updates else config
