"""Run configuration: defaults, file loading, validation.

A run's settings come from the defaults or from one config file of flat
``key = value`` lines with ``#`` comments, with overrides laid over it
(load_config).  Nothing here reads the environment: the CLI does, and passes
its HYHE_ variables and options as those overrides (see hyhe.cli).
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


def parse_config_text(text):
    """Parse flat ``key = value`` lines into a dict (no validation here).
    A line with no key or no ``=`` raises ConfigError naming it, as does a
    key set on two lines, naming both."""
    out, where = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (key and eq):
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        if key in where:
            raise ConfigError(f"config key {key!r} set twice: lines "
                              f"{where[key]} and {lineno}")
        out[key], where[key] = value, lineno
    return out


def load_config(path=None, **overrides):
    """Build a RunConfig from the config file at path (a str or
    os.PathLike), or the defaults for None, and lay each of overrides (a
    RunConfig field) that is not None over it.

    A file that cannot be read, or is not UTF-8 text (a leading byte-order
    mark is allowed and skipped), raises ConfigError naming it.  Unknown
    keys are rejected by name, and a key set twice (parse_config_text).
    The file's values are validated before the overrides replace them, and
    the result again.
    """
    doc = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                doc = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {os.fspath(path)}: "
                              f"{getattr(exc, 'strerror', None) or exc}"
                              ) from exc

    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    if "precision_digits" in doc:
        try:
            doc["precision_digits"] = int(doc["precision_digits"])
        except ValueError as exc:
            raise ConfigError("config key 'precision_digits': cannot parse "
                              f"{doc['precision_digits']!r}") from exc
    config = RunConfig(**doc).validate()
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **updates).validate() if updates else config
