"""Run configuration files: strict JSON parsing with documented defaults.

Every section is read and written by the config schema walker in
selfreflect.utils (_read_fields, _write_fields), so a key's name, type and
default live only in its dataclass. Unknown keys are fatal and the error names
the full key path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .engine import DecodeConfig
from .errors import ConfigError
from .utils import _read_fields, _write_fields, read_json


def decode_config_from_dict(data: dict, where: str = "") -> DecodeConfig:
    return _read_fields(DecodeConfig, data, where)


def decode_config_to_dict(cfg: DecodeConfig) -> dict:
    return _write_fields(cfg)


@dataclass
class RunConfig:
    """Decode settings plus benchmark-level wiring from one config file, with
    the CLI's flags laid over its keys (cli._run_config).

    The file is flat: the decode keys sit beside the bench keys. Its `seed`
    is the run's, where None lets the CLI draw one and record it.
    """

    decode: DecodeConfig = field(default_factory=DecodeConfig, metadata={"flat": True})
    seed: int | None = None
    backend: str | None = None
    corpus: str | None = None
    k: int = 5
    seeds: list[int] | None = None
    out: str | None = None

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise ConfigError("config key seed must be a non-negative integer or null")

    def decode_config(self, seed: int, reflect: bool | None = None) -> DecodeConfig:
        return replace(self.decode, seed=seed,
                       reflect=self.decode.reflect if reflect is None else reflect)


def run_config_from_dict(data: dict) -> RunConfig:
    return _read_fields(RunConfig, data, "")


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(read_json(path, "config"))
