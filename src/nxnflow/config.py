"""Flat `key = value` run configuration with dotted section prefixes.

Lines are UTF-8, `#` starts a comment, unknown keys are rejected before any
work starts. CLI flags override file values.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

# key -> (type, default). The model.* and train.* entries are the dataclass
# fields, typed by their defaults (the annotations are strings here).
# TrainConfig.bits is not a key: image data is dequantized at the model's
# bit depth, so train_config fills it from model.bits.
KNOWN_KEYS = {
    **{f"model.{f.name}": (type(f.default), f.default) for f in fields(ModelConfig)},
    **{f"train.{f.name}": (type(f.default), f.default) for f in fields(TrainConfig)
       if f.name != "bits"},
    "data.kind": (str, "eight_gaussians"),
    "data.path": (str, ""),
    "data.n": (int, 4096),
}


def parse_kv_lines(text: str) -> dict:
    """Parse `key = value` lines into a raw string map."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class RunConfig:
    def __init__(self, entries: dict | None = None):
        self.values = {k: default for k, (_, default) in KNOWN_KEYS.items()}
        if entries:
            self.update(entries)

    def update(self, entries: dict) -> None:
        for key, raw in entries.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            typ, _ = KNOWN_KEYS[key]
            try:
                self.values[key] = typ(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "rb") as f:
            raw = f.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 at byte offset {e.start}") from None
        return cls(parse_kv_lines(text))

    def __getitem__(self, key):
        return self.values[key]

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: self[f"model.{f.name}"] for f in fields(ModelConfig)})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: self["model.bits" if f.name == "bits" else f"train.{f.name}"]
                              for f in fields(TrainConfig)})


def model_config_from_text(text: str) -> ModelConfig:
    """Rebuild a ModelConfig from its checkpoint echo, which holds model.* keys only."""
    entries = parse_kv_lines(text)
    other = [k for k in entries if not k.startswith("model.")]
    if other:
        raise ConfigError(f"config echo key {other[0]!r} is not a model.* key")
    return RunConfig(entries).model_config()
