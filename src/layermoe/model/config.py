"""Model hyperparameters shared by the dense backbone and its MoE upcycles."""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass

import numpy as np

from ..errors import ConfigurationError, InvalidInputError, SequenceLengthError


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the toy decoder-only transformer.

    ``top_k`` is the number of experts mixed per token per layer; it is
    clipped to the layer's expert count at forward time.
    """

    layers: int
    hidden: int
    heads: int
    vocab: int
    ffn: int
    context: int
    top_k: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigurationError("layers must be >= 1")
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise ConfigurationError("hidden must be divisible by heads")
        if self.top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        if min(self.hidden, self.vocab, self.ffn, self.context) < 1:
            raise ConfigurationError("hidden, vocab, ffn and context must be >= 1")

    def check_tokens(self, tokens: np.ndarray, fed: int) -> None:
        """Raise unless every id in ``tokens`` is a vocabulary id and the
        ``fed`` positions per sequence that reach the model fit the context.
        The forward checks its input this way; a corpus is checked whole
        where it meets a model, so a bad id in a target position, or in a
        sequence that sampling happens to skip, fails the same way. Training
        and evaluation feed all of a sequence but its last token, the
        profiler all of it."""
        if fed > self.context:
            raise SequenceLengthError(f"sequence length {fed} exceeds context {self.context}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.vocab):
            raise InvalidInputError(f"token id outside the vocabulary 0..{self.vocab - 1}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from a mapping of int fields; raises ConfigurationError naming
        every missing key, unknown key and non-int value."""
        if not isinstance(d, dict):
            raise ConfigurationError("a model config is a mapping of its fields")
        known = cls.__dataclass_fields__
        missing = [k for k, f in known.items() if f.default is MISSING and k not in d]
        problems = [f"lacks {', '.join(missing)}"] if missing else []
        problems += [f"has unknown key {k!r}" for k in d if k not in known]
        problems += [f"{k} is not an int" for k, v in d.items() if k in known and type(v) is not int]
        if problems:
            raise ConfigurationError(f"model config {'; '.join(problems)}")
        return cls(**d)
