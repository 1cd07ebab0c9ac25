"""Model hyperparameters shared by the dense backbone and its MoE upcycles."""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from ..errors import ConfigurationError, InvalidInputError, SequenceLengthError
from ..schema import check


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
        """Build from a mapping of int fields; one FormatError names every
        missing key, wrong value and unknown key."""
        return cls(**check(d, MODEL_SPEC, "model config"))


# The one spec of a model config: every field an int, those with a default optional.
MODEL_SPEC = {f.name + ("?" if f.default is not MISSING else ""): int for f in fields(ModelConfig)}
