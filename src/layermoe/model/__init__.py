"""Toy transformer, MoE upcycling, routing, and checkpoints."""

from .checkpoint import load_model, save_model
from .config import ModelConfig
from .network import (
    DenseModel,
    Expansion,
    Expert,
    ForwardResult,
    LayerTrace,
    Model,
    MoELayer,
    MoEModel,
    add_classifiers,
    extend_expansion,
    forward,
    forward_graph,
    hash_params,
    partition_params,
    upcycle,
)

__all__ = [
    "DenseModel",
    "Expansion",
    "Expert",
    "ForwardResult",
    "LayerTrace",
    "Model",
    "ModelConfig",
    "MoELayer",
    "MoEModel",
    "add_classifiers",
    "extend_expansion",
    "forward",
    "forward_graph",
    "hash_params",
    "load_model",
    "partition_params",
    "save_model",
    "upcycle",
]
