"""Normalizing-flow density estimation with multi-scale flows whose steps
are actnorm, an invertible 1x1 PLU channel mix and an affine coupling."""

from .model import FlowOutput, ModelConfig, MultiScaleModel, bits_per_dim, build_model
from .tensor import Rng

__all__ = ["FlowOutput", "ModelConfig", "MultiScaleModel", "bits_per_dim",
           "build_model", "Rng"]

__version__ = "0.1.0"
