"""Differentiable two-sided matching: classical baselines, a trainable
matching network, and the stability / strategyproofness tradeoff."""

from .prefs import (AgentId, DistributionConfig, DistributionKind,
                    EncodedProfile, PreferenceOrder, PreferenceProfile, Side,
                    encode, parse_profile, format_profile, sample_profiles)
from .mechanisms import (DeterministicMatching, RandomizedMatching,
                         LiftedMechanism, MechanismKind, Proposing,
                         bvn_decompose, da, rsd_exact)
from .metrics import EvalReport, evaluate, stv_profile
from .net import NetworkDims, NetworkMechanism, load_checkpoint, save_checkpoint
from .train import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "AgentId", "DistributionConfig", "DistributionKind", "EncodedProfile",
    "PreferenceOrder", "PreferenceProfile", "Side", "encode", "parse_profile",
    "format_profile", "sample_profiles", "DeterministicMatching",
    "RandomizedMatching", "LiftedMechanism", "MechanismKind", "Proposing",
    "bvn_decompose", "da", "rsd_exact", "EvalReport", "evaluate", "stv_profile",
    "NetworkDims", "NetworkMechanism", "load_checkpoint", "save_checkpoint",
    "TrainConfig", "train", "__version__",
]
