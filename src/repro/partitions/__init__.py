"""Stripped partitions: construction, refinement, products, caching, kernels."""

from . import kernels
from .cache import PartitionCache
from .kernels import BACKENDS, active_backend, use_backend
from .stripped import Cluster, StrippedPartition, refine_cluster

__all__ = [
    "BACKENDS",
    "Cluster",
    "PartitionCache",
    "StrippedPartition",
    "active_backend",
    "kernels",
    "refine_cluster",
    "use_backend",
]
