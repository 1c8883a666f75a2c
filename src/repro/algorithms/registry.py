"""Name-based registry of all discovery algorithms."""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, FrozenSet, List, Optional

from ..core.base import DiscoveryAlgorithm
from ..core.dhyfd import DHyFD
from .approximate import ApproximateTANE
from .fastfds import FastFDs
from .fdep import FDEP, FDEP1, FDEP2
from .hyfd import HyFD
from .naive import NaiveFDDiscovery
from .tane import TANE

_REGISTRY: Dict[str, Callable[..., DiscoveryAlgorithm]] = {
    DHyFD.name: DHyFD,
    HyFD.name: HyFD,
    TANE.name: TANE,
    FDEP.name: FDEP,
    FDEP1.name: FDEP1,
    FDEP2.name: FDEP2,
    NaiveFDDiscovery.name: NaiveFDDiscovery,
    FastFDs.name: FastFDs,
    ApproximateTANE.name: ApproximateTANE,
}


def algorithm_names() -> List[str]:
    """All registered algorithm names, sorted."""
    return sorted(_REGISTRY)


@functools.lru_cache(maxsize=None)
def algorithm_parameters(name: str) -> FrozenSet[str]:
    """The constructor keyword arguments of a registered algorithm."""
    return frozenset(inspect.signature(_REGISTRY[name]).parameters)


def make_algorithm(
    name: str, time_limit: Optional[float] = None, **kwargs
) -> DiscoveryAlgorithm:
    """Instantiate a discovery algorithm by name.

    Extra keyword arguments are forwarded to the constructor (e.g.
    ``ratio_threshold`` for DHyFD); one it does not take (``jobs`` for
    all but DHyFD) is a :class:`ValueError` naming it.
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {algorithm_names()}"
        ) from None
    unknown = sorted(set(kwargs) - algorithm_parameters(factory.name))
    if unknown:
        raise ValueError(
            f"algorithm {name!r} takes no {', '.join(map(repr, unknown))} option"
        )
    return factory(time_limit=time_limit, **kwargs)
