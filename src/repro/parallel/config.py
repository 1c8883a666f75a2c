"""Worker-count resolution and tuning knobs for the parallel layer.

A call site's ``jobs=`` argument wins (``DHyFD(jobs=4)``); ``None``
falls back to :attr:`repro.settings.Settings.jobs` (``REPRO_FD_JOBS``,
the CLI's ``--jobs``, or an :func:`~repro.settings.override`), which
defaults to serial.  ``0`` or ``"auto"`` means "one worker per CPU
core".

The ``DEFAULT_MIN_PARALLEL_*`` thresholds gate when call sites bother
to spin up a pool at all: below them the per-task work is too small to
amortize process dispatch, so the serial path runs even when ``jobs``
asks for more workers.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from ..settings import parse_jobs, settings

#: Relations with fewer rows than this never go parallel — the shared
#: memory setup plus dispatch would dominate the work being shipped.
DEFAULT_MIN_PARALLEL_ROWS = 1024

#: A parallel call needs at least this many independent work items
#: (candidate nodes, unique FD LHSs, ...) to be worth dispatching.
DEFAULT_MIN_PARALLEL_ITEMS = 4

#: Minimum work items bundled into one pool task (dispatch amortization).
DEFAULT_MIN_BATCH = 8

#: Pool-failure retry attempts before falling back to the serial path.
DEFAULT_POOL_RETRIES = 2

#: Base backoff (seconds) between pool retries; scaled by attempt number.
DEFAULT_POOL_RETRY_BACKOFF = 0.05


def resolve_jobs(jobs: Optional[Union[int, str]] = None) -> int:
    """The effective worker count (>= 1) for one parallel call."""
    value = settings().jobs if jobs is None else parse_jobs(jobs)
    if value == 0:
        return max(1, os.cpu_count() or 1)
    return value
