"""Process settings: every ``REPRO_FD_*`` knob, parsed once, in one place.

Resolution order: :func:`settings` parses ``os.environ`` on first use;
:func:`override` replaces fields process-wide inside a ``with`` block
(the CLI runs every command in one); an explicit call-site argument
(``DHyFD(jobs=4)``, a :class:`~repro.resilience.RunBudget` field) wins
over both.  :meth:`Settings.environ` renders the settings back into
variables, so a cluster replica resolves the same settings as its
parent, overrides included.

``REPRO_FD_FAULTS`` is not a setting: it is the cross-process
fault-injection channel :mod:`repro.resilience.faults` rewrites at run
time.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

_UNITS = {
    "": 1,
    "b": 1,
    "k": 1024,
    "kb": 1024,
    "m": 1024 ** 2,
    "mb": 1024 ** 2,
    "g": 1024 ** 3,
    "gb": 1024 ** 3,
}

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


def parse_bytes(value: Union[int, str]) -> int:
    """Parse a byte count: plain integers or ``"64m"``-style suffixes."""
    if isinstance(value, int):
        result = value
    else:
        text = value.strip().lower()
        suffix = text.lstrip("0123456789.")
        number = text[: len(text) - len(suffix)] if suffix else text
        try:
            unit = _UNITS[suffix.strip()]
            result = int(float(number) * unit)
        except (KeyError, ValueError):
            raise ValueError(
                f"cannot parse byte count {value!r} (use e.g. 1048576, '4m', '1g')"
            ) from None
    if result <= 0:
        raise ValueError(f"byte budget must be positive, got {value!r}")
    return result


def parse_jobs(value: Union[int, str], source: str = "jobs") -> int:
    """Normalize a worker count; ``0``/``"auto"`` mean one per core (0)."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return 0
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"{source} must be a non-negative integer or 'auto', got {value!r}"
            ) from None
    if value < 0:
        raise ValueError(f"{source} must be >= 0 (0 means all cores), got {value}")
    return int(value)


def parse_bool(value: str) -> bool:
    """``1/true/on/yes`` or ``0/false/off/no``, any case and padding."""
    text = value.strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ValueError(f"expected one of {', '.join(_TRUE + _FALSE)}, got {value!r}")


def parse_seconds(value: str) -> float:
    """A non-negative number of seconds."""
    try:
        seconds = float(value)
    except ValueError:
        raise ValueError(f"expected a number of seconds, got {value!r}") from None
    if not seconds >= 0:  # also rejects nan
        raise ValueError(f"seconds must be >= 0, got {value!r}")
    return seconds


#: Field -> (environment variable, parser of its text).
VARIABLES: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "jobs": ("REPRO_FD_JOBS", parse_jobs),
    "memory_budget": ("REPRO_FD_MEMORY_BUDGET", parse_bytes),
    "rss_limit": ("REPRO_FD_RSS_LIMIT", parse_bytes),
    "arena_budget": ("REPRO_FD_ARENA_BUDGET", parse_bytes),
    "arena_owner": ("REPRO_FD_ARENA_OWNER", str.strip),
    "memplane": ("REPRO_FD_MEMPLANE", parse_bool),
    "checkpoint_interval": ("REPRO_FD_CHECKPOINT_INTERVAL", parse_seconds),
}


@dataclass(frozen=True)
class Settings:
    """The process-wide defaults; ``None`` means "no limit" / "derive it"."""

    #: Worker processes when a call site passes ``jobs=None`` (0 = one per core).
    jobs: int = 1
    #: Partition-memory budget of every discovery run (bytes).
    memory_budget: Optional[int] = None
    #: Process-RSS ceiling of every discovery run (bytes).
    rss_limit: Optional[int] = None
    #: Byte budget of the host-wide dataset arena (see :mod:`repro.memplane`).
    arena_budget: Optional[int] = None
    #: Arena segment-name owner token (None = ``p<pid>``); one per replica.
    arena_owner: Optional[str] = None
    #: The shared dataset arena and partition tier are on.
    memplane: bool = True
    #: Seconds between discovery checkpoint emissions (0 = every opportunity).
    checkpoint_interval: float = 5.0

    @classmethod
    def from_environ(cls, environ: Mapping[str, str]) -> "Settings":
        """Parse the ``REPRO_FD_*`` variables of ``environ``.

        An unset or blank variable keeps its default; a malformed one
        raises a :class:`ValueError` that names it.
        """
        values = {}
        for field, (name, parse) in VARIABLES.items():
            raw = environ.get(name, "")
            if not raw.strip():
                continue
            try:
                values[field] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"{name}={raw!r}: {exc}") from None
        return cls(**values)

    def environ(self) -> Dict[str, str]:
        """These settings as variables (``""`` for an unset field);
        :meth:`from_environ` of the result equals ``self``."""
        out = {}
        for field, (name, _parse) in VARIABLES.items():
            value = getattr(self, field)
            if value is None:
                out[name] = ""
            elif isinstance(value, bool):
                out[name] = "1" if value else "0"
            else:
                out[name] = str(value)
        return out


_current: Optional[Settings] = None
_lock = threading.Lock()


def settings() -> Settings:
    """The active settings: the environment's, parsed on first use, under
    whatever :func:`override` is in force."""
    global _current
    with _lock:
        if _current is None:
            _current = Settings.from_environ(os.environ)
        return _current


@contextlib.contextmanager
def override(**fields) -> Iterator[Settings]:
    """Replace some settings process-wide (every thread) inside the block."""
    global _current
    previous = settings()
    _current = replace(previous, **fields)
    try:
        yield _current
    finally:
        _current = previous
