"""Resource caps, the per-command scope and the error taxonomy: a
`ResourceCapError` exits 3, an `InputError` (a value the session wrote) 2,
and `run_session` reports every other exception as internal, exit 4.

The kernels poll the caps at cheap points so a runaway Groebner computation
fails fast instead of hanging a session.  Caps are off by default;
`run_session` installs them around each command, and `parse_session` around
the parse, from the environment variables STACKDUAL_MAX_TERMS (an integer)
and STACKDUAL_TIME_LIMIT_S (finite seconds), or the defaults below when
unset; any other value raises CapSettingError.

The same scope holds one table, `command_table`, in which
`groebner.liftable_oracle` keeps every liftable oracle the command builds,
so equal syzygy and lifting problems are solved once per command.  The
table is dropped when the command ends; outside a command every call gets
a fresh, empty table, so library calls share nothing.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager

# process exit codes: a passed run, a verdict that failed (distinct,
# unequal, inconclusive), and the three error kinds above
EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3
EXIT_INTERNAL_ERROR = 4

DEFAULT_MAX_TERMS = 100_000
DEFAULT_TIME_LIMIT_S = 60.0

_max_terms: int | None = None
_deadline: float | None = None
_table: dict | None = None


class ResourceCapError(RuntimeError):
    """A configured resource cap was exceeded."""


class InputError(ValueError):
    """A value the session (or its environment) wrote is not valid input."""


class CapSettingError(InputError):
    """A cap variable of the environment holds no valid value."""


def _env_cap(name: str, default, parse, what: str):
    text = os.environ.get(name)
    try:
        value = default if text is None else parse(text)
    except ValueError:
        value = math.nan
    if value != value or abs(value) == math.inf:  # NaN turns the deadline off
        raise CapSettingError(f"{name} must be {what}, got {text!r}")
    return value


@contextmanager
def command_caps():
    """Install the environment's caps for the duration of one command.

    The deadline poll counter restarts too, so whether a short command
    reads the clock does not depend on the commands before it, and the
    command gets an empty `command_table`."""
    global _max_terms, _deadline, _tick, _table
    old = (_max_terms, _deadline, _table)
    _tick = 0
    _table = {}
    try:
        _max_terms = _env_cap("STACKDUAL_MAX_TERMS", DEFAULT_MAX_TERMS, int,
                              "an integer")
        _deadline = time.monotonic() + _env_cap(
            "STACKDUAL_TIME_LIMIT_S", DEFAULT_TIME_LIMIT_S, float,
            "a finite number of seconds")
        yield
    finally:
        _max_terms, _deadline, _table = old


def command_table() -> dict:
    """The current command's table; a fresh dict outside a command."""
    return {} if _table is None else _table


def check_term_cap(nterms: int, what: str = "polynomial") -> None:
    if _max_terms is not None and nterms > _max_terms:
        raise ResourceCapError(f"{what} exceeds {_max_terms} terms")


_tick = 0


def check_deadline() -> None:
    # called from inner loops; only touch the clock now and then
    global _tick
    _tick += 1
    if _tick & 63:
        return
    if _deadline is not None and time.monotonic() > _deadline:
        raise ResourceCapError("command wall-clock limit exceeded")
