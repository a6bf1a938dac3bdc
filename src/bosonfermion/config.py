"""Run configuration shared by the command-line front end and the scripts.

A value is looked up in three places, most specific first:

1. an explicit command-line flag,
2. an environment variable (``BOSONFERMION_*``, listed below),
3. the built-in default.

Environment variables::

    BOSONFERMION_MAX_DEGREE     positive int     partition-size / degree cap
    BOSONFERMION_CHARGE_WINDOW  "lo:hi" or "k"   charge range, inclusive
    BOSONFERMION_INDEX_WINDOW   "lo:hi" or "k"   generator-index range
    BOSONFERMION_JSON           1/true/yes       emit JSON instead of text
    BOSONFERMION_JOBS           positive int     parallel worker count

A window needs integer ends with ``lo <= hi``; a reversed window would
check nothing, so it is refused.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_PREFIX = "BOSONFERMION_"

DEFAULT_MAX_DEGREE = 6
DEFAULT_CHARGE_WINDOW = (-2, 2)
DEFAULT_INDEX_WINDOW = (-4, 4)
DEFAULT_JOBS = 1

_TRUTHY = {"1", "true", "yes", "on"}


def parse_window(text):
    """Parse an inclusive integer window.

    ``lo:hi`` gives the explicit range; a single integer ``k`` abbreviates
    the symmetric window ``-k:k`` (handy because values starting with a
    dash need the ``--flag=lo:hi`` spelling on the command line).
    """
    parts = str(text).split(":")
    try:
        if len(parts) == 1:
            k = abs(int(parts[0]))
            return (-k, k)
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ValueError(f"window bounds must be integers, got {text!r}") from exc
    raise ValueError(f"window must look like 'lo:hi' or 'k', got {text!r}")


def _env(env, key):
    return env.get(ENV_PREFIX + key)


def _env_flag(env, key):
    raw = _env(env, key)
    return raw is not None and raw.strip().lower() in _TRUTHY


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on; equal configs give equal output."""

    command: str
    max_degree: int = DEFAULT_MAX_DEGREE
    charge_window: tuple = DEFAULT_CHARGE_WINDOW
    index_window: tuple = DEFAULT_INDEX_WINDOW
    json_output: bool = False
    jobs: int = DEFAULT_JOBS

    def __post_init__(self):
        if self.max_degree <= 0:
            raise ValueError("max_degree must be positive")
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        for name, w in (("charge", self.charge_window),
                        ("index", self.index_window)):
            lo, hi = w
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise ValueError(f"window bounds must be integers, got {w!r}")
            if lo > hi:
                raise ValueError(f"{name} window {lo}:{hi} is reversed")

    def to_json_obj(self):
        """The parameters that determine the run's mathematical content.

        Execution mechanics (the worker count) are excluded on purpose:
        two runs with equal output from this method must produce
        byte-identical reports.
        """
        return {
            "command": self.command,
            "max_degree": self.max_degree,
            "charge_window": list(self.charge_window),
            "index_window": list(self.index_window),
        }

    @staticmethod
    def resolve(command, args, env=None):
        """Merge parsed CLI flags over environment variables over defaults.

        ``args`` is any object with optional attributes ``max_degree``,
        ``charge_window``, ``index_window``, ``json`` and ``jobs`` (missing
        or ``None`` means "not given").
        Raises ValueError on malformed values.
        """
        env = os.environ if env is None else env

        def pick(flag_name, env_key, default, convert):
            flag = getattr(args, flag_name, None)
            if flag is not None:
                return convert(flag)
            raw = _env(env, env_key)
            if raw is not None:
                return convert(raw)
            return default

        max_degree = pick("max_degree", "MAX_DEGREE", DEFAULT_MAX_DEGREE, int)
        charge_window = pick("charge_window", "CHARGE_WINDOW",
                             DEFAULT_CHARGE_WINDOW, _as_window)
        index_window = pick("index_window", "INDEX_WINDOW",
                            DEFAULT_INDEX_WINDOW, _as_window)
        jobs = pick("jobs", "JOBS", DEFAULT_JOBS, int)
        json_output = bool(getattr(args, "json", False)) or \
            _env_flag(env, "JSON")
        return RunConfig(
            command=command,
            max_degree=max_degree,
            charge_window=charge_window,
            index_window=index_window,
            json_output=json_output,
            jobs=jobs,
        )


def _as_window(value):
    if isinstance(value, tuple):
        return value
    return parse_window(value)
