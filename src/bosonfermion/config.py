"""Run configuration shared by the command-line front end and the scripts.

A run is configured by its flags alone; a flag that is not given takes its
built-in default::

    --max-degree N        positive int     partition-size / degree cap (6)
    --charge-window LO:HI "lo:hi" or "k"   charge range, inclusive (-2:2)
    --index-window LO:HI  "lo:hi" or "k"   generator-index range (-4:4)
    --json                                 emit JSON instead of text
    --jobs K              positive int     parallel worker count (1)

A window needs integer ends with ``lo <= hi``; a reversed window would
check nothing, so it is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_MAX_DEGREE = 6
DEFAULT_CHARGE_WINDOW = (-2, 2)
DEFAULT_INDEX_WINDOW = (-4, 4)
DEFAULT_JOBS = 1


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
    def resolve(command, args):
        """Read the parsed flags, each one's default where it is not given.

        ``args`` is any object with optional attributes ``max_degree``,
        ``charge_window``, ``index_window``, ``json`` and ``jobs`` (missing
        or ``None`` means "not given"); windows arrive as text.
        Raises ValueError on malformed values.
        """
        def pick(name, default, convert):
            flag = getattr(args, name, None)
            return default if flag is None else convert(flag)

        return RunConfig(
            command=command,
            max_degree=pick("max_degree", DEFAULT_MAX_DEGREE, int),
            charge_window=pick("charge_window", DEFAULT_CHARGE_WINDOW,
                               parse_window),
            index_window=pick("index_window", DEFAULT_INDEX_WINDOW,
                              parse_window),
            json_output=bool(getattr(args, "json", False)),
            jobs=pick("jobs", DEFAULT_JOBS, int),
        )
