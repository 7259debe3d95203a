"""Resource budgets, read from the JORDAN_LIMITS environment variable.

A computation that would exceed its budget raises ResourceLimitError
instead of running away; the CLI turns that into exit code 3.
"""

import os
from dataclasses import dataclass, fields


class ResourceLimitError(RuntimeError):
    """A computation would exceed its budget in Limits."""


@dataclass(frozen=True)
class Limits:
    max_pairs: int = 200_000
    max_terms: int = 100_000
    max_basis: int = 2_000
    max_points: int = 1_000_000
    max_dim: int = 24
    max_classify_dim: int = 5

    @classmethod
    def from_env(cls, env=None):
        """Parse JORDAN_LIMITS, e.g. `pairs=5000,terms=10000,points=100`."""
        text = (env if env is not None else os.environ).get("JORDAN_LIMITS", "")
        names = {f.name for f in fields(cls)}
        values = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            name = f"max_{key}"
            if name not in names or not (val.isascii() and val.isdigit()):
                raise ValueError(f"bad JORDAN_LIMITS entry {part!r}")
            values[name] = int(val)
        return cls(**values)


def check_points(count, what):
    """Raise ResourceLimitError when count exceeds the `points` limit.

    what describes the count, e.g. "G(2, 3) over F_3 has 13 points".
    """
    bound = Limits.from_env().max_points
    if count > bound:
        raise ResourceLimitError(
            f"{what}, above the bound {bound} "
            "(JORDAN_LIMITS points=N overrides it)")
