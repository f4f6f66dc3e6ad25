"""Physical units and conversion constants used throughout the library.

The paper mixes megabits per second (link bandwidths, the 3 Mb/s view
rate) with gigabytes (disk capacities).  To avoid unit bugs the whole
library standardises on:

* **time** — seconds
* **bandwidth** — megabits per second (Mb/s)
* **data size** — megabits (Mb)

Disk capacities quoted in gigabytes are converted with the decimal
convention (1 GB = 8000 Mb) which matches how storage vendors — and the
paper — count bytes.
"""

from __future__ import annotations

#: Megabits per decimal gigabyte (1 GB = 10**9 bytes = 8 * 10**3 Mb).
MB_PER_GB: float = 8000.0

#: Seconds per minute / hour, for readable workload definitions.
SECONDS_PER_MINUTE: float = 60.0
SECONDS_PER_HOUR: float = 3600.0

#: The paper's view (playback) bandwidth for all videos, Mb/s (Section 4.1).
DEFAULT_VIEW_BANDWIDTH: float = 3.0

#: Client receive-bandwidth cap used in the staging experiments, Mb/s
#: (Section 4.3: "we restrict the amount of bandwidth which can be used to
#: send data to a single client to 30 Mb per second").
DEFAULT_CLIENT_RECEIVE_BANDWIDTH: float = 30.0


def gb_to_mb(gigabytes: float) -> float:
    """Convert decimal gigabytes to megabits."""
    return gigabytes * MB_PER_GB


def mb_to_gb(megabits: float) -> float:
    """Convert megabits to decimal gigabytes."""
    return megabits / MB_PER_GB


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return value * SECONDS_PER_MINUTE


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return value * SECONDS_PER_HOUR
