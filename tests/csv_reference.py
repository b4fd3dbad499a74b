"""The per-cell writer of the space-time CSV tables, kept as the reference for the compiled body.

`space_time_lines` is the line generator the CLI wrote `eigenfunction.csv`,
`dfe_orbit.csv` and `timeseries.csv` with before the compiled loop took
over (`steploop.space_time_csv`): the slices it picks and one `repr` per
number. `space_time_bytes` is the whole file it wrote, header included.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator

import numpy as np


def space_time_lines(times: Any, nodes: Any, *tables: Any) -> Iterator[str]:
    """CSV lines t,y,values... on about 64 evenly strided time slices.

    The node column is formatted once, and each time slice with one `repr`
    per value of its `tolist()`.
    """
    stride = max(1, (times.size - 1) // 64)
    ys = [repr(y) for y in np.asarray(nodes, dtype=float).tolist()]
    for k in range(0, times.size, stride):
        t = repr(float(times[k]))
        yield from map(",".join, zip(repeat(t), ys, *(map(repr, table[k].tolist()) for table in tables)))


def space_time_bytes(header: tuple[str, ...], times: Any, nodes: Any, *tables: Any) -> bytes:
    """The CSV file of `space_time_lines` under its header, '\\n' after every line."""
    return "".join(line + "\n" for line in (",".join(header), *space_time_lines(times, nodes, *tables))).encode()
