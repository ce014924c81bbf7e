"""ASCII rendering of RMB state — the textual equivalent of the paper's
Figures 2, 3 and 5.

The renderer draws the ``k x N`` segment array with the top lane first
(matching the paper's orientation: new requests enter at the top, and
compaction packs buses toward the bottom).  Each occupied segment shows the
id of its virtual bus modulo 62 as an alphanumeric glyph, so distinct
concurrent buses are visually distinct.
"""

from __future__ import annotations

from typing import Optional

from repro.core.network import RMBRing
from repro.core.segments import SegmentGrid
from repro.core.status import PortHealth

_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def glyph_for(bus_id: int) -> str:
    """Stable single-character label for a bus id."""
    return _GLYPHS[bus_id % len(_GLYPHS)]


def render_grid(grid: SegmentGrid, highlight: Optional[int] = None) -> str:
    """Draw the occupancy of every segment, top lane first.

    Faulty segments are drawn with their health, not their occupant:
    ``X`` for DEAD, ``x`` for DYING-and-free; a DYING segment whose bus
    has not evacuated yet keeps the bus glyph so the evacuation is
    visible frame to frame.

    Args:
        grid: the segment grid.
        highlight: optionally a bus id to draw as ``*`` instead of its
            glyph, making one bus easy to follow in a busy picture.
    """
    lines = []
    header = "lane  " + " ".join(f"{seg:>2}" for seg in range(grid.nodes))
    lines.append(header)
    for lane in range(grid.lanes - 1, -1, -1):
        cells = []
        for segment in range(grid.nodes):
            occupant = grid.occupant(segment, lane)
            health = grid.health(segment, lane)
            if health is PortHealth.DEAD:
                cells.append(" X")
            elif occupant is None:
                cells.append(" x" if health is PortHealth.DYING else " .")
            elif highlight is not None and occupant == highlight:
                cells.append(" *")
            else:
                cells.append(" " + glyph_for(occupant))
        tag = "top" if lane == grid.lanes - 1 else "   "
        lines.append(f"{lane:>3} {tag}" + "".join(cells))
    return "\n".join(lines)


def render_ring(ring: RMBRing) -> str:
    """Grid picture plus a one-line summary of every live bus."""
    parts = [f"t={ring.sim.now:.1f}  cycle={ring.cycle_count()}"]
    parts.append(render_grid(ring.grid))
    live = [bus for bus in ring.buses.values() if bus.alive]
    if live:
        parts.append("live buses:")
        parts.extend(f"  {glyph_for(bus.bus_id)} {bus.describe()}"
                     for bus in sorted(live, key=lambda b: b.bus_id))
    else:
        parts.append("live buses: none")
    return "\n".join(parts)

