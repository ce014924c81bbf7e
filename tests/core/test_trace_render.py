"""Unit tests for the ASCII renderer."""

from repro.core import Message, RMBConfig, RMBRing
from repro.core.trace_render import glyph_for, render_grid, render_ring
from repro.core.segments import SegmentGrid


def test_glyphs_stable_and_distinct():
    assert glyph_for(0) == "0"
    assert glyph_for(10) == "a"
    assert glyph_for(0) != glyph_for(1)
    assert glyph_for(62) == glyph_for(0)  # modulo wrap is documented


def test_render_grid_shows_occupancy():
    grid = SegmentGrid(4, 2)
    grid.claim(1, 1, 0)
    text = render_grid(grid)
    lines = text.splitlines()
    assert "top" in lines[1]
    assert "0" in lines[1]          # glyph for bus 0 on the top lane row
    assert lines[2].count(".") == 4  # bottom lane empty


def test_render_grid_highlight():
    grid = SegmentGrid(4, 2)
    grid.claim(0, 0, 5)
    text = render_grid(grid, highlight=5)
    assert "*" in text


def test_render_ring_lists_live_buses():
    ring = RMBRing(RMBConfig(nodes=8, lanes=3), seed=0)
    ring.submit(Message(0, 0, 4, data_flits=30))
    ring.run(4)
    text = render_ring(ring)
    assert "live buses:" in text
    assert "0->4" in text
    ring.drain()
    assert "live buses: none" in render_ring(ring)
