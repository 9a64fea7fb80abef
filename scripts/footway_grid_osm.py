"""Write a synthetic OpenStreetMap extract: a footway grid with a house in every other block.

    python scripts/footway_grid_osm.py --cols 80 --rows 80 ci-out/grid_80x80.osm
    scenesim import ci-out/grid_80x80.osm ci-out/grid_80x80.json --center 0 0 --radius 2000

The grid has ``cols x rows`` nodes ``SPACING_M`` metres apart, centred on
(lon 0, lat 0), and a footway along every row and every column.  A square
house outline sits in each block whose column and row are both even, so
80 x 80 nodes give 6,400 path nodes and 1,600 houses: enough for the
importer's nearest-node search to show how it scales.  The extract is a
function of its arguments alone.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

from scenesim.osm import EARTH_RADIUS_M

DEG_PER_M = math.degrees(1.0 / EARTH_RADIUS_M)  # at the equator
SPACING_M = 20.0


def footway_grid_osm(cols: int, rows: int) -> str:
    """The extract's XML text."""
    spacing = SPACING_M
    x0, y0 = -(cols - 1) * spacing / 2, -(rows - 1) * spacing / 2
    parts = ['<?xml version="1.0"?>\n<osm version="0.6">']

    def node(nid: int, x: float, y: float):
        parts.append(f'<node id="{nid}" lon="{x * DEG_PER_M:.12f}" '
                     f'lat="{y * DEG_PER_M:.12f}"/>')

    def way(wid: int, refs, key: str, value: str):
        nds = "".join(f'<nd ref="{r}"/>' for r in refs)
        parts.append(f'<way id="{wid}">{nds}<tag k="{key}" v="{value}"/></way>')

    def grid_id(c: int, r: int) -> int:
        return 1 + r * cols + c

    for r in range(rows):
        for c in range(cols):
            node(grid_id(c, r), x0 + c * spacing, y0 + r * spacing)
    next_id = cols * rows + 1
    for r in range(rows):
        way(next_id, [grid_id(c, r) for c in range(cols)], "highway", "footway")
        next_id += 1
    for c in range(cols):
        way(next_id, [grid_id(c, r) for r in range(rows)], "highway", "footway")
        next_id += 1
    # a house a quarter block across, off the block's centre
    side = spacing / 4
    for r in range(0, rows - 1, 2):
        for c in range(0, cols - 1, 2):
            x, y = x0 + (c + 0.3) * spacing, y0 + (r + 0.4) * spacing
            corners = list(range(next_id, next_id + 4))
            for nid, (dx, dy) in zip(corners, ((0, 0), (side, 0), (side, side), (0, side))):
                node(nid, x + dx, y + dy)
            way(next_id + 4, corners + corners[:1], "building", "house")
            next_id += 5
    parts.append("</osm>\n")
    return "\n".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output")
    parser.add_argument("--cols", type=int, default=80)
    parser.add_argument("--rows", type=int, default=80)
    args = parser.parse_args()
    Path(args.output).write_text(footway_grid_osm(args.cols, args.rows))


if __name__ == "__main__":
    main()
