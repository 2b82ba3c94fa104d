"""OpenStreetMap XML import/export.

The paper builds its graph from the Danish OSM extract.  This module parses
the same ``.osm`` XML format (nodes + ways with ``highway`` tags) into a
:class:`~repro.network.RoadNetwork`, projecting WGS84 onto local planar
metres; and can write a network back out, which doubles as the synthetic-OSM
fixture generator for tests.

Only the structure routing needs is kept: drivable ways, one edge per
consecutive node pair, ``oneway`` handling, and category mapping from the
``highway`` tag (see :mod:`repro.network.categories`).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import IO

from .categories import OSM_HIGHWAY_TO_CATEGORY, RoadCategory
from .graph import RoadNetwork
from .spatial import haversine_m, project_equirectangular

__all__ = ["read_osm", "write_osm"]

_ONEWAY_TRUE = {"yes", "true", "1"}
_ONEWAY_REVERSE = {"-1", "reverse"}


def _way_tags(way: ET.Element) -> dict[str, str]:
    return {
        tag.get("k", ""): tag.get("v", "")
        for tag in way.findall("tag")
    }


def read_osm(source: str | Path | IO[bytes]) -> RoadNetwork:
    """Parse an OSM XML file into a road network.

    * Only ways carrying a recognised ``highway`` tag become edges.
    * Node coordinates are projected to planar metres around the extract's
      centroid; edge lengths use the haversine distance, so they are correct
      regardless of the projection.
    * ``oneway=yes`` produces a single directed edge, ``oneway=-1`` a single
      reversed edge, anything else both directions.
    * Duplicate edges between the same vertex pair (parallel ways) keep the
      first occurrence.
    """
    tree = ET.parse(source)
    root = tree.getroot()

    node_coords: dict[int, tuple[float, float]] = {}
    for node in root.iter("node"):
        node_id = int(node.get("id", "0"))
        node_coords[node_id] = (float(node.get("lat", "0")), float(node.get("lon", "0")))
    if not node_coords:
        raise ValueError("OSM file contains no nodes")

    lat0 = sum(lat for lat, _ in node_coords.values()) / len(node_coords)
    lon0 = sum(lon for _, lon in node_coords.values()) / len(node_coords)

    network = RoadNetwork()

    def ensure_vertex(node_id: int) -> None:
        if network.has_vertex(node_id):
            return
        lat, lon = node_coords[node_id]
        x, y = project_equirectangular(lat, lon, lat0=lat0, lon0=lon0)
        network.add_vertex(node_id, x, y)

    for way in root.iter("way"):
        tags = _way_tags(way)
        highway = tags.get("highway", "").strip().lower()
        if highway.endswith("_link"):
            highway = highway[: -len("_link")]
        if highway not in OSM_HIGHWAY_TO_CATEGORY:
            continue
        category = RoadCategory.from_osm_highway(highway)
        refs = [int(nd.get("ref", "0")) for nd in way.findall("nd")]
        refs = [ref for ref in refs if ref in node_coords]
        if len(refs) < 2:
            continue
        oneway = tags.get("oneway", "").strip().lower()
        if oneway in _ONEWAY_REVERSE:
            refs = list(reversed(refs))
            oneway = "yes"
        forward_only = oneway in _ONEWAY_TRUE
        for u, v in zip(refs, refs[1:]):
            if u == v:
                continue
            ensure_vertex(u)
            ensure_vertex(v)
            lat_u, lon_u = node_coords[u]
            lat_v, lon_v = node_coords[v]
            length = max(haversine_m(lat_u, lon_u, lat_v, lon_v), 1.0)
            if network.edge_between(u, v) is None:
                network.add_edge(u, v, length=length, category=category)
            if not forward_only and network.edge_between(v, u) is None:
                network.add_edge(v, u, length=length, category=category)
    return network


def write_osm(network: RoadNetwork, destination: str | Path) -> None:
    """Serialise a network as OSM XML (inverse of :func:`read_osm`).

    Planar coordinates are unprojected back to WGS84 around a fixed
    anchor in Denmark.  Each bidirectional vertex pair becomes two
    ``oneway=yes`` ways so the round trip is exact for any directed network.
    """
    import math

    root = ET.Element("osm", version="0.6", generator="repro")
    lat0, lon0 = 56.0, 10.0
    cos_lat0 = math.cos(math.radians(lat0))
    for vertex in network.vertices():
        lat = lat0 + math.degrees(vertex.y / 6_371_000.0)
        lon = lon0 + math.degrees(vertex.x / (6_371_000.0 * cos_lat0))
        ET.SubElement(
            root,
            "node",
            id=str(vertex.id),
            lat=f"{lat:.7f}",
            lon=f"{lon:.7f}",
        )
    for edge in network.edges:
        way = ET.SubElement(root, "way", id=str(edge.id + 1))
        ET.SubElement(way, "nd", ref=str(edge.source))
        ET.SubElement(way, "nd", ref=str(edge.target))
        ET.SubElement(way, "tag", k="highway", v=edge.category.value)
        ET.SubElement(way, "tag", k="oneway", v="yes")
    ET.ElementTree(root).write(destination, encoding="unicode", xml_declaration=True)
