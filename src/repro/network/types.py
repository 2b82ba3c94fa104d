"""Value types for the road-network model: vertices, edges and edge pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .categories import RoadCategory

__all__ = ["Vertex", "Edge", "EdgePair"]


@dataclass(frozen=True, slots=True)
class Vertex:
    """A road-network vertex (intersection or way shape point).

    Coordinates are planar metres in a local projection (synthetic networks)
    or projected lon/lat (OSM import); all distance computations in the
    library treat them as Euclidean metres.
    """

    id: int
    x: float
    y: float

    def distance_to(self, other: "Vertex") -> float:
        """Euclidean distance in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed road segment.

    Attributes
    ----------
    id:
        Dense integer identifier, unique within a network.
    source, target:
        Vertex identifiers.
    length:
        Segment length in metres.
    category:
        Functional road class (drives the free-flow speed).
    """

    id: int
    source: int
    target: int
    length: float
    category: RoadCategory = RoadCategory.TERTIARY

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"edge {self.id}: length must be positive, got {self.length}")

    @property
    def free_flow_speed(self) -> float:
        """Free-flow speed in metres per second."""
        return self.category.free_flow_speed_kmh / 3.6

    @property
    def free_flow_time(self) -> float:
        """Free-flow traversal time in seconds."""
        return self.length / self.free_flow_speed


@dataclass(frozen=True, slots=True)
class EdgePair:
    """Two consecutive edges sharing an intersection (``first.target ==
    second.source``) — the unit the paper's estimation model is trained on."""

    first: Edge
    second: Edge

    def __post_init__(self) -> None:
        if self.first.target != self.second.source:
            raise ValueError(
                f"edges {self.first.id}->{self.second.id} are not consecutive: "
                f"{self.first.target} != {self.second.source}"
            )

    @property
    def intersection(self) -> int:
        """Vertex id of the shared intersection."""
        return self.first.target
