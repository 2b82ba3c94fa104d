"""Road-category taxonomy.

Mirrors the OpenStreetMap ``highway=*`` classes the paper's Danish network is
built from.  Categories drive free-flow speeds in the traffic ground truth and
are features of the hybrid model's classifier and estimator.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["RoadCategory", "FREE_FLOW_SPEED_KMH"]


class RoadCategory(Enum):
    """Functional road class, ordered from highest to lowest capacity."""

    MOTORWAY = "motorway"
    TRUNK = "trunk"
    PRIMARY = "primary"
    SECONDARY = "secondary"
    TERTIARY = "tertiary"
    RESIDENTIAL = "residential"
    SERVICE = "service"

    @property
    def free_flow_speed_kmh(self) -> float:
        """Free-flow (speed-limit) travel speed in km/h."""
        return FREE_FLOW_SPEED_KMH[self]

    @property
    def rank(self) -> int:
        """0 for the highest-capacity class, increasing downwards."""
        return _RANK[self]


#: Free-flow speeds (km/h) per category — Danish speed limits.
FREE_FLOW_SPEED_KMH: dict[RoadCategory, float] = {
    RoadCategory.MOTORWAY: 110.0,
    RoadCategory.TRUNK: 90.0,
    RoadCategory.PRIMARY: 80.0,
    RoadCategory.SECONDARY: 60.0,
    RoadCategory.TERTIARY: 50.0,
    RoadCategory.RESIDENTIAL: 40.0,
    RoadCategory.SERVICE: 20.0,
}

_RANK: dict[RoadCategory, int] = {
    category: index for index, category in enumerate(RoadCategory)
}
