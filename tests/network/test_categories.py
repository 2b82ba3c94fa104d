"""Unit tests for the road-category taxonomy."""


from repro.network import FREE_FLOW_SPEED_KMH, RoadCategory


class TestRoadCategory:
    def test_every_category_has_speed(self):
        for category in RoadCategory:
            assert category.free_flow_speed_kmh > 0
            assert FREE_FLOW_SPEED_KMH[category] == category.free_flow_speed_kmh

    def test_speeds_decrease_with_rank(self):
        speeds = [c.free_flow_speed_kmh for c in RoadCategory]
        assert speeds == sorted(speeds, reverse=True)

    def test_rank_ordering(self):
        assert RoadCategory.MOTORWAY.rank == 0
        assert RoadCategory.SERVICE.rank == len(RoadCategory) - 1
        assert RoadCategory.PRIMARY.rank < RoadCategory.RESIDENTIAL.rank

    def test_danish_speed_limits(self):
        assert RoadCategory.MOTORWAY.free_flow_speed_kmh == 110.0
        assert RoadCategory.PRIMARY.free_flow_speed_kmh == 80.0
        assert RoadCategory.RESIDENTIAL.free_flow_speed_kmh == 40.0
