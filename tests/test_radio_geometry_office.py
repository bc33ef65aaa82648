"""Tests for geometry primitives and the office layout."""

import pytest

from repro.radio.geometry import Point, interpolate
from repro.radio.office import OfficeLayout, Sensor, Workstation, paper_office


class TestGeometry:
    def test_point_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_point_translation(self):
        p = Point(1.0, 2.0).translated(0.5, -0.5)
        assert (p.x, p.y) == (1.5, 1.5)

    def test_point_unpacking(self):
        x, y = Point(3.0, 7.0)
        assert (x, y) == (3.0, 7.0)

    def test_interpolate_endpoints_and_midpoint(self):
        a, b = Point(0, 0), Point(2, 2)
        assert interpolate(a, b, 0.0) == a
        assert interpolate(a, b, 1.0) == b
        assert interpolate(a, b, 0.5) == Point(1, 1)

    def test_interpolate_clamps_fraction(self):
        a, b = Point(0, 0), Point(1, 0)
        assert interpolate(a, b, -1.0) == a
        assert interpolate(a, b, 2.0) == b


class TestOfficeLayout:
    def test_paper_office_has_nine_sensors_three_workstations(self, layout):
        assert len(layout.sensors) == 9
        assert len(layout.workstations) == 3
        assert layout.sensor_ids == [f"d{i}" for i in range(1, 10)]
        assert layout.workstation_ids == ["w1", "w2", "w3"]

    def test_paper_office_dimensions(self, layout):
        assert layout.width == pytest.approx(6.0)
        assert layout.height == pytest.approx(3.0)

    def test_everything_inside_the_office(self, layout):
        for sensor in layout.sensors:
            assert layout.contains(sensor.position)
        for ws in layout.workstations:
            assert layout.contains(ws.position)
            assert layout.contains(ws.seat_position)
        assert layout.contains(layout.door)

    def test_sensor_lookup(self, layout):
        assert layout.sensor("d5").sensor_id == "d5"
        with pytest.raises(KeyError):
            layout.sensor("d42")

    def test_workstation_lookup(self, layout):
        assert layout.workstation("w2").workstation_id == "w2"
        with pytest.raises(KeyError):
            layout.workstation("w9")

    def test_with_sensors_subsets(self, layout):
        sub = layout.with_sensors(["d1", "d2", "d3"])
        assert sub.sensor_ids == ["d1", "d2", "d3"]
        assert sub.workstation_ids == layout.workstation_ids

    def test_duplicate_sensor_ids_rejected(self):
        with pytest.raises(ValueError):
            OfficeLayout(
                width=4,
                height=3,
                sensors=(
                    Sensor("d1", Point(1, 1)),
                    Sensor("d1", Point(2, 2)),
                ),
                workstations=(Workstation("w1", Point(1, 2)),),
                door=Point(0.1, 0.1),
            )

    def test_sensor_outside_office_rejected(self):
        with pytest.raises(ValueError):
            OfficeLayout(
                width=4,
                height=3,
                sensors=(Sensor("d1", Point(10, 1)),),
                workstations=(Workstation("w1", Point(1, 2)),),
                door=Point(0.1, 0.1),
            )

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            OfficeLayout(
                width=0,
                height=3,
                sensors=(Sensor("d1", Point(0, 0)),),
                workstations=(),
                door=Point(0, 0),
            )

    def test_workstation_seat_defaults_to_desk_position(self):
        ws = Workstation("w1", Point(1, 1))
        assert ws.seat_position == Point(1, 1)

    def test_workstations_to_door_distances_are_plausible(self, layout):
        # The paper reports an average seat-to-door walk of roughly 4 m.
        distances = [
            w.seat_position.distance_to(layout.door) for w in layout.workstations
        ]
        assert all(1.5 < d < 6.5 for d in distances)
        assert sum(distances) / len(distances) > 2.5
