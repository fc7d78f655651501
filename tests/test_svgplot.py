"""The dependency-free SVG chart renderer."""

import xml.etree.ElementTree as ET

import pytest

from repro.utils.svgplot import LineChart, _nice_ticks


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestNiceTicks:
    def test_covers_range(self):
        ticks = _nice_ticks(0.3, 9.7)
        assert ticks[0] <= 0.3
        assert ticks[-1] >= 9.7

    def test_monotone(self):
        ticks = _nice_ticks(-5.0, 123.0)
        assert ticks == sorted(ticks)

    def test_degenerate_range(self):
        ticks = _nice_ticks(2.0, 2.0)
        assert len(ticks) >= 2

    @pytest.mark.parametrize("low,high", [(0, 1), (0, 0.07), (10, 1e6), (-3, 3)])
    def test_various_scales(self, low, high):
        ticks = _nice_ticks(low, high)
        assert 2 <= len(ticks) <= 12


class TestLineChart:
    def make(self):
        chart = LineChart("throughput", x_label="workers", y_label="mb/s")
        chart.add_series("dp", [(1, 1.0), (2, 1.5), (4, 1.8)])
        chart.add_series("pipedream", [(1, 1.0), (2, 2.0), (4, 3.9)])
        return chart

    def test_valid_xml(self):
        root = parse(self.make().to_svg())
        assert root.tag.endswith("svg")

    def test_one_polyline_per_series(self):
        root = parse(self.make().to_svg())
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_markers_per_point(self):
        root = parse(self.make().to_svg())
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 6

    def test_legend_labels_present(self):
        svg = self.make().to_svg()
        assert "dp" in svg and "pipedream" in svg

    def test_title_escaped(self):
        chart = LineChart("a < b & c")
        chart.add_series("s", [(0, 1), (1, 2)])
        root = parse(chart.to_svg())  # would raise on bad escaping
        assert root is not None

    def test_percent_axis(self):
        chart = LineChart("overhead", y_percent=True)
        chart.add_series("s", [(1, 0.1), (2, 0.9)])
        assert "%" in chart.to_svg()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LineChart("empty").to_svg()

    def test_save(self, tmp_path):
        path = self.make().save(str(tmp_path / "chart.svg"))
        parse(open(path).read())

    def test_higher_value_higher_on_screen(self):
        """SVG y grows downward: larger data y => smaller pixel y."""
        chart = LineChart("t")
        chart.add_series("s", [(0, 0.0), (1, 10.0)])
        root = parse(chart.to_svg())
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        y_low = float(circles[0].get("cy"))
        y_high = float(circles[1].get("cy"))
        assert y_high < y_low
