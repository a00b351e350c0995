// SVG chart renderer: structure, scaling, escaping, error handling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "report/svg_chart.hpp"

namespace nustencil::report {
namespace {

ChartSpec demo() {
  ChartSpec c;
  c.title = "demo";
  c.x_label = "cores";
  c.y_label = "Gup/s";
  c.x_ticks = {"1", "2", "4"};
  c.series = {{"a", {0.1, 0.2, 0.3}}, {"b", {0.3, 0.2, 0.1}}};
  return c;
}

std::size_t count(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(SvgChart, ContainsOnePolylinePerSeries) {
  const std::string svg = render_svg(demo());
  EXPECT_EQ(count(svg, "<polyline"), 2u);
  EXPECT_EQ(count(svg, "<circle"), 6u);  // one marker per point
  EXPECT_NE(svg.find("demo"), std::string::npos);
  EXPECT_NE(svg.find("Gup/s"), std::string::npos);
  EXPECT_NE(svg.find(">4<"), std::string::npos);  // x tick label
}

TEST(SvgChart, WellFormedDocument) {
  const std::string svg = render_svg(demo());
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_EQ(count(svg, "<svg"), 1u);
}

TEST(SvgChart, NanValuesProduceGaps) {
  ChartSpec c = demo();
  c.series = {{"gappy", {0.1, std::nan(""), 0.3}}};
  const std::string svg = render_svg(c);
  EXPECT_EQ(count(svg, "<circle"), 2u);  // NaN point omitted
}

TEST(SvgChart, TitleIsEscaped) {
  ChartSpec c = demo();
  c.title = "a < b & c";
  const std::string svg = render_svg(c);
  EXPECT_NE(svg.find("a &lt; b &amp; c"), std::string::npos);
  EXPECT_EQ(svg.find("a < b"), std::string::npos);
}

TEST(SvgChart, HigherValueDrawsHigher) {
  // y grows downward in SVG: the larger value must have the smaller cy.
  ChartSpec c = demo();
  c.series = {{"s", {0.1, 0.9, 0.1}}};
  const std::string svg = render_svg(c);
  std::vector<double> cys;
  for (std::size_t pos = svg.find("cy='"); pos != std::string::npos;
       pos = svg.find("cy='", pos + 4))
    cys.push_back(std::atof(svg.c_str() + pos + 4));
  ASSERT_EQ(cys.size(), 3u);
  EXPECT_LT(cys[1], cys[0]);
  EXPECT_LT(cys[1], cys[2]);
}

TEST(SvgChart, SingleTickCentres) {
  ChartSpec c = demo();
  c.x_ticks = {"32"};
  c.series = {{"s", {0.5}}};
  EXPECT_NO_THROW(render_svg(c));
}

TEST(SvgChart, MismatchedSeriesLengthThrows) {
  ChartSpec c = demo();
  c.series[0].values.pop_back();
  EXPECT_THROW(render_svg(c), nustencil::Error);
}

TEST(SvgChart, EmptyInputsThrow) {
  ChartSpec c = demo();
  c.x_ticks.clear();
  EXPECT_THROW(render_svg(c), nustencil::Error);
  ChartSpec d = demo();
  d.series.clear();
  EXPECT_THROW(render_svg(d), nustencil::Error);
}

TEST(SvgChart, WriteSvgBadPathThrows) {
  EXPECT_THROW(write_svg(demo(), "/nonexistent-dir/x.svg"), nustencil::Error);
}

TEST(SvgChart, AllZeroSeriesStillRenders) {
  ChartSpec c = demo();
  c.series = {{"zero", {0.0, 0.0, 0.0}}};
  EXPECT_NO_THROW(render_svg(c));
}

HeatmapSpec heatmap_demo() {
  HeatmapSpec h;
  h.title = "traffic";
  h.x_label = "owner";
  h.y_label = "consumer";
  h.x_ticks = {"0", "1"};
  h.y_ticks = {"0", "1"};
  h.values = {4.0, 0.0, 1.0, 3.0};
  return h;
}

TEST(SvgHeatmap, OneCellPerMatrixEntry) {
  const std::string svg = render_heatmap_svg(heatmap_demo());
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Background + 4 cells.
  EXPECT_EQ(count(svg, "<rect"), 5u);
  EXPECT_NE(svg.find("consumer"), std::string::npos);
  EXPECT_NE(svg.find(">4<"), std::string::npos);  // in-cell value label
}

TEST(SvgHeatmap, MaxValueCellIsDarkest) {
  // The 4.0 cell saturates the ramp (t = 1: #1f77ff); zero stays white.
  const std::string svg = render_heatmap_svg(heatmap_demo());
  EXPECT_NE(svg.find("#1f77ff"), std::string::npos);
  EXPECT_NE(svg.find("#ffffff"), std::string::npos);
}

TEST(SvgHeatmap, SizeMismatchThrows) {
  HeatmapSpec h = heatmap_demo();
  h.values.pop_back();
  EXPECT_THROW(render_heatmap_svg(h), nustencil::Error);
  HeatmapSpec empty;
  EXPECT_THROW(render_heatmap_svg(empty), nustencil::Error);
}

StackedBarSpec bars_demo() {
  StackedBarSpec b;
  b.title = "phases";
  b.x_label = "thread";
  b.y_label = "seconds";
  b.x_ticks = {"0", "1"};
  b.segments = {{"compute", {0.5, 0.4}}, {"wait", {0.1, 0.2}}};
  return b;
}

TEST(SvgStackedBars, OneRectPerPositiveSegment) {
  const std::string svg = render_stacked_bars_svg(bars_demo());
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  // Background + 4 bar segments + 2 legend swatches.
  EXPECT_EQ(count(svg, "<rect"), 7u);
  EXPECT_NE(svg.find("compute"), std::string::npos);
}

TEST(SvgStackedBars, NanAndZeroSegmentsAreSkipped) {
  StackedBarSpec b = bars_demo();
  b.segments = {{"only", {0.5, std::nan("")}}, {"zero", {0.0, 0.0}}};
  const std::string svg = render_stacked_bars_svg(b);
  // Background + 1 drawn segment + 2 legend swatches.
  EXPECT_EQ(count(svg, "<rect"), 4u);
}

TEST(SvgStackedBars, MismatchedSegmentLengthThrows) {
  StackedBarSpec b = bars_demo();
  b.segments[0].values.pop_back();
  EXPECT_THROW(render_stacked_bars_svg(b), nustencil::Error);
}

}  // namespace
}  // namespace nustencil::report
