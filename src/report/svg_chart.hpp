// Dependency-free SVG line charts for the figure benches.
//
// Renders the paper's figure style: categorical x axis (core counts),
// Gupdates/s-per-core y axis starting at zero, one polyline + marker set
// per series, and a legend.  Output is a standalone .svg file.
#pragma once

#include <string>
#include <vector>

namespace nustencil::report {

struct Series {
  std::string label;
  std::vector<double> values;  ///< one per x tick; NaN = gap
};

struct ChartSpec {
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<std::string> x_ticks;
  std::vector<Series> series;
  int width = 760;
  int height = 480;
};

/// Renders the chart as a standalone SVG document.
std::string render_svg(const ChartSpec& spec);

/// Renders and writes to `path` (throws Error on I/O failure).
void write_svg(const ChartSpec& spec, const std::string& path);

/// A matrix heatmap (e.g. the node-to-node traffic matrix): one coloured
/// cell per (row, column) with the value printed inside, a white-to-blue
/// ramp scaled to the maximum, row/column tick labels and axis titles.
struct HeatmapSpec {
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<std::string> x_ticks;  ///< one per column
  std::vector<std::string> y_ticks;  ///< one per row
  std::vector<double> values;        ///< row-major, y_ticks.size() x x_ticks.size()
  std::string unit;                  ///< printed after the in-cell value
  int cell_size = 64;
};

/// Renders the heatmap as a standalone SVG document.
std::string render_heatmap_svg(const HeatmapSpec& spec);

/// Stacked vertical bars (e.g. per-thread phase seconds): one bar per x
/// tick, segments stacked bottom-to-top in `segments` order, a legend.
/// Segment k contributes segments[k].values[i] to bar i (NaN = 0).
struct StackedBarSpec {
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<std::string> x_ticks;
  std::vector<Series> segments;
  int width = 760;
  int height = 480;
};

/// Renders the stacked bars as a standalone SVG document.
std::string render_stacked_bars_svg(const StackedBarSpec& spec);

/// One point on a scatter plot, coloured by `cls` (an index into
/// ScatterSpec::class_labels).
struct ScatterPoint {
  double x = 0.0;
  double y = 0.0;
  int cls = 0;
};

/// A classed scatter plot (e.g. the per-span roofline: arithmetic
/// intensity vs achieved GFLOPS, coloured by straggler verdict).  Both
/// axes are linear and start at zero; non-finite points are skipped.
struct ScatterSpec {
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<std::string> class_labels;  ///< legend; colour = palette[cls]
  std::vector<ScatterPoint> points;
  int width = 760;
  int height = 480;
};

/// Renders the scatter plot as a standalone SVG document.
std::string render_scatter_svg(const ScatterSpec& spec);

}  // namespace nustencil::report
