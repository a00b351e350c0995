#include "report/svg_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "report/svg_util.hpp"

namespace nustencil::report {

std::string render_svg(const ChartSpec& spec) {
  NUSTENCIL_CHECK(!spec.x_ticks.empty(), "render_svg: need at least one x tick");
  NUSTENCIL_CHECK(!spec.series.empty(), "render_svg: need at least one series");
  for (const auto& s : spec.series)
    NUSTENCIL_CHECK(s.values.size() == spec.x_ticks.size(),
                    "render_svg: series '" + s.label + "' length mismatch");

  const double w = spec.width, h = spec.height;
  const double ml = 70, mr = 180, mt = 50, mb = 55;  // margins (legend right)
  const double pw = w - ml - mr, ph = h - mt - mb;

  double ymax = 0.0;
  for (const auto& s : spec.series)
    for (double v : s.values)
      if (std::isfinite(v)) ymax = std::max(ymax, v);
  if (ymax <= 0.0) ymax = 1.0;
  const double ystep = nice_step(ymax, 6);
  ymax = std::ceil(ymax / ystep) * ystep;

  const auto xpos = [&](std::size_t i) {
    return spec.x_ticks.size() == 1
               ? ml + pw / 2
               : ml + pw * static_cast<double>(i) /
                          static_cast<double>(spec.x_ticks.size() - 1);
  };
  const auto ypos = [&](double v) { return mt + ph * (1.0 - v / ymax); };

  std::ostringstream os;
  svg_begin(os, w, h);
  svg_title(os, ml + pw / 2, spec.title);

  // Grid + y axis.
  for (double v = 0.0; v <= ymax + 1e-9; v += ystep) {
    const double y = ypos(v);
    svg_line(os, ml, y, ml + pw, y, "#dddddd");
    svg_text(os, ml - 8, y + 4, "end", 11, fmt_num(v));
  }
  // X ticks.
  for (std::size_t i = 0; i < spec.x_ticks.size(); ++i) {
    const double x = xpos(i);
    svg_line(os, x, mt + ph, x, mt + ph + 5, "black");
    svg_text(os, x, mt + ph + 20, "middle", 11, spec.x_ticks[i]);
  }
  // Axes.
  svg_line(os, ml, mt, ml, mt + ph, "black");
  svg_line(os, ml, mt + ph, ml + pw, mt + ph, "black");
  axis_labels(os, ml, pw, h, mt, ph, spec.x_label, spec.y_label);

  // Series.
  for (std::size_t k = 0; k < spec.series.size(); ++k) {
    const auto& s = spec.series[k];
    const char* color = palette_color(k);
    std::ostringstream points;
    bool first = true;
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      if (!std::isfinite(s.values[i])) continue;
      points << (first ? "" : " ") << xpos(i) << ',' << ypos(s.values[i]);
      first = false;
    }
    os << "<polyline fill='none' stroke='" << color << "' stroke-width='2' points='"
       << points.str() << "'/>\n";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      if (!std::isfinite(s.values[i])) continue;
      os << "<circle cx='" << xpos(i) << "' cy='" << ypos(s.values[i])
         << "' r='3.2' fill='" << color << "'/>\n";
    }
    legend_entry(os, ml + pw + 14, mt + 14 + static_cast<double>(k) * 18, color,
                 s.label, /*line=*/true);
  }
  svg_end(os);
  return os.str();
}

void write_svg(const ChartSpec& spec, const std::string& path) {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "write_svg: cannot open " + path);
  out << render_svg(spec);
  NUSTENCIL_CHECK(out.good(), "write_svg: write failed for " + path);
}

std::string render_heatmap_svg(const HeatmapSpec& spec) {
  const std::size_t cols = spec.x_ticks.size();
  const std::size_t rows = spec.y_ticks.size();
  NUSTENCIL_CHECK(rows > 0 && cols > 0,
                  "render_heatmap_svg: need at least one row and column");
  NUSTENCIL_CHECK(spec.values.size() == rows * cols,
                  "render_heatmap_svg: values size != rows x cols");

  const double cs = spec.cell_size;
  const double ml = 90, mt = 50, mr = 30, mb = 60;
  const double pw = cs * static_cast<double>(cols);
  const double ph = cs * static_cast<double>(rows);
  const double w = ml + pw + mr, h = mt + ph + mb;

  double vmax = 0.0;
  for (double v : spec.values)
    if (std::isfinite(v))
      vmax = std::max(vmax, v);

  std::ostringstream os;
  svg_begin(os, w, h);
  svg_title(os, ml + pw / 2, spec.title);

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = spec.values[r * cols + c];
      // White-to-blue ramp; NaN cells stay light grey.
      std::string fill = "#eeeeee";
      if (std::isfinite(v) && vmax > 0.0) {
        const double t = v / vmax;
        const int red = static_cast<int>(std::lround(255 - 224 * t));
        const int green = static_cast<int>(std::lround(255 - 136 * t));
        char buf[8];
        std::snprintf(buf, sizeof buf, "#%02x%02xff", red, green);
        fill = buf;
      }
      const double x = ml + cs * static_cast<double>(c);
      const double y = mt + cs * static_cast<double>(r);
      svg_rect(os, x, y, cs - 1, cs - 1, fill);
      if (std::isfinite(v)) {
        const bool dark = vmax > 0.0 && v / vmax > 0.6;
        os << "<text x='" << x + cs / 2 << "' y='" << y + cs / 2 + 4
           << "' text-anchor='middle' font-family='sans-serif' font-size='11'"
           << (dark ? " fill='white'" : "") << '>'
           << svg_escape(fmt_num(v) + spec.unit) << "</text>\n";
      }
    }
  }
  for (std::size_t c = 0; c < cols; ++c)
    svg_text(os, ml + cs * (static_cast<double>(c) + 0.5), mt + ph + 18,
             "middle", 11, spec.x_ticks[c]);
  for (std::size_t r = 0; r < rows; ++r)
    svg_text(os, ml - 8, mt + cs * (static_cast<double>(r) + 0.5) + 4, "end",
             11, spec.y_ticks[r]);
  axis_labels(os, ml, pw, h, mt, ph, spec.x_label, spec.y_label);
  svg_end(os);
  return os.str();
}

std::string render_stacked_bars_svg(const StackedBarSpec& spec) {
  NUSTENCIL_CHECK(!spec.x_ticks.empty(),
                  "render_stacked_bars_svg: need at least one x tick");
  NUSTENCIL_CHECK(!spec.segments.empty(),
                  "render_stacked_bars_svg: need at least one segment");
  for (const auto& s : spec.segments)
    NUSTENCIL_CHECK(s.values.size() == spec.x_ticks.size(),
                    "render_stacked_bars_svg: segment '" + s.label +
                        "' length mismatch");

  const double w = spec.width, h = spec.height;
  const double ml = 70, mr = 180, mt = 50, mb = 55;
  const double pw = w - ml - mr, ph = h - mt - mb;
  const std::size_t n = spec.x_ticks.size();

  const auto seg_value = [&](std::size_t k, std::size_t i) {
    const double v = spec.segments[k].values[i];
    return std::isfinite(v) && v > 0.0 ? v : 0.0;
  };

  double ymax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::size_t k = 0; k < spec.segments.size(); ++k)
      total += seg_value(k, i);
    ymax = std::max(ymax, total);
  }
  if (ymax <= 0.0) ymax = 1.0;
  const double ystep = nice_step(ymax, 6);
  ymax = std::ceil(ymax / ystep) * ystep;
  const auto ypos = [&](double v) { return mt + ph * (1.0 - v / ymax); };

  std::ostringstream os;
  svg_begin(os, w, h);
  svg_title(os, ml + pw / 2, spec.title);

  for (double v = 0.0; v <= ymax + 1e-9; v += ystep) {
    const double y = ypos(v);
    svg_line(os, ml, y, ml + pw, y, "#dddddd");
    svg_text(os, ml - 8, y + 4, "end", 11, fmt_num(v));
  }

  const double slot = pw / static_cast<double>(n);
  const double bar = slot * 0.64;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = ml + slot * (static_cast<double>(i) + 0.5);
    double base = 0.0;
    for (std::size_t k = 0; k < spec.segments.size(); ++k) {
      const double v = seg_value(k, i);
      if (v <= 0.0) continue;
      svg_rect(os, x - bar / 2, ypos(base + v), bar, ypos(base) - ypos(base + v),
               palette_color(k));
      base += v;
    }
    svg_text(os, x, mt + ph + 20, "middle", 11, spec.x_ticks[i]);
  }

  svg_line(os, ml, mt, ml, mt + ph, "black");
  svg_line(os, ml, mt + ph, ml + pw, mt + ph, "black");
  axis_labels(os, ml, pw, h, mt, ph, spec.x_label, spec.y_label);

  for (std::size_t k = 0; k < spec.segments.size(); ++k)
    legend_entry(os, ml + pw + 14, mt + 14 + static_cast<double>(k) * 18,
                 palette_color(k), spec.segments[k].label, /*line=*/false);
  svg_end(os);
  return os.str();
}

std::string render_scatter_svg(const ScatterSpec& spec) {
  NUSTENCIL_CHECK(!spec.class_labels.empty(),
                  "render_scatter_svg: need at least one class label");
  for (const ScatterPoint& p : spec.points)
    NUSTENCIL_CHECK(p.cls >= 0 &&
                        p.cls < static_cast<int>(spec.class_labels.size()),
                    "render_scatter_svg: point class out of range");

  const double w = spec.width, h = spec.height;
  const double ml = 70, mr = 180, mt = 50, mb = 55;
  const double pw = w - ml - mr, ph = h - mt - mb;

  double xmax = 0.0, ymax = 0.0;
  for (const ScatterPoint& p : spec.points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) continue;
    xmax = std::max(xmax, p.x);
    ymax = std::max(ymax, p.y);
  }
  if (xmax <= 0.0) xmax = 1.0;
  if (ymax <= 0.0) ymax = 1.0;
  const double xstep = nice_step(xmax, 8);
  const double ystep = nice_step(ymax, 6);
  xmax = std::ceil(xmax / xstep) * xstep;
  ymax = std::ceil(ymax / ystep) * ystep;

  const auto xpos = [&](double v) { return ml + pw * v / xmax; };
  const auto ypos = [&](double v) { return mt + ph * (1.0 - v / ymax); };

  std::ostringstream os;
  svg_begin(os, w, h);
  svg_title(os, ml + pw / 2, spec.title);

  // Grid + y axis.
  for (double v = 0.0; v <= ymax + 1e-9; v += ystep) {
    const double y = ypos(v);
    svg_line(os, ml, y, ml + pw, y, "#dddddd");
    svg_text(os, ml - 8, y + 4, "end", 11, fmt_num(v));
  }
  // X ticks.
  for (double v = 0.0; v <= xmax + 1e-9; v += xstep) {
    const double x = xpos(v);
    svg_line(os, x, mt + ph, x, mt + ph + 5, "black");
    svg_text(os, x, mt + ph + 20, "middle", 11, fmt_num(v));
  }
  // Axes.
  svg_line(os, ml, mt, ml, mt + ph, "black");
  svg_line(os, ml, mt + ph, ml + pw, mt + ph, "black");
  axis_labels(os, ml, pw, h, mt, ph, spec.x_label, spec.y_label);

  for (const ScatterPoint& p : spec.points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) continue;
    os << "<circle cx='" << xpos(p.x) << "' cy='" << ypos(p.y)
       << "' r='3.2' fill='" << palette_color(static_cast<std::size_t>(p.cls))
       << "' fill-opacity='0.7'/>\n";
  }

  for (std::size_t k = 0; k < spec.class_labels.size(); ++k)
    legend_entry(os, ml + pw + 14, mt + 14 + static_cast<double>(k) * 18,
                 palette_color(k), spec.class_labels[k], /*line=*/false);
  svg_end(os);
  return os.str();
}

}  // namespace nustencil::report
