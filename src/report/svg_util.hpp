// Shared SVG building blocks for the chart and dashboard renderers:
// escaping, number formatting, the categorical palette, tick-step
// selection, and the header/axis/legend fragments every chart emits.
// Kept in one place so the figure charts and the run-report panels agree
// on style.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>

namespace nustencil::report {

/// Escapes `text` for SVG/XML text content and single-quoted attributes.
std::string svg_escape(const std::string& text);

/// A "nice" tick step (1/2/5 x 10^k) covering `span` with ~n ticks.
double nice_step(double span, int n);

/// Short numeric label (4 significant digits).
std::string fmt_num(double v);

inline constexpr std::size_t kPaletteSize = 10;

/// The categorical colour of series/class `i` (wraps past kPaletteSize).
const char* palette_color(std::size_t i);

/// `<svg ...>` opener with viewBox plus a white background rect.
void svg_begin(std::ostream& os, double width, double height);
void svg_end(std::ostream& os);

/// Centred 15px chart title near the top edge.
void svg_title(std::ostream& os, double cx, const std::string& title);

/// Sans-serif text at (x, y); `anchor` is "start", "middle" or "end".
/// A non-empty `transform` is passed through verbatim.
void svg_text(std::ostream& os, double x, double y, const char* anchor,
              int font_size, const std::string& text,
              const std::string& transform = "");

void svg_line(std::ostream& os, double x1, double y1, double x2, double y2,
              const std::string& stroke, double stroke_width = 1.0);

void svg_rect(std::ostream& os, double x, double y, double w, double h,
              const std::string& fill);

/// One legend entry at (x, y): a line sample when `line`, else a colour
/// swatch, followed by the label.
void legend_entry(std::ostream& os, double x, double y, const char* color,
                  const std::string& label, bool line);

/// The x-axis label centred under a plot of width `pw` starting at `ml`,
/// and (when non-empty) the y-axis label rotated at the left edge beside
/// a plot of height `ph` starting at `mt`.  `h_total` is the full
/// document height.
void axis_labels(std::ostream& os, double ml, double pw, double h_total,
                 double mt, double ph, const std::string& x_label,
                 const std::string& y_label);

}  // namespace nustencil::report
