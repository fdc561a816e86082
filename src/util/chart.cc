#include "util/chart.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/logging.h"

namespace duet {

std::string render_chart(const std::vector<Series>& series, const ChartOptions& options) {
  DUET_CHECK(options.width >= 8 && options.height >= 3) << "chart too small";

  // Bounds over all visible points.
  double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
  double ymin = std::numeric_limits<double>::infinity(), ymax = -ymin;
  for (const auto& s : series) {
    for (const auto& [x, y] : s.points) {
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      if (y >= 0) {
        ymin = std::min(ymin, y);
        ymax = std::max(ymax, y);
      }
    }
  }
  if (!(xmin < xmax)) xmax = xmin + 1;
  if (!(ymin < ymax)) ymax = ymin + 1;
  if (options.log_y) ymin = std::max(ymin, ymax * 1e-6);

  const auto y_to_row = [&](double y) -> std::ptrdiff_t {
    double f;
    if (options.log_y) {
      f = (std::log(std::max(y, ymin)) - std::log(ymin)) / (std::log(ymax) - std::log(ymin));
    } else {
      f = (y - ymin) / (ymax - ymin);
    }
    f = std::clamp(f, 0.0, 1.0);
    return static_cast<std::ptrdiff_t>(std::llround((1.0 - f) * (options.height - 1)));
  };
  const auto x_to_col = [&](double x) {
    const double f = std::clamp((x - xmin) / (xmax - xmin), 0.0, 1.0);
    return static_cast<std::size_t>(std::llround(f * (options.width - 1)));
  };

  std::vector<std::string> grid(options.height, std::string(options.width, ' '));
  for (const auto& s : series) {
    for (const auto& [x, y] : s.points) {
      const std::size_t col = x_to_col(x);
      if (y < 0) {
        // Gap marker at the bottom row: an availability hole.
        grid[options.height - 1][col] = 'x';
      } else {
        grid[y_to_row(y)][col] = s.glyph;
      }
    }
  }

  // Assemble with a labelled frame.
  std::string out;
  char buf[64];
  const auto axis_value = [&](double f) {
    if (options.log_y) return std::exp(std::log(ymin) + f * (std::log(ymax) - std::log(ymin)));
    return ymin + f * (ymax - ymin);
  };
  for (std::size_t row = 0; row < options.height; ++row) {
    const double f = 1.0 - static_cast<double>(row) / (options.height - 1);
    if (row == 0 || row == options.height - 1 || row == options.height / 2) {
      std::snprintf(buf, sizeof(buf), "%10.3g |", axis_value(f));
    } else {
      std::snprintf(buf, sizeof(buf), "%10s |", "");
    }
    out += buf;
    out += grid[row];
    out += '\n';
  }
  out += std::string(11, ' ') + '+' + std::string(options.width, '-') + '\n';
  std::snprintf(buf, sizeof(buf), "%10s  %-10.4g", "", xmin);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%*.4g", static_cast<int>(options.width - 12), xmax);
  out += buf;
  if (!options.x_label.empty() || !options.y_label.empty()) {
    out += '\n';
    out.append(12, ' ');
    out += options.x_label;
    if (!options.y_label.empty()) {
      out += "   [y: ";
      out += options.y_label;
      out += ']';
    }
  }
  // Legend.
  if (series.size() > 1 || !series.empty()) {
    out += '\n';
    out.append(12, ' ');
    for (const auto& s : series) {
      out += "(";
      out += s.glyph;
      out += ") ";
      out += s.name;
      out += "  ";
    }
    out += "(x) lost";
  }
  return out;
}

}  // namespace duet
