#include "ui/summary.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace pb::ui {

namespace {

/// The glyph grid's size in cells.
constexpr size_t kGridWidth = 24;
constexpr size_t kGridHeight = 12;

/// Mean/variance/correlation helpers over per-package dimension values.
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v), s = 0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double Correlation(const std::vector<double>& a, const std::vector<double>& b) {
  double ma = Mean(a), mb = Mean(b), cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va <= 0 || vb <= 0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace

int PackageSpaceSummary::NearestPackage(double x, double y) const {
  if (points.empty()) return -1;
  // Normalize by the axis spans so both dimensions weigh equally.
  double xs = x_max > x_min ? x_max - x_min : 1.0;
  double ys = y_max > y_min ? y_max - y_min : 1.0;
  int best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < points.size(); ++i) {
    double dx = (points[i].first - x) / xs;
    double dy = (points[i].second - y) / ys;
    double d = dx * dx + dy * dy;
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::string PackageSpaceSummary::Render(int highlight_package) const {
  std::string out;
  out += y_dim.label + " ^\n";
  std::pair<size_t, size_t> mark{SIZE_MAX, SIZE_MAX};
  auto cell_of = [&](size_t i) -> std::pair<size_t, size_t> {
    double xs = x_max > x_min ? x_max - x_min : 1.0;
    double ys = y_max > y_min ? y_max - y_min : 1.0;
    size_t cx = std::min(grid_width - 1,
                         static_cast<size_t>((points[i].first - x_min) / xs *
                                             static_cast<double>(grid_width)));
    size_t cy = std::min(grid_height - 1,
                         static_cast<size_t>((points[i].second - y_min) / ys *
                                             static_cast<double>(grid_height)));
    return {cx, cy};
  };
  if (highlight_package >= 0 &&
      static_cast<size_t>(highlight_package) < points.size()) {
    mark = cell_of(static_cast<size_t>(highlight_package));
  }
  for (size_t gy = grid_height; gy-- > 0;) {
    out += "  |";
    for (size_t gx = 0; gx < grid_width; ++gx) {
      if (mark.first == gx && mark.second == gy) {
        out += '@';
        continue;
      }
      int c = grid[gy * grid_width + gx];
      if (c == 0) out += '.';
      else if (c <= 9) out += static_cast<char>('0' + c);
      else out += '*';
    }
    out += "\n";
  }
  out += "  +" + std::string(grid_width, '-') + "> " + x_dim.label + "\n";
  return out;
}

Result<PackageSpaceSummary> SummarizePackageSpace(
    const paql::AnalyzedQuery& aq, const std::vector<core::Package>& packages) {
  // Candidate dimensions: every canonical aggregate of the query; COUNT(*)
  // is always available as a fallback axis.
  std::vector<SummaryDimension> dims;
  for (const paql::AggCall& agg : aq.aggs) {
    SummaryDimension d;
    d.label = agg.ToString();
    d.agg.func = agg.func;
    d.agg.arg = agg.arg ? agg.arg->Clone() : nullptr;
    dims.push_back(std::move(d));
  }
  bool have_count = false;
  for (const auto& d : dims) {
    if (d.agg.func == db::AggFunc::kCount && !d.agg.arg) have_count = true;
  }
  if (!have_count) {
    SummaryDimension d;
    d.label = "COUNT(*)";
    d.agg.func = db::AggFunc::kCount;
    dims.push_back(std::move(d));
  }

  // Evaluate every dimension for every package.
  std::vector<std::vector<double>> values(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    values[d].reserve(packages.size());
    for (const core::Package& pkg : packages) {
      PB_ASSIGN_OR_RETURN(db::Value v,
                          core::EvalPackageAgg(dims[d].agg, *aq.table, pkg));
      double x = 0.0;
      if (v.is_numeric()) {
        PB_ASSIGN_OR_RETURN(x, v.ToDouble());
      }
      values[d].push_back(x);
    }
  }

  // Normalized variance score; pick the top axis, then the axis with the
  // best spread x (1 - |correlation|) tradeoff.
  auto norm_var = [&](size_t d) {
    double m = Mean(values[d]);
    double scale = std::max(1.0, std::abs(m));
    return Variance(values[d]) / (scale * scale);
  };
  size_t x_dim = 0;
  double best = -1.0;
  for (size_t d = 0; d < dims.size(); ++d) {
    if (norm_var(d) > best) {
      best = norm_var(d);
      x_dim = d;
    }
  }
  size_t y_dim = x_dim == 0 && dims.size() > 1 ? 1 : 0;
  best = -1.0;
  for (size_t d = 0; d < dims.size(); ++d) {
    if (d == x_dim) continue;
    double score =
        norm_var(d) * (1.0 - std::abs(Correlation(values[x_dim], values[d])));
    if (score > best) {
      best = score;
      y_dim = d;
    }
  }
  if (dims.size() == 1) y_dim = x_dim;

  PackageSpaceSummary out;
  out.x_dim.label = dims[x_dim].label;
  out.x_dim.agg.func = dims[x_dim].agg.func;
  out.x_dim.agg.arg =
      dims[x_dim].agg.arg ? dims[x_dim].agg.arg->Clone() : nullptr;
  out.y_dim.label = dims[y_dim].label;
  out.y_dim.agg.func = dims[y_dim].agg.func;
  out.y_dim.agg.arg =
      dims[y_dim].agg.arg ? dims[y_dim].agg.arg->Clone() : nullptr;
  out.grid_width = kGridWidth;
  out.grid_height = kGridHeight;
  out.grid.assign(kGridWidth * kGridHeight, 0);

  out.points.reserve(packages.size());
  for (size_t i = 0; i < packages.size(); ++i) {
    out.points.emplace_back(values[x_dim][i], values[y_dim][i]);
  }
  if (!out.points.empty()) {
    out.x_min = out.x_max = out.points[0].first;
    out.y_min = out.y_max = out.points[0].second;
    for (auto& [x, y] : out.points) {
      out.x_min = std::min(out.x_min, x);
      out.x_max = std::max(out.x_max, x);
      out.y_min = std::min(out.y_min, y);
      out.y_max = std::max(out.y_max, y);
    }
    double xs = out.x_max > out.x_min ? out.x_max - out.x_min : 1.0;
    double ys = out.y_max > out.y_min ? out.y_max - out.y_min : 1.0;
    for (auto& [x, y] : out.points) {
      size_t gx = std::min(
          out.grid_width - 1,
          static_cast<size_t>((x - out.x_min) / xs *
                              static_cast<double>(out.grid_width)));
      size_t gy = std::min(
          out.grid_height - 1,
          static_cast<size_t>((y - out.y_min) / ys *
                              static_cast<double>(out.grid_height)));
      ++out.grid[gy * out.grid_width + gx];
    }
  }
  return out;
}

}  // namespace pb::ui
