#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  s.p99 = percentile(values, 0.99);
  s.p50 = percentile(std::move(values), 0.5);
  return s;
}

double interpolate_max_rate(const std::vector<Rung>& rungs, double limit_ms) {
  if (rungs.empty()) return 0.0;
  const auto fail = std::find_if(rungs.begin(), rungs.end(),
                                 [](const Rung& r) { return !r.passed; });
  if (fail == rungs.end()) return rungs.back().rate;
  if (fail == rungs.begin()) {
    const double scale = fail->p99_ms > limit_ms ? limit_ms / fail->p99_ms : 1.0;
    return fail->rate * scale;
  }
  const Rung& r1 = *(fail - 1);
  const Rung& r2 = *fail;
  if (r2.p99_ms <= limit_ms || r1.p99_ms <= 0.0 || r2.p99_ms <= r1.p99_ms) return r1.rate;
  const double p1 = std::min(r1.p99_ms, limit_ms);
  const double x = (std::log(limit_ms) - std::log(p1)) / (std::log(r2.p99_ms) - std::log(p1));
  return std::exp(std::log(r1.rate) + std::clamp(x, 0.0, 1.0) *
                                          (std::log(r2.rate) - std::log(r1.rate)));
}

}  // namespace perfbench
