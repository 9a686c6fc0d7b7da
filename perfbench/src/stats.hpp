// Order statistics and the max-rate ladder interpolation the benchmark
// reports. Kept free of any provml type so the arithmetic is tested on
// its own (provbench_selftest).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile by linear interpolation between closest ranks (the
/// "type 7" definition numpy and spreadsheets use): q = 0.5 is the
/// median, q = 0.99 the p99. Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Median and p99 of one sample, with its size. A p99 is only meaningful
/// from 1000 samples on (ten beyond it); callers print the count next to
/// it so the reader can judge.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);

/// One rung of the max-rate ladder: an offered rate and the p99 latency
/// (from due time) it produced. `passed` is decided by the caller: p99
/// within the limit and no growing backlog.
struct Rung {
  double rate = 0.0;
  double p99_ms = 0.0;
  bool passed = false;
};

/// Highest rate that meets `limit_ms`, from a ladder run bottom-up and
/// stopped at its first failing rung. Between the last passing rung
/// (r1, p1) and the first failing one (r2, p2) the rate is interpolated
/// in log-log space to where p99 crosses the limit:
///   log r = log r1 + (log r2 - log r1) * (log L - log p1) / (log p2 - log p1)
/// so the result moves continuously with the measurement instead of
/// snapping to a rung. A failing rung whose p99 is under the limit (it
/// failed on backlog) gives r1. No failing rung gives the top rung; a
/// failing first rung gives that rung scaled down by limit / p99.
[[nodiscard]] double interpolate_max_rate(const std::vector<Rung>& rungs, double limit_ms);

}  // namespace perfbench
