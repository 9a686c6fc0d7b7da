// What one benchmark run reports: the end-to-end metrics (untraced run),
// the per-layer metrics (traced run), the further detail printed for
// the reader, and every failed correctness check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch data (WAL dirs, run dirs); removed afterwards
  std::string out_dir;   ///< span files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< why a per-layer metric is 0 (not produced), else ""
};

/// Per-layer metric names and units. Every traced run reports all of
/// them; a layer the workload leaves idle reports 0 with the reason.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetricSpec> kLayerMetrics;

class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit, std::size_t samples) {
    e2e_.push_back({name, value, unit, samples, ""});
  }
  void detail(const std::string& name, double value, const std::string& unit,
              std::size_t samples) {
    detail_.push_back({name, value, unit, samples, ""});
  }
  void layer(const std::string& name, double value, std::size_t samples) {
    layers_.push_back({name, value, "", samples, ""});
  }
  void layer_na(const std::string& name, const std::string& reason) {
    layers_.push_back({name, 0.0, "", 0, reason});
  }
  void note(const std::string& line) { notes_.push_back(line); }
  void fail(const std::string& what) { failures_.push_back(what); }
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] const std::vector<Metric>& e2e() const { return e2e_; }
  [[nodiscard]] const std::vector<Metric>& detail() const { return detail_; }
  [[nodiscard]] const std::vector<Metric>& layers() const { return layers_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> detail_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set (VmHWM) of this process, MB.
[[nodiscard]] double peak_rss_mb();

void run_serve(const Args& args, Report& report);
void run_train(const Args& args, Report& report);

}  // namespace perfbench
