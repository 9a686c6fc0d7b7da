// provbench — one workload of the provml benchmark per invocation:
//
//   provbench --workload serve_explore|serve_ingest|train_log --seed N
//             --seconds S --trace 0|1 --work-dir DIR --out-dir DIR
//
// Prints the run's phases, checks and metrics for the reader, then, as
// its last line, one JSON object {"correct","attempted","failed","metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when any correctness check failed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "report.hpp"

namespace perfbench {

const std::vector<LayerMetricSpec> kLayerMetrics = {
    {"net.rtt_us_p50", "us"},
    {"net.rtt_us_p99", "us"},
    {"net.handler_us_p50", "us"},
    {"net.handler_us_p99", "us"},
    {"net.loop_us_p50", "us"},
    {"net.loop_us_p99", "us"},
    {"net.reconciled_ratio", "ratio"},
    {"net.wakeups_per_req", "count"},
    {"net.conns_accepted", "count"},
    {"net.cache_hit_ratio", "ratio"},
    {"net.resp_bytes_p50", "B"},
    {"graphstore.get_doc_us_p50", "us"},
    {"graphstore.stats_us_p50", "us"},
    {"graphstore.element_us_p50", "us"},
    {"graphstore.subgraph_us_p50", "us"},
    {"graphstore.list_us_p50", "us"},
    {"graphstore.query_us_p50", "us"},
    {"graphstore.query_us_p99", "us"},
    {"graphstore.explain_us_p50", "us"},
    {"graphstore.query_page_us_p50", "us"},
    {"graphstore.put_us_p50", "us"},
    {"graphstore.delete_us_p50", "us"},
    {"graphstore.query_parse_us_p50", "us"},
    {"graphstore.query_plan_us_p50", "us"},
    {"graphstore.query_exec_us_p50", "us"},
    {"graphstore.query_rows_p50", "count"},
    {"graphstore.bulk_ingest_docs_per_s", "1/s"},
    {"graphstore.shard_write_skew", "ratio"},
    {"wal.appends_per_fsync", "ratio"},
    {"wal.fsync_us_mean", "us"},
    {"wal.bytes_per_append", "B"},
    {"wal.compactions", "count"},
    {"wal.append_us_p50", "us"},
    {"wal.append_us_p99", "us"},
    {"wal.recover_ms", "ms"},
    {"prov.parse_mb_per_s", "MB/s"},
    {"prov.write_mb_per_s", "MB/s"},
    {"core.log_block_us_p50", "us"},
    {"core.log_block_us_p99", "us"},
    {"core.finish_ms_p50", "ms"},
    {"core.stall_block_ratio", "ratio"},
    {"storage.append_ns_per_sample", "ns"},
    {"storage.flush_ms_p50", "ms"},
    {"storage.seal_ms_p50", "ms"},
    {"storage.bytes_per_sample", "B"},
    {"compress.encode_mb_per_s", "MB/s"},
    {"compress.ratio", "ratio"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.backlog_max", "count"},
    {"trace.overhead_ratio", "ratio"},
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

namespace {

/// Why a layer reports nothing on a workload.
std::string idle_reason(const std::string& workload, const std::string& metric) {
  return workload + " does not use the " + metric.substr(0, metric.find('.')) + " layer";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: provbench --workload serve_explore|serve_ingest|train_log --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage();
    }
  }
  const bool serve = args.workload == "serve_explore" || args.workload == "serve_ingest";
  if ((!serve && args.workload != "train_log") || args.seconds <= 0 || args.work_dir.empty() ||
      args.out_dir.empty()) {
    return usage();
  }
  std::filesystem::create_directories(args.work_dir);
  std::filesystem::create_directories(args.out_dir);

  std::printf("provbench %s seed %llu, %.0f s measured, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);
  Report report;
  if (serve) {
    run_serve(args, report);
  } else {
    run_train(args, report);
  }
  if (!args.trace) report.e2e("rss_peak_mb", peak_rss_mb(), "MB", 1);

  for (const std::string& n : report.notes()) std::printf("  %s\n", n.c_str());
  for (const std::string& f : report.failures()) std::printf("  CHECK FAILED: %s\n", f.c_str());
  const double failed_ratio =
      report.attempted() == 0 ? 0.0
                              : static_cast<double>(report.failed()) / report.attempted();
  std::printf("  ops_failed_ratio = %s (%llu failed of %llu attempted operations and checks)\n",
              number(failed_ratio).c_str(), static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  for (const Metric& m : report.detail()) {
    std::printf("  %s = %s %s (n=%zu)\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str(), m.samples);
  }

  std::string metrics;
  auto add = [&metrics](const std::string& name, double value, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit + "\"}";
  };
  if (!args.trace) {
    for (const Metric& m : report.e2e()) {
      std::printf("  e2e %s = %s %s (n=%zu)\n", m.name.c_str(), number(m.value).c_str(),
                  m.unit.c_str(), m.samples);
      add(m.name, m.value, m.unit);
    }
  } else {
    for (const Metric& m : report.e2e()) {
      std::printf("  traced e2e %s = %s %s (n=%zu)\n", m.name.c_str(), number(m.value).c_str(),
                  m.unit.c_str(), m.samples);
    }
    for (const LayerMetricSpec& spec : kLayerMetrics) {
      const Metric* found = nullptr;
      for (const Metric& m : report.layers()) {
        if (m.name == spec.name) found = &m;
      }
      const std::string reason = found == nullptr ? idle_reason(args.workload, spec.name)
                                                  : found->note;
      const double value = found == nullptr ? 0.0 : found->value;
      if (reason.empty()) {
        std::printf("  layer %s = %s %s (n=%zu)\n", spec.name, number(value).c_str(), spec.unit,
                    found->samples);
      } else {
        std::printf("  layer %s = 0 %s (not produced: %s)\n", spec.name, spec.unit,
                    reason.c_str());
      }
      add(spec.name, value, spec.unit);
    }
  }
  const bool correct = report.failures().empty() && report.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, report.attempted())),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
