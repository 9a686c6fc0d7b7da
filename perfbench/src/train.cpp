// train_log: the yProv4ML library the way a training job uses it. A
// seeded sweep of runs, each logging the Table 1 payload (ten series of
// one value per step) with epochs and params, streamed (kStream) into a
// durable zarr store; Run::finish() then writes the PROV-JSON. No sysmon
// sampler runs, so nothing but the logging path is measured.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "inputs.hpp"
#include "provml/compress/codec.hpp"
#include "provml/compress/container.hpp"
#include "provml/core/run.hpp"
#include "provml/json/parse.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/storage/store.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace core = provml::core;
namespace storage = provml::storage;
namespace prov = provml::prov;

namespace {

constexpr std::size_t kSteps = 50000;      ///< per series and run
constexpr std::size_t kDistinctRuns = 4;   ///< seeded value sets, cycled over the sweep
constexpr std::size_t kMinRuns = 4;
constexpr std::size_t kBlockCalls = 1024;  ///< log_metric calls per timed block (one flush chunk)
constexpr std::size_t kEpochs = 10;

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// Sum in logging order: equal sums (bit for bit) mean the store gave
/// back the logged values in the logged order, with overwhelming odds.
double checksum(const std::vector<double>& values) {
  double s = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) s += values[i] * static_cast<double>(i % 7 + 1);
  return s;
}

struct RunResult {
  std::vector<double> block_us;
  double finish_ms = 0.0;
  double wall_s = 0.0;
  double reload_ms = 0.0;  ///< MetricStore::read of the finished run's store
  std::uint64_t bytes = 0;
  prov::Document document;
  std::string provjson;
};

RunResult log_one_run(const std::vector<std::vector<double>>& values, std::size_t steps,
                      const std::string& dir, std::size_t index, std::uint64_t seed,
                      Tracer* tracer, Report& report) {
  RunResult out;
  core::RunOptions options;
  options.provenance_dir = dir;
  options.metric_store = "zarr";
  options.sync_mode = core::MetricSyncMode::kStream;
  options.collect_system_metrics = false;
  core::Experiment experiment("sweep");

  const bool tracing = tracer != nullptr && tracer->enabled();
  const std::uint64_t run_id = tracing ? tracer->next_id() : 0;
  const std::int64_t run_start = now_ns();
  core::Run& run = experiment.start_run(options, "run_" + std::to_string(index));
  run.log_param("learning_rate", values[2][0]);
  run.log_param("batch_size", static_cast<std::int64_t>(32 << (seed % 4)));
  run.log_param("epochs", static_cast<std::int64_t>(kEpochs));
  run.log_param("optimizer", std::string(index % 2 == 0 ? "adamw" : "sgd"));
  run.log_param("seed", static_cast<std::int64_t>(seed));

  const std::size_t per_epoch = steps / kEpochs;
  std::size_t calls = 0;
  std::int64_t block_start = now_ns();
  for (std::size_t i = 0; i < steps; ++i) {
    if (i % per_epoch == 0) {
      const int epoch = static_cast<int>(i / per_epoch);
      if (epoch > 0) {
        for (const char* c : {core::contexts::kTraining, core::contexts::kValidation,
                              core::contexts::kTesting}) {
          run.end_epoch(c, epoch - 1);
        }
      }
      for (const char* c : {core::contexts::kTraining, core::contexts::kValidation,
                            core::contexts::kTesting}) {
        run.begin_epoch(c, epoch);
      }
    }
    const auto step = static_cast<std::int64_t>(i);
    for (std::size_t s = 0; s < kSeriesCount; ++s) {
      run.log_metric(kSeries[s].name, values[s][i], step, kSeries[s].context, kSeries[s].unit);
      if (++calls % kBlockCalls == 0) {
        const std::int64_t end = now_ns();
        out.block_us.push_back(static_cast<double>(end - block_start) * 1e-3);
        if (tracing) {
          tracer->record(Span{"core.log_block", tracer->next_id(), run_id, run_id, block_start,
                              end});
        }
        block_start = end;
      }
    }
  }
  for (const char* c : {core::contexts::kTraining, core::contexts::kValidation,
                        core::contexts::kTesting}) {
    run.end_epoch(c, static_cast<int>(kEpochs) - 1);
  }
  const std::int64_t finish_start = now_ns();
  provml::Status finished;
  {
    const ScopedSpan span(tracer, "core.finish", run_id, run_id);
    finished = run.finish();
  }
  const std::int64_t run_end = now_ns();
  if (tracing) tracer->record(Span{"core.run", run_id, 0, run_id, run_start, run_end});
  out.finish_ms = static_cast<double>(run_end - finish_start) * 1e-6;
  out.wall_s = static_cast<double>(run_end - run_start) * 1e-9;
  report.count_ops(1, finished.ok() ? 0 : 1);
  if (!finished.ok()) {
    report.fail("Run::finish: " + finished.error().to_string());
    return out;
  }

  // Correctness, untimed: the store reads back every series with the
  // logged count and values; the PROV document validates.
  std::size_t bad = 0;
  const auto store = storage::StoreRegistry::global().create("zarr");
  const std::int64_t read_start = now_ns();
  const auto set = store->read(run.metric_store_path());
  out.reload_ms = static_cast<double>(now_ns() - read_start) * 1e-6;
  if (!set.ok()) {
    ++bad;
    report.fail("zarr store does not read back: " + set.error().to_string());
  } else {
    for (std::size_t s = 0; s < kSeriesCount; ++s) {
      const storage::MetricSeries* series = set.value().find(kSeries[s].name, kSeries[s].context);
      std::vector<double> got;
      if (series != nullptr) {
        for (const auto& sample : series->samples) got.push_back(sample.value);
      }
      const std::vector<double> logged(values[s].begin(), values[s].begin() + steps);
      if (got.size() != steps || checksum(got) != checksum(logged)) {
        ++bad;
        report.fail(std::string("series ") + kSeries[s].context + "/" + kSeries[s].name +
                    " reads back " + std::to_string(got.size()) + " samples or other values");
      }
    }
  }
  const auto problems = run.document().validate();
  if (!problems.empty()) {
    ++bad;
    report.fail("PROV document does not validate: " + problems.front());
  }
  const auto text = provml::compress::read_file_bytes(run.provenance_path());
  if (!text.ok()) {
    ++bad;
    report.fail("PROV-JSON file missing: " + run.provenance_path());
  } else {
    out.provjson.assign(text.value().begin(), text.value().end());
  }
  report.count_ops(kSeriesCount + 1, bad);
  out.document = run.document();
  out.bytes = dir_bytes(dir);
  return out;
}

double mb_per_s(std::size_t bytes, std::int64_t ns) {
  return ns <= 0 ? 0.0 : static_cast<double>(bytes) / 1e6 / (static_cast<double>(ns) * 1e-9);
}

/// MetricSink and the chunk codec on their own: the run's samples
/// replayed into MetricStore::open_sink with the Run's SinkOptions, in
/// the order the Run's flusher hands them over (per chunk: declare,
/// append_block, flush), then seal; and the f64 column codec on every
/// chunk-sized payload.
void storage_layers(const std::vector<std::vector<std::vector<double>>>& runs,
                    const std::string& dir, Report& report) {
  const auto store = storage::StoreRegistry::global().create("zarr");
  std::int64_t append_ns = 0;
  std::size_t samples = 0;
  std::uint64_t bytes = 0;
  std::vector<double> flush_ms, seal_ms;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::string path = dir + "/replay_" + std::to_string(r) + store->path_suffix();
    auto sink = store->open_sink(path, {.durable = true, .chunk_length = kBlockCalls});
    if (!sink.ok()) {
      report.fail("open_sink: " + sink.error().to_string());
      return;
    }
    for (std::size_t begin = 0; begin < kSteps; begin += kBlockCalls) {
      const std::size_t n = std::min(kBlockCalls, kSteps - begin);
      for (std::size_t s = 0; s < kSeriesCount; ++s) {
        std::vector<storage::MetricSample> chunk(n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto step = static_cast<std::int64_t>(begin + i);
          chunk[i] = {step, 1735689600000 + step * 250, runs[r][s][begin + i]};
        }
        const auto id = sink.value()->declare_series(kSeries[s].name, kSeries[s].context,
                                                     kSeries[s].unit);
        std::int64_t t0 = now_ns();
        provml::Status st = sink.value()->append_block(id.value(), chunk.data(), n);
        const std::int64_t t1 = now_ns();
        if (st.ok()) st = sink.value()->flush();
        const std::int64_t t2 = now_ns();
        append_ns += t1 - t0;
        samples += n;
        flush_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
        if (!st.ok()) report.fail("sink append/flush: " + st.error().to_string());
      }
    }
    const std::int64_t t0 = now_ns();
    const provml::Status sealed = sink.value()->seal();
    seal_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (!sealed.ok()) report.fail("sink seal: " + sealed.error().to_string());
    const auto size = store->size_on_disk(path);
    if (size.ok()) bytes += size.value();
  }
  report.layer("storage.append_ns_per_sample",
               samples == 0 ? 0.0 : static_cast<double>(append_ns) / static_cast<double>(samples),
               samples);
  report.layer("storage.flush_ms_p50", median(flush_ms), flush_ms.size());
  report.layer("storage.seal_ms_p50", median(seal_ms), seal_ms.size());
  report.layer("storage.bytes_per_sample",
               samples == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(samples),
               samples);

  // The zarr f64 column codec on one run's chunk payloads.
  const auto codec = provml::compress::CodecRegistry::global().create("shuffle+lzss");
  std::size_t raw = 0, packed = 0, chunks = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t s = 0; s < kSeriesCount; ++s) {
    for (std::size_t begin = 0; begin < kSteps; begin += kBlockCalls) {
      const std::size_t n = std::min(kBlockCalls, kSteps - begin);
      const auto out = codec->encode(provml::compress::ByteView(
          reinterpret_cast<const std::uint8_t*>(runs[0][s].data() + begin), n * sizeof(double)));
      raw += n * sizeof(double);
      packed += out.size();
      ++chunks;
    }
  }
  report.layer("compress.encode_mb_per_s", mb_per_s(raw, now_ns() - t0), chunks);
  report.layer("compress.ratio", packed == 0 ? 0.0 : static_cast<double>(raw) / packed, chunks);
}

}  // namespace

void run_train(const Args& args, Report& report) {
  const std::string dir = args.work_dir + "/train";
  // Set-up: the sweep's metric values, generated from the seed, timed
  // several times; the last set is kept.
  std::vector<std::vector<std::vector<double>>> values;
  std::vector<double> setup_s;
  for (int i = 0; i < 9; ++i) {
    values.clear();
    const std::int64_t t0 = now_ns();
    for (std::size_t r = 0; r < kDistinctRuns; ++r) {
      values.push_back(make_metric_values(args.seed, r, kSteps));
    }
    fs::create_directories(dir);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  report.e2e("setup_s", median(setup_s), "s", setup_s.size());
  report.note("set-up: " + std::to_string(kDistinctRuns) + " seeded runs of " +
              std::to_string(kSeriesCount) + " series x " + std::to_string(kSteps) +
              " steps, zarr store, sync_mode kStream, flush chunk " +
              std::to_string(kBlockCalls) + ", no sysmon sampler");

  // Warm-up: one run, not measured (first-touch of the codec pool, the
  // allocator and the store directory).
  Tracer tracer(args.trace);
  (void)log_one_run(values[0], kSteps / 10, dir + "/warmup", 0, args.seed, nullptr, report);

  // The sweep: runs until the measured time is up (at least kMinRuns).
  // A traced run measures its first half untraced and its second half
  // traced, so the two can be compared.
  std::vector<RunResult> untraced, traced;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t k = 0;; ++k) {
    const bool trace_this = args.trace && now_ns() >= start + (deadline - start) / 2 &&
                            untraced.size() >= kMinRuns / 2;
    RunResult r = log_one_run(values[k % kDistinctRuns], kSteps, dir + "/run_" + std::to_string(k),
                              k, args.seed, trace_this ? &tracer : nullptr, report);
    (trace_this ? traced : untraced).push_back(std::move(r));
    const std::size_t needed_traced = args.trace ? kMinRuns / 2 : 0;
    if (now_ns() >= deadline && untraced.size() + traced.size() >= kMinRuns &&
        traced.size() >= needed_traced) {
      break;
    }
  }

  struct SweepSummary {
    Summary blocks;
    std::vector<double> finish, rate, reload;
    std::uint64_t bytes = 0;
  };
  auto summarize_runs = [](const std::vector<RunResult>& runs) {
    SweepSummary s;
    std::vector<double> all;
    for (const RunResult& r : runs) {
      all.insert(all.end(), r.block_us.begin(), r.block_us.end());
      s.finish.push_back(r.finish_ms);
      s.rate.push_back(static_cast<double>(kSteps * kSeriesCount) / r.wall_s);
      s.reload.push_back(r.reload_ms);
      s.bytes += r.bytes;
    }
    s.blocks = summarize(all);
    return s;
  };
  const SweepSummary sweep = summarize_runs(args.trace ? traced : untraced);
  const Summary& blocks = sweep.blocks;
  const std::vector<double>& finish = sweep.finish;
  const auto runs = static_cast<double>(args.trace ? traced.size() : untraced.size());
  report.note("sweep: " + std::to_string(untraced.size()) + " untraced and " +
              std::to_string(traced.size()) + " traced runs of " +
              std::to_string(kSteps * kSeriesCount) + " log_metric calls each");
  report.count_ops(static_cast<std::uint64_t>(blocks.count), 0);

  report.e2e("reload_ms", median(sweep.reload), "ms", sweep.reload.size());
  if (!args.trace) {
    report.detail("log_block_us_p50", blocks.p50, "us", blocks.count);
    report.detail("log_block_us_p99", blocks.p99, "us", blocks.count);
    report.detail("finish_ms_p50", median(finish), "ms", finish.size());
    report.detail("samples_per_s", median(sweep.rate), "1/s", sweep.rate.size());
    report.detail("store_bytes_per_sample",
                  static_cast<double>(sweep.bytes) / (runs * kSteps * kSeriesCount), "B",
                  static_cast<std::size_t>(runs));
    return;
  }

  // ---------------------------------------------------------- traced run
  const Summary plain = summarize_runs(untraced).blocks;
  report.layer("trace.overhead_ratio", plain.p50 > 0 ? blocks.p50 / plain.p50 : 0.0,
               blocks.count);
  report.note("tracing overhead: untraced log block p50 " + std::to_string(plain.p50) +
              " us; traced " + std::to_string(blocks.p50) + " us");
  report.layer("core.log_block_us_p50", blocks.p50, blocks.count);
  report.layer("core.log_block_us_p99", blocks.p99, blocks.count);
  report.layer("core.finish_ms_p50", median(finish), finish.size());
  std::size_t stalls = 0;
  const std::vector<Span> spans = tracer.spans_named("core.log_block");
  std::vector<double> span_us;
  for (const Span& s : spans) span_us.push_back(static_cast<double>(s.duration_ns()) * 1e-3);
  const double med = median(span_us);
  for (const double b : span_us) stalls += b > 10.0 * med ? 1 : 0;
  report.layer("core.stall_block_ratio",
               span_us.empty() ? 0.0 : static_cast<double>(stalls) / span_us.size(),
               span_us.size());

  // prov: writing the run documents, and parsing the files finish() wrote.
  std::size_t written = 0, parsed = 0;
  std::int64_t t0 = now_ns();
  for (const RunResult& r : traced) written += prov::to_prov_json_string(r.document, true).size();
  report.layer("prov.write_mb_per_s", mb_per_s(written, now_ns() - t0), traced.size());
  t0 = now_ns();
  for (const RunResult& r : traced) {
    const auto v = provml::json::parse(r.provjson);
    if (v.ok()) (void)prov::from_prov_json(v.value());
    parsed += r.provjson.size();
  }
  report.layer("prov.parse_mb_per_s", mb_per_s(parsed, now_ns() - t0), traced.size());

  std::vector<std::vector<std::vector<double>>> replay(values.begin(), values.begin() + 3);
  storage_layers(replay, dir, report);
  if (!tracer.write_jsonl(args.out_dir + "/spans-" + args.workload + "-seed" +
                          std::to_string(args.seed) + ".jsonl")) {
    report.fail("cannot write the span file");
  }
}

}  // namespace perfbench
