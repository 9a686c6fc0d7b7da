// Ablation: graph sharding. Three questions the striped-lock design
// trades off:
//   1. Bulk ingest throughput vs shard count — how much does fanning
//      per-shard batches across the thread pool buy on a cold build?
//   2. Concurrent writer throughput vs shard count — with one stripe the
//      writers serialize; with N stripes writers to different documents
//      proceed in parallel.
//   3. Group-commit WAL appends vs writer count — concurrent appenders
//      share covering fsyncs, so fsyncs/append drops below 1.
// On a single-hardware-thread host the parallel paths degenerate to
// serial execution; the per-shard overhead they add is then the honest
// cost floor of the design (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "provml/graphstore/service.hpp"
#include "provml/prov/model.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/rng.hpp"
#include "provml/wal/record.hpp"
#include "provml/wal/wal.hpp"

namespace {

namespace fs = std::filesystem;
using namespace provml;

/// One deterministic corpus shared by every benchmark: 64 mid-sized PROV
/// documents whose names hash across any shard layout.
const std::vector<std::pair<std::string, prov::Document>>& corpus() {
  static const auto docs = [] {
    testkit::Rng rng(4242);
    testkit::ProvGenOptions opts;
    opts.max_elements = 12;
    opts.max_relations = 16;
    opts.with_bundles = false;
    std::vector<std::pair<std::string, prov::Document>> out;
    out.reserve(64);
    for (int i = 0; i < 64; ++i) {
      out.emplace_back("doc" + std::to_string(i), testkit::gen_prov_document(rng, opts));
    }
    return out;
  }();
  return docs;
}

/// Cold bulk build: fresh service per iteration, one put_documents call.
/// Shard count 1 is the pre-sharding baseline (single stripe, serial
/// apply); higher counts fan per-shard batches across the thread pool.
void BM_ShardedBulkIngest(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    graphstore::YProvService service(shards);
    auto stats = service.put_documents(corpus());
    if (!stats.ok()) {
      state.SkipWithError(stats.error().message.c_str());
      return;
    }
    benchmark::DoNotOptimize(stats.value().nodes_added);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus().size()));
  state.SetLabel(std::to_string(shards) + " shard(s)");
}
BENCHMARK(BM_ShardedBulkIngest)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Concurrent routed writers: each thread PUT-replaces its own slice of
/// the corpus through the HTTP-shaped handle() path. With one shard every
/// PUT serializes on the same stripe; with more shards writers to
/// different home shards run concurrently.
void BM_ShardedConcurrentPuts(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 16;
  graphstore::YProvService service(shards);
  if (!service.put_documents(corpus()).ok()) {
    state.SkipWithError("preload failed");
    return;
  }
  std::vector<std::string> bodies;
  for (int i = 0; i < kWriters; ++i) {
    bodies.push_back(prov::to_prov_json_string(corpus()[static_cast<std::size_t>(i)].second,
                                               /*pretty=*/false));
  }
  for (auto _ : state) {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&service, &bodies, w] {
        for (int op = 0; op < kOpsPerWriter; ++op) {
          const auto doc_index =
              static_cast<std::size_t>(w * kOpsPerWriter + op) % corpus().size();
          const graphstore::Response r = service.handle(
              {"PUT", "/api/v0/documents/" + corpus()[doc_index].first,
               bodies[static_cast<std::size_t>(w)]});
          benchmark::DoNotOptimize(r.status);
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }
  state.SetItemsProcessed(state.iterations() * kWriters * kOpsPerWriter);
  state.SetLabel(std::to_string(service.shard_count()) + " shard(s), " +
                 std::to_string(kWriters) + " writers");
}
BENCHMARK(BM_ShardedConcurrentPuts)->Arg(1)->Arg(4)->Arg(8)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Mixed workload: concurrent writers replace documents while readers run
/// list/document/stats/query rounds. Readers take every stripe shared, so
/// this measures reader-writer interference, not just writer scaling.
void BM_ShardedMixedReadWrite(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kOpsEach = 12;
  graphstore::YProvService service(shards);
  if (!service.put_documents(corpus()).ok()) {
    state.SkipWithError("preload failed");
    return;
  }
  const std::string body =
      prov::to_prov_json_string(corpus()[0].second, /*pretty=*/false);
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(kWriters + kReaders);
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&service, &body, w] {
        for (int op = 0; op < kOpsEach; ++op) {
          const auto doc_index =
              static_cast<std::size_t>(w * kOpsEach + op) % corpus().size();
          benchmark::DoNotOptimize(
              service.handle({"PUT", "/api/v0/documents/" + corpus()[doc_index].first,
                              body})
                  .status);
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&service, r] {
        for (int op = 0; op < kOpsEach; ++op) {
          graphstore::Request req;
          switch ((r + op) % 3) {
            case 0: req = {"GET", "/api/v0/documents", ""}; break;
            case 1:
              req = {"GET",
                     "/api/v0/documents/" +
                         corpus()[static_cast<std::size_t>(op) % corpus().size()].first +
                         "/stats",
                     ""};
              break;
            default:
              req = {"POST", "/api/v0/query", "MATCH (e:Entity) RETURN count(e)"};
              break;
          }
          benchmark::DoNotOptimize(service.handle(req).status);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  state.SetItemsProcessed(state.iterations() * (kWriters + kReaders) * kOpsEach);
  state.SetLabel(std::to_string(service.shard_count()) + " shard(s)");
}
BENCHMARK(BM_ShardedMixedReadWrite)->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Group-commit WAL: concurrent appenders against one kEveryWrite store.
/// The counter to watch is fsyncs_per_append — 1.0 single-threaded by
/// construction, below 1.0 as soon as appenders overlap and share
/// covering fsyncs.
void BM_WalGroupCommitAppend(benchmark::State& state) {
  const int appenders = static_cast<int>(state.range(0));
  constexpr int kAppendsEach = 16;
  const fs::path dir = fs::temp_directory_path() /
                       ("provml_bench_shard_wal_" + std::to_string(appenders));
  fs::remove_all(dir);
  wal::Options options;
  options.fsync_policy = wal::FsyncPolicy::kEveryWrite;
  options.compact_every = 0;
  auto store = wal::DurableStore::open(dir.string(), options);
  if (!store.ok()) {
    state.SkipWithError(store.error().message.c_str());
    return;
  }
  const std::string body(256, 'p');
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(appenders));
    for (int t = 0; t < appenders; ++t) {
      threads.emplace_back([&store, &body, t] {
        for (int i = 0; i < kAppendsEach; ++i) {
          auto lsn = store.value()->append(
              {wal::Record::Type::kPutDocument,
               "doc" + std::to_string(t * kAppendsEach + i), body});
          benchmark::DoNotOptimize(lsn.ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const wal::Stats stats = store.value()->stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.appends));
  state.counters["fsyncs_per_append"] =
      stats.appends == 0 ? 0.0
                         : static_cast<double>(stats.fsyncs) /
                               static_cast<double>(stats.appends);
  state.SetLabel(std::to_string(appenders) + " appender(s)");
  store.value().reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_WalGroupCommitAppend)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
