// Tests of the benchmark's own arithmetic and generators:
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "inputs.hpp"
#include "loadgen.hpp"
#include "provml/prov/prov_json.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Percentile, SummaryCountsMedianAndP99) {
  const Summary s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  EXPECT_DOUBLE_EQ(s.p99, 3.97);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(MaxRate, InterpolatesInLogSpaceBetweenLastPassAndFirstFail) {
  // p99 crosses 8 ms halfway (in log p99) from 4 ms to 16 ms, so the rate
  // is halfway (in log rate) from 2000 to 4000: 2000 * sqrt(2).
  const std::vector<Rung> ladder = {{1000, 2.0, true}, {2000, 4.0, true}, {4000, 16.0, false}};
  EXPECT_NEAR(interpolate_max_rate(ladder, 8.0), 2000.0 * std::sqrt(2.0), 1e-6);
  // Continuous in the measurement: a slightly worse failing rung moves
  // the answer slightly, it does not snap to a rung.
  const std::vector<Rung> worse = {{1000, 2.0, true}, {2000, 4.0, true}, {4000, 17.0, false}};
  EXPECT_LT(interpolate_max_rate(worse, 8.0), interpolate_max_rate(ladder, 8.0));
  EXPECT_GT(interpolate_max_rate(worse, 8.0), 2700.0);
}

TEST(MaxRate, EdgeCases) {
  EXPECT_DOUBLE_EQ(interpolate_max_rate({}, 5.0), 0.0);
  // Nothing failed: the top rung is a lower bound, reported as such.
  EXPECT_DOUBLE_EQ(interpolate_max_rate({{100, 1.0, true}, {200, 2.0, true}}, 5.0), 200.0);
  // The first rung failed: scaled down by limit / p99.
  EXPECT_DOUBLE_EQ(interpolate_max_rate({{100, 10.0, false}}, 5.0), 50.0);
  // Failed on backlog with p99 under the limit: the last passing rate.
  EXPECT_DOUBLE_EQ(interpolate_max_rate({{100, 1.0, true}, {200, 2.0, false}}, 5.0), 100.0);
}

TEST(OpenLoop, RequestsDueDuringAStallCarryTheStall) {
  // One sender at 1000 req/s; the handler stalls once for 50 ms. Every
  // request due while it stalled waits for it, and its latency — timed
  // from its due time — must show that wait.
  PhaseSpec spec;
  spec.name = "stall";
  spec.rate = 1000;
  spec.seconds = 0.3;
  spec.senders = 1;
  std::vector<std::uint64_t> index;
  const PhaseResult r = run_phase(spec, index, [](std::size_t, std::uint64_t i) {
    if (i == 50) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Outcome{true, false};
  });
  ASSERT_EQ(r.sent, 300u);
  EXPECT_EQ(index[0], 300u);
  EXPECT_EQ(r.failed, 0u);
  const double stall_due = r.samples[50].due_s;
  const double stall_end_ms = r.samples[50].latency_ms + stall_due * 1e3;
  EXPECT_GE(r.samples[50].latency_ms, 50.0);
  std::size_t during = 0;
  for (const Sample& s : r.samples) {
    if (s.due_s <= stall_due || s.due_s * 1e3 >= stall_end_ms) continue;
    ++during;
    // Sent only after the stall ended: latency >= stall end - due time.
    EXPECT_GE(s.latency_ms, stall_end_ms - s.due_s * 1e3 - 0.01) << s.due_s;
    EXPECT_GT(s.late_ms, 0.0);
  }
  EXPECT_GE(during, 45u);
  EXPECT_GE(r.backlog_max, 45u);
  // The first request after the stall waited ~49 ms although the
  // handler answered it at once: a closed-loop timer would report ~0.
  EXPECT_GE(r.samples[51].latency_ms, 45.0);
}

TEST(OpenLoop, AbandonsWhatCannotBeSentWithinTheDrainCap) {
  PhaseSpec spec;
  spec.rate = 1000;
  spec.seconds = 0.1;
  spec.senders = 2;
  spec.drain_seconds = 0.05;
  std::vector<std::uint64_t> index;
  const PhaseResult r = run_phase(spec, index, [](std::size_t, std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Outcome{true, true};
  });
  EXPECT_GT(r.abandoned, 0u);
  EXPECT_EQ(r.sent + r.abandoned, 100u);
  EXPECT_EQ(r.failed, r.abandoned);
  EXPECT_EQ(r.latencies(true, false).size(), 0u);
  EXPECT_EQ(r.latencies(false, true).size(), r.sent);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 1, 0, 1, 0, 100},
      {"a", 2, 1, 1, 10, 40},    // overlaps b: [10, 60] counts once
      {"b", 3, 1, 1, 30, 60},
      {"a.1", 4, 2, 1, 15, 20},  // grandchild: only a's self time shrinks
      {"late", 5, 1, 1, 90, 120},  // sticks out: clipped to [90, 100]
      {"orphan", 6, 42, 6, 0, 5},  // unknown parent: a root of its own
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
  EXPECT_EQ(self[5], 5);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer off(false);
  { const ScopedSpan s(&off, "x", 0); }
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  std::uint64_t id = 0;
  {
    const ScopedSpan s(&on, "x", 0);
    id = s.id();
  }
  ASSERT_EQ(on.spans().size(), 1u);
  EXPECT_EQ(on.spans()[0].op, id);  // op 0: the span is its own operation
}

/// Every generated input of every workload, as bytes.
std::string generated_bytes(std::uint64_t seed) {
  std::string out;
  const Corpus corpus = make_corpus(seed, 40, 2);
  for (const auto& [name, doc] : corpus.docs) {
    out += name + "\n" + provml::prov::to_prov_json_string(doc, false) + "\n";
  }
  const ReadTable reads = make_read_table(seed, corpus, 100, true);
  for (const ReadRequest& r : reads.requests) out += r.method + " " + r.target + " " + r.body + "\n";
  const IngestInputs ingest = make_ingest_inputs(seed, 16, 8);
  for (const std::string& s : ingest.names) out += s + "\n";
  for (const std::string& s : ingest.bodies) out += s + "\n";
  for (const auto& stream : make_op_streams(seed, 2, 200, reads, 1.1, OpMix{0.5, 0.1, 16, 8})) {
    for (const Op& op : stream) {
      out += std::to_string(static_cast<int>(op.route)) + ":" + std::to_string(op.ref) + ":" +
             std::to_string(op.body) + " ";
    }
  }
  for (const auto& series : make_metric_values(seed, 0, 500)) {
    out.append(reinterpret_cast<const char*>(series.data()), series.size() * sizeof(double));
  }
  return out;
}

TEST(Inputs, SameSeedSameBytesOtherSeedOtherBytes) {
  const std::string a = generated_bytes(7);
  EXPECT_EQ(a, generated_bytes(7));
  EXPECT_NE(a, generated_bytes(8));
}

TEST(Inputs, DeletesOnlyDocumentsTheStreamPutAndPinsNamesToSenders) {
  const OpMix mix{0.5, 0.1, 32, 8};
  const ReadTable reads = make_read_table(3, make_corpus(3, 20, 1), 50, false);
  const auto streams = make_op_streams(3, 2, 2000, reads, 1.1, mix);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    std::vector<bool> present(mix.names, false);
    std::size_t writes = 0;
    for (const Op& op : streams[s]) {
      if (op.route == Route::kPut || op.route == Route::kDelete) {
        ++writes;
        EXPECT_EQ(op.ref % 2, s);
      } else {
        ASSERT_LT(op.ref, reads.requests.size());
        EXPECT_EQ(op.route, reads.requests[op.ref].route);
      }
      if (op.route == Route::kPut) present[op.ref] = true;
      if (op.route == Route::kDelete) {
        EXPECT_TRUE(present[op.ref]);
        present[op.ref] = false;
      }
    }
    EXPECT_NEAR(static_cast<double>(writes) / 2000.0, 0.6, 0.05);
  }
}

TEST(Inputs, RouteMixIsTheSameForEverySeed) {
  // Reads pick a route by weight before a key, so a seed cannot tilt the
  // mix by putting one expensive key at the top of a Zipf ranking.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const ReadTable reads = make_read_table(seed, make_corpus(seed, 50, 1), 500, true);
    const auto streams = make_op_streams(seed, 1, 20000, reads, 1.1, OpMix{});
    std::size_t stats = 0;
    for (const Op& op : streams[0]) stats += op.route == Route::kStats ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(stats) / 20000.0, 0.1, 0.01) << seed;
  }
}

TEST(Inputs, ZipfSkewsTowardLowRanks) {
  const Zipf zipf(1000, 1.1);
  provml::testkit::Rng rng(1);
  std::size_t head = 0;
  for (int i = 0; i < 10000; ++i) head += zipf.sample(rng) < 100 ? 1 : 0;
  EXPECT_GT(head, 6000u);  // the top 10% of keys draw most of the load
}

}  // namespace
}  // namespace perfbench
