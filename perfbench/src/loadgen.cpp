#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SenderResult {
  std::vector<Sample> samples;
  std::uint64_t abandoned = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t backlog_end = 0;
};

}  // namespace

std::vector<double> PhaseResult::latencies(bool reads, bool writes) const {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.write ? writes : reads) out.push_back(s.latency_ms);
  }
  return out;
}

std::vector<double> PhaseResult::lateness() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.late_ms);
  return out;
}

PhaseResult run_phase(const PhaseSpec& spec, std::vector<std::uint64_t>& next_index,
                      const SendFn& send) {
  const std::size_t senders = std::max<std::size_t>(1, spec.senders);
  next_index.resize(senders, 0);
  const double interval = static_cast<double>(senders) / spec.rate;
  std::vector<SenderResult> results(senders);
  // Every sender starts from the same instant, a little in the future so
  // thread start-up does not count as lateness.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point give_up =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(spec.seconds + spec.drain_seconds));

  auto sender_loop = [&](std::size_t s) {
    // Wake close to the due time: the default 50 us timer slack would
    // show up as generator lateness at high rates.
    (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    SenderResult& out = results[s];
    const double offset = static_cast<double>(s) / spec.rate;
    const auto per_sender =
        static_cast<std::uint64_t>(std::ceil(std::max(0.0, spec.seconds - offset) / interval));
    for (std::uint64_t k = 0; k < per_sender; ++k) {
      const double due_s = offset + static_cast<double>(k) * interval;
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due_s));
      Clock::time_point now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
      if (now > give_up) {
        out.abandoned += per_sender - k;
        break;
      }
      // Requests due by now that this sender has not sent yet, this one included.
      const double elapsed = seconds_between(t0, now) - offset;
      const auto due_by_now = std::min<std::uint64_t>(
          per_sender, static_cast<std::uint64_t>(std::floor(elapsed / interval)) + 1);
      const std::uint64_t backlog = due_by_now > k ? due_by_now - k : 0;
      out.backlog_max = std::max(out.backlog_max, backlog);
      out.backlog_end = backlog;

      const Outcome o = send(s, next_index[s]++);
      const Clock::time_point done = Clock::now();
      out.samples.push_back(Sample{due_s, seconds_between(due, done) * 1e3,
                                   seconds_between(due, now) * 1e3, o.ok, o.write});
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(senders);
  for (std::size_t s = 0; s < senders; ++s) threads.emplace_back(sender_loop, s);
  for (std::thread& t : threads) t.join();

  PhaseResult r;
  r.spec = spec;
  for (SenderResult& sr : results) {
    for (const Sample& s : sr.samples) {
      ++r.sent;
      if (s.ok) {
        ++r.succeeded;
      } else {
        ++r.failed;
      }
    }
    r.samples.insert(r.samples.end(), sr.samples.begin(), sr.samples.end());
    r.abandoned += sr.abandoned;
    r.failed += sr.abandoned;
    r.backlog_max = std::max(r.backlog_max, sr.backlog_max);
    r.backlog_end = std::max(r.backlog_end, sr.backlog_end);
  }
  return r;
}

}  // namespace perfbench
