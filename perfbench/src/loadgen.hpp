// Open-loop load generator with coordinated-omission correction.
//
// A phase offers a fixed aggregate rate for a fixed time from a few
// sender threads. Sender s of S owns its own connection and sends its
// k-th operation at the due time  t0 + (k*S + s) / rate, whether or not
// the previous answer was quick: a slow response delays the next send,
// but the next request's latency is still measured from its due time,
// so the wait a stall imposes on every request scheduled during it is
// counted (the correction for coordinated omission). How late each send
// was, and how many due requests were still waiting (the backlog), are
// recorded so a phase whose generator fell behind can be seen.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// What one operation reported back to the generator.
struct Outcome {
  bool ok = false;     ///< expected status and a well-formed answer
  bool write = false;  ///< counts as a write (PUT/DELETE) rather than a read
};

/// Performs operation `index` (counting from 0 per sender, across
/// phases) on sender `sender`'s connection. Called from that sender's
/// thread only.
using SendFn = std::function<Outcome(std::size_t sender, std::uint64_t index)>;

struct PhaseSpec {
  std::string name;
  double rate = 0.0;      ///< aggregate requests per second
  double seconds = 0.0;   ///< schedule length
  std::size_t senders = 1;
  /// Sends still due this long after the schedule ends are abandoned and
  /// counted as failed, so an overloaded phase ends in bounded time.
  double drain_seconds = 1.0;
};

struct Sample {
  double due_s = 0.0;       ///< due time, seconds after the phase start
  double latency_ms = 0.0;  ///< completion minus due time
  double late_ms = 0.0;     ///< actual send minus due time
  bool ok = false;
  bool write = false;
};

struct PhaseResult {
  PhaseSpec spec;
  std::vector<Sample> samples;  ///< every request sent, in no particular order
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;     ///< !ok outcomes plus abandoned sends
  std::uint64_t abandoned = 0;  ///< due but never sent (drain cap hit)
  std::uint64_t backlog_max = 0;  ///< most due-but-unsent requests seen by one sender
  std::uint64_t backlog_end = 0;  ///< backlog when the last due request went out

  [[nodiscard]] std::vector<double> latencies(bool reads, bool writes) const;
  [[nodiscard]] std::vector<double> lateness() const;
};

/// Runs one phase. `next_index[s]` is sender s's running operation
/// counter; it is advanced past every operation the phase sent, so the
/// next phase continues the same pre-generated stream.
[[nodiscard]] PhaseResult run_phase(const PhaseSpec& spec, std::vector<std::uint64_t>& next_index,
                                    const SendFn& send);

}  // namespace perfbench
