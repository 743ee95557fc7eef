// Process-wide registry of replay tapes (trace/tape.h), keyed by trace
// *content* — the same 128-bit (profile, seed) hash the fairness-baseline
// cache uses — so every sweep cell, bench repeat, and baseline sharing a
// trace replays one recording instead of regenerating the stream. This is
// the trace-generation analogue of the RunCache: the RunCache dedups whole
// cells, the tape registry dedups the µop streams inside the cells that do
// simulate.
//
// Disabled mode (--no-tape) hands out live SyntheticTrace cursors instead;
// the two modes are pinned bit-identical by tests/trace_tape_test.cc, and
// the golden-numbers gate covers the tape path end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "harness/run_key.h"
#include "trace/profile.h"
#include "trace/tape.h"
#include "trace/workload.h"

namespace clusmt::harness {

class TapeRegistry {
 public:
  TapeRegistry(const TapeRegistry&) = delete;
  TapeRegistry& operator=(const TapeRegistry&) = delete;

  /// The process-wide instance every harness entry point shares.
  [[nodiscard]] static TapeRegistry& instance();

  /// Tape replay on/off (the --no-tape oracle switch). Disabling does not
  /// drop existing tapes; re-enabling reuses them.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// A fresh trace cursor for `spec`: a TapeTrace over the shared tape
  /// (recorded on demand, created on first request) when enabled, else a
  /// live SyntheticTrace. `profile_out`, when non-null, receives a pointer
  /// to a profile copy that outlives the returned source (the wrong-path
  /// synthesizer requires a stable profile).
  [[nodiscard]] std::shared_ptr<trace::TraceSource> source_for(
      const trace::TraceSpec& spec,
      const trace::TraceProfile** profile_out = nullptr);

  /// Requests served by an already-registered tape.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Requests that created (and will record) a new tape.
  [[nodiscard]] std::uint64_t recordings() const noexcept {
    return recordings_.load(std::memory_order_relaxed);
  }
  /// Requests served with a live cursor because the registry was disabled.
  [[nodiscard]] std::uint64_t live_sources() const noexcept {
    return live_sources_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;
  /// Chunk bytes held by registered tapes (budget drawn, 16 B per µop).
  /// Diagnostics only: never part of SimStats or a run key.
  [[nodiscard]] std::uint64_t bytes_in_use() const;

  /// Drops every tape and zeroes the counters, restoring the full chunk
  /// budget (intended for tests; must not race with live readers).
  void clear();

 private:
  TapeRegistry();

  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;
  std::map<RunKey, std::shared_ptr<trace::TraceTape>> tapes_;
  std::uint64_t budget_bytes_ = 0;
  std::unique_ptr<trace::TapeBudget> budget_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> recordings_{0};
  std::atomic<std::uint64_t> live_sources_{0};
};

}  // namespace clusmt::harness
