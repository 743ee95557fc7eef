// Replay tape: memoised output of a SyntheticTrace walk.
//
// Trace generation costs ~47 ns/µop of RNG-bound sampling, and the same
// (profile, seed) stream is regenerated many times per process — every
// repeat of a perf-bench cell, every sweep cell sharing a trace, every
// fairness baseline. A TraceTape records one warm walk of the generator
// into chunked contiguous storage; TapeTrace cursors then replay the stream
// without touching the RNG. The recording is demand-driven (a reader that
// needs µop N extends the tape to N in chunk-sized steps), so a tape is
// exactly as long as its longest reader needs.
//
// Record format: 16 bytes per µop (PackedUop) — the flat index the
// generator emitted from plus the sampled sources, address/target and
// branch outcome. Static fields are restored on replay from the program's
// immutable flat_uops()/block_info(), so a tape holds a third of the bytes
// a MicroOp copy would.
//
// Concurrency: many readers, one recorder. Chunk pointers live in a
// fixed-size array (sized to what the budget could ever fund, not to
// max_uops) written under the tape mutex and published through the
// atomic recorded-count (release/acquire), so replaying an already-recorded
// range never takes a lock.
//
// Memory: tapes draw chunk storage from a shared byte budget (the registry
// wires one process-wide pool). When the budget runs dry a tape freezes;
// readers that outrun a frozen tape clone the recording cursor — the
// generator state is copyable by design — and continue generating live,
// bit-identically, from the freeze point. Capping therefore affects speed
// only, never the stream.
//
// The live generator (SyntheticTrace) stays the differential oracle for
// all of this: tests/trace_tape_test.cc pins tape-vs-live equality, and
// --no-tape routes every bench back through the live cursor.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/synthetic.h"
#include "trace/trace_source.h"
#include "trace/uop.h"

namespace clusmt::trace {

/// Shared byte budget for tape chunk storage. `take` is all-or-nothing per
/// chunk, so a pool never strands a partial chunk.
class TapeBudget {
 public:
  explicit TapeBudget(std::uint64_t bytes)
      : capacity_(bytes), remaining_(bytes) {}

  /// Reserves `bytes`; false when the pool cannot cover them.
  bool take(std::uint64_t bytes) noexcept {
    std::uint64_t cur = remaining_.load(std::memory_order_relaxed);
    while (cur >= bytes) {
      if (remaining_.compare_exchange_weak(cur, cur - bytes,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
  void give_back(std::uint64_t bytes) noexcept {
    remaining_.fetch_add(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return remaining_.load(std::memory_order_relaxed);
  }
  /// Pool size at construction: the most any one tape can ever hold.
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

 private:
  const std::uint64_t capacity_;
  std::atomic<std::uint64_t> remaining_;
};

/// One recorded (program, seed) stream. Grows on demand; shared by every
/// TapeTrace cursor replaying that stream.
class TraceTape {
 public:
  /// µops per storage chunk (also the recording step).
  static constexpr std::uint64_t kChunkUops = 1u << 14;
  /// Budget charged per chunk.
  static constexpr std::uint64_t kChunkBytes = kChunkUops * sizeof(PackedUop);

  /// `budget` may be nullptr (unbudgeted, for tests); it must outlive the
  /// tape. `max_uops` bounds this tape regardless of the budget.
  TraceTape(std::shared_ptr<const SyntheticProgram> program,
            std::uint64_t seed, TapeBudget* budget,
            std::uint64_t max_uops = 1ull << 32);
  ~TraceTape();

  TraceTape(const TraceTape&) = delete;
  TraceTape& operator=(const TraceTape&) = delete;

  [[nodiscard]] const SyntheticProgram& program() const noexcept {
    return *program_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// µops recorded so far (acquire: pairs with the recorder's release).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_acquire);
  }
  /// True once recording stopped short of a reader's demand (budget dry or
  /// max_uops hit). A frozen tape never grows again.
  [[nodiscard]] bool frozen() const noexcept {
    return frozen_.load(std::memory_order_acquire);
  }
  /// Entries of the chunk-pointer table: the most chunks this tape can
  /// hold, bounded by max_uops and by the budget's capacity.
  [[nodiscard]] std::uint64_t chunk_capacity() const noexcept {
    return max_chunks_;
  }

  /// Decodes tape µops [pos, pos + count) into `out`. Requires
  /// pos + count <= recorded(). Lock-free.
  void copy(std::uint64_t pos, MicroOp* out, int count) const;

  /// Extends the recording to at least `target` µops (rounded up to a chunk
  /// boundary) and returns the new recorded(). May freeze the tape and
  /// return less than `target` when storage runs out.
  std::uint64_t extend_to(std::uint64_t target);

  /// Clone of the recording cursor, positioned exactly after recorded()
  /// µops. Readers outrunning a frozen tape continue live from this state.
  [[nodiscard]] std::unique_ptr<SyntheticTrace> clone_recorder() const;

 private:
  std::shared_ptr<const SyntheticProgram> program_;
  std::uint64_t seed_;
  TapeBudget* budget_;

  mutable std::mutex mutex_;        // recorder + chunk-table writes
  SyntheticTrace recorder_;         // always positioned at recorded_
  std::uint64_t max_chunks_;
  std::unique_ptr<std::atomic<PackedUop*>[]> chunks_;  // fixed table
  std::vector<std::unique_ptr<PackedUop[]>> chunk_storage_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<bool> frozen_{false};
};

/// TraceSource replaying a shared TraceTape. Each simulated thread gets its
/// own cursor; `fill` decodes chunk-wise until the reader outruns a frozen
/// tape, after which it generates live from the freeze-point clone.
class TapeTrace final : public TraceSource {
 public:
  explicit TapeTrace(std::shared_ptr<TraceTape> tape)
      : tape_(std::move(tape)) {}

  MicroOp next() override {
    MicroOp op;
    fill(&op, 1);
    return op;
  }

  void fill(MicroOp* out, int count) override;

  [[nodiscard]] const std::string& name() const override {
    return tape_->program().profile().name;
  }

  /// µops served from the tape by this cursor (diagnostics/tests).
  [[nodiscard]] std::uint64_t replayed() const noexcept { return pos_; }
  /// True once this cursor fell off a frozen tape into live generation.
  [[nodiscard]] bool went_live() const noexcept { return live_ != nullptr; }

 private:
  std::shared_ptr<TraceTape> tape_;
  std::uint64_t pos_ = 0;
  std::unique_ptr<SyntheticTrace> live_;  // set after outrunning the tape
};

}  // namespace clusmt::trace
