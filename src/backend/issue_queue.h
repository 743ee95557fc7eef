// Out-of-order issue queue of one cluster. Holds dispatched µops until
// their source operands (physical registers in *this* cluster) are ready.
// Selection is age-ordered among ready entries, subject to the cluster's
// issue-port constraints (arbitrated by the core's issue stage).
//
// State lives in per-slot bitmasks of (capacity + 63) / 64 words — one
// word at the paper's Table 1 sizes. `occupied` and `ready` mark the
// slots in use and those with every source available; `pending[i]` marks
// the slots still waiting on source i.
//
// Readiness is event-driven, modelling the paper's IQ wakeup CAM: a source
// that is not ready at dispatch sets the slot's bit in its register's
// consumer mask (one mask per register and source index); when the
// producer completes, wakeup() clears those slots' pending bits a word
// at a time, and a slot with no pending source left joins the ready mask.
// The issue stage therefore looks only at ready slots instead of
// re-probing every occupied slot every cycle.
//
// Age order is (seq, then thread id); each slot carries that pair packed
// into one integer key, and the ready slots are put in age order when the
// issue stage asks for them (a handful per cycle). The key's low bits also
// hold the µop's port class, which is all the issue stage reads besides
// age.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/phys_ref.h"
#include "common/types.h"
#include "trace/uop.h"

namespace clusmt::backend {

/// Issue-queue entry. `rob_ref` is an opaque handle the core uses to map a
/// granted entry back to its in-flight µop.
struct IqEntry {
  ThreadId tid = -1;
  std::uint64_t seq = 0;  // per-thread age; ties broken by thread id
  trace::UopClass cls = trace::UopClass::kIntAlu;
  PhysRef src0;           // invalid => no register dependency
  PhysRef src1;
  std::uint64_t rob_ref = 0;
};

class IssueQueue {
 public:
  /// Oldest-first cursor over a snapshot of slots (lowest (seq, tid)
  /// first). next() returns -1 at the end. The caller may remove the
  /// returned slot (issue grant) while iterating; inserting or removing
  /// any *other* slot invalidates the cursor.
  class OrderedIter {
   public:
    [[nodiscard]] int next() {
      return pos_ < order_.size() ? order_[pos_++] : -1;
    }

   private:
    friend class IssueQueue;
    explicit OrderedIter(std::vector<int> order) : order_(std::move(order)) {}
    std::vector<int> order_;
    std::size_t pos_ = 0;
  };

  explicit IssueQueue(int capacity);

  /// Inserts an entry; returns the slot index or -1 when full.
  /// `src0_ready`/`src1_ready` carry the dispatch-time readiness of the
  /// matching source register (invalid refs carry no dependency and are
  /// always treated as ready). A not-ready source registers a wakeup watch
  /// on its register; the watch is torn down by wakeup() or remove().
  int insert(const IqEntry& entry, bool src0_ready = true,
             bool src1_ready = true);

  /// Frees a slot (issue grant or squash) in O(1), unregistering any
  /// wakeup watches the entry still holds.
  void remove(int slot);

  /// Producer completion for register `(cls, index)`: clears the watch of
  /// every consumer; entries whose last pending source this was become
  /// ready.
  void wakeup(RegClass cls, std::int16_t index);

  [[nodiscard]] const IqEntry& entry(int slot) const;
  [[nodiscard]] bool occupied(int slot) const;
  /// True when every source of the entry at `slot` is ready.
  [[nodiscard]] bool entry_ready(int slot) const;

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int occupancy() const noexcept { return occupancy_; }
  [[nodiscard]] int occupancy_of(ThreadId tid) const {
    return per_thread_[tid];
  }
  [[nodiscard]] bool full() const noexcept { return occupancy_ == capacity_; }

  /// Entries of `tid` still waiting on at least one source (the paper's
  /// per-thread IQ unready counters, maintained incrementally).
  [[nodiscard]] int waiting_of(ThreadId tid) const {
    return per_thread_[tid] - ready_per_thread_[tid];
  }
  [[nodiscard]] int ready_count() const noexcept { return ready_count_; }

  /// Port class of the µop at `slot`.
  [[nodiscard]] trace::PortClass port_class(int slot) const {
    return static_cast<trace::PortClass>(
        keys_[static_cast<std::size_t>(slot)] & kClassMask);
  }

  /// Writes the ready slots to `out`, oldest first, and returns how many
  /// there are. `out` must hold capacity() slots.
  int ready_by_age(std::span<int> out) const noexcept {
    return sorted_by_age(ready_.data(), out);
  }

  /// True when register `(cls, index)` has at least one registered watch.
  [[nodiscard]] bool has_consumers(RegClass cls, std::int16_t index) const;

  /// Oldest-first cursor over all occupied entries.
  [[nodiscard]] OrderedIter age_iter() const {
    return OrderedIter(snapshot(occupied_.data()));
  }
  /// Oldest-first cursor over ready entries only.
  [[nodiscard]] OrderedIter ready_iter() const {
    return OrderedIter(snapshot(ready_.data()));
  }

  /// Cross-checks every incrementally-maintained structure (slot masks,
  /// occupancy counters, consumer masks, pending-source bits) against
  /// first principles. Test/debug aid; returns false on any drift.
  [[nodiscard]] bool validate() const;

 private:
  /// Offset of register `index`'s source-`i` mask in consumers_[cls].
  [[nodiscard]] std::size_t consumer_offset(std::int16_t index,
                                            int i) const noexcept {
    return (static_cast<std::size_t>(index) * 2 +
            static_cast<std::size_t>(i)) *
           static_cast<std::size_t>(words_);
  }
  [[nodiscard]] std::uint64_t* consumer_mask(RegClass cls,
                                             std::int16_t index, int i);
  [[nodiscard]] static std::uint64_t key_of(const IqEntry& entry) noexcept;
  int sorted_by_age(const std::uint64_t* mask,
                    std::span<int> out) const noexcept;
  [[nodiscard]] std::vector<int> snapshot(const std::uint64_t* mask) const;

  int capacity_;
  int words_;  // 64-bit words per slot mask
  std::vector<IqEntry> entries_;
  // (seq << 4) | (tid << 2) | port class per slot. (seq, tid) is unique
  // among live entries, so ascending key order is age order and the class
  // bits never decide a comparison.
  static constexpr std::uint64_t kClassMask = 3;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> occupied_;
  std::vector<std::uint64_t> ready_;
  std::vector<std::uint64_t> pending_[2];  // per source index
  // Consumer masks, `words_` words per (register, source index), grown on
  // demand to the largest watched register index (unbounded register
  // files stay cheap until a high index is actually watched).
  std::vector<std::uint64_t> consumers_[kNumRegClasses];
  int occupancy_ = 0;
  int ready_count_ = 0;
  int per_thread_[kMaxThreads] = {};
  int ready_per_thread_[kMaxThreads] = {};
};

}  // namespace clusmt::backend
