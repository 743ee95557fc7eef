#include "backend/issue_queue.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace clusmt::backend {

namespace {

static_assert(kMaxThreads <= 4, "age key packs the thread id in 2 bits");
static_assert(trace::kNumPortClasses <= 4,
              "age key packs the port class in 2 bits");

[[nodiscard]] constexpr std::uint64_t bit_of(int slot) noexcept {
  return std::uint64_t{1} << (slot & 63);
}

[[nodiscard]] constexpr std::size_t word_of(int slot) noexcept {
  return static_cast<std::size_t>(slot >> 6);
}

}  // namespace

IssueQueue::IssueQueue(int capacity)
    : capacity_(capacity), words_((capacity + 63) / 64) {
  if (capacity < 1) throw std::invalid_argument("IQ capacity < 1");
  const auto n = static_cast<std::size_t>(capacity);
  const auto w = static_cast<std::size_t>(words_);
  entries_.resize(n);
  keys_.resize(n);
  occupied_.assign(w, 0);
  ready_.assign(w, 0);
  pending_[0].assign(w, 0);
  pending_[1].assign(w, 0);
}

std::uint64_t IssueQueue::key_of(const IqEntry& entry) noexcept {
  return (entry.seq << 4) | (static_cast<std::uint64_t>(entry.tid) << 2) |
         static_cast<std::uint64_t>(trace::port_class_of(entry.cls));
}

std::uint64_t* IssueQueue::consumer_mask(RegClass cls, std::int16_t index,
                                         int i) {
  auto& masks = consumers_[static_cast<int>(cls)];
  if (consumer_offset(index, i) >= masks.size()) {
    masks.resize(
        consumer_offset(index, 0) + 2 * static_cast<std::size_t>(words_), 0);
  }
  return masks.data() + consumer_offset(index, i);
}

int IssueQueue::insert(const IqEntry& entry, bool src0_ready,
                       bool src1_ready) {
  assert(entry.tid >= 0 && entry.tid < kMaxThreads);
  assert(entry.seq < (std::uint64_t{1} << 60));
  if (full()) return -1;
  // Lowest free slot. Padding bits past capacity read as free, but a free
  // slot below capacity exists and sorts first.
  int slot = 0;
  for (int w = 0; w < words_; ++w) {
    const std::uint64_t free = ~occupied_[static_cast<std::size_t>(w)];
    if (free != 0) {
      slot = w * 64 + std::countr_zero(free);
      break;
    }
  }
  assert(slot < capacity_);
  const std::size_t w = word_of(slot);
  const std::uint64_t bit = bit_of(slot);
  entries_[static_cast<std::size_t>(slot)] = entry;
  keys_[static_cast<std::size_t>(slot)] = key_of(entry);
  occupied_[w] |= bit;
  ++occupancy_;
  ++per_thread_[entry.tid];
  const bool wait0 = entry.src0.valid() && !src0_ready;
  const bool wait1 = entry.src1.valid() && !src1_ready;
  if (wait0) {
    consumer_mask(entry.src0.cls, entry.src0.index, 0)[w] |= bit;
    pending_[0][w] |= bit;
  }
  if (wait1) {
    consumer_mask(entry.src1.cls, entry.src1.index, 1)[w] |= bit;
    pending_[1][w] |= bit;
  }
  if (!wait0 && !wait1) {
    ready_[w] |= bit;
    ++ready_count_;
    ++ready_per_thread_[entry.tid];
  }
  return slot;
}

void IssueQueue::remove(int slot) {
  assert(slot >= 0 && slot < capacity_ && occupied(slot));
  const std::size_t w = word_of(slot);
  const std::uint64_t bit = bit_of(slot);
  const IqEntry& entry = entries_[static_cast<std::size_t>(slot)];
  if (ready_[w] & bit) {
    ready_[w] &= ~bit;
    --ready_count_;
    --ready_per_thread_[entry.tid];
  } else {
    if (pending_[0][w] & bit) {
      consumer_mask(entry.src0.cls, entry.src0.index, 0)[w] &= ~bit;
      pending_[0][w] &= ~bit;
    }
    if (pending_[1][w] & bit) {
      consumer_mask(entry.src1.cls, entry.src1.index, 1)[w] &= ~bit;
      pending_[1][w] &= ~bit;
    }
  }
  occupied_[w] &= ~bit;
  --occupancy_;
  --per_thread_[entry.tid];
  assert(per_thread_[entry.tid] >= 0);
}

void IssueQueue::wakeup(RegClass cls, std::int16_t index) {
  auto& masks = consumers_[static_cast<int>(cls)];
  if (consumer_offset(index, 0) >= masks.size()) return;
  // Source 0's consumers first, then source 1's: a slot watching this
  // register on both sources becomes ready on the second pass.
  for (int i = 0; i < 2; ++i) {
    std::uint64_t* mask = masks.data() + consumer_offset(index, i);
    for (std::size_t w = 0; w < static_cast<std::size_t>(words_); ++w) {
      const std::uint64_t woken = mask[w];
      if (woken == 0) continue;
      mask[w] = 0;
      pending_[i][w] &= ~woken;
      const std::uint64_t now_ready = woken & ~pending_[1 - i][w];
      ready_[w] |= now_ready;
      for (std::uint64_t bits = now_ready; bits != 0; bits &= bits - 1) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        ++ready_count_;
        ++ready_per_thread_[(keys_[slot] >> 2) & 3];  // the key's tid bits
      }
    }
  }
}

const IqEntry& IssueQueue::entry(int slot) const {
  assert(slot >= 0 && slot < capacity_ && occupied(slot));
  return entries_[static_cast<std::size_t>(slot)];
}

bool IssueQueue::occupied(int slot) const {
  if (slot < 0 || slot >= capacity_) {
    throw std::out_of_range("IQ slot out of range");
  }
  return (occupied_[word_of(slot)] & bit_of(slot)) != 0;
}

bool IssueQueue::entry_ready(int slot) const {
  assert(occupied(slot));
  return (ready_[word_of(slot)] & bit_of(slot)) != 0;
}

bool IssueQueue::has_consumers(RegClass cls, std::int16_t index) const {
  const auto& masks = consumers_[static_cast<int>(cls)];
  const std::size_t base = consumer_offset(index, 0);
  if (base >= masks.size()) return false;
  // Both sources' masks are adjacent: 2 * words_ words.
  for (int w = 0; w < 2 * words_; ++w) {
    if (masks[base + static_cast<std::size_t>(w)] != 0) return true;
  }
  return false;
}

int IssueQueue::sorted_by_age(const std::uint64_t* mask,
                              std::span<int> out) const noexcept {
  assert(out.size() >= static_cast<std::size_t>(capacity_));
  // Insertion sort by key: the masks the issue stage sorts hold a few
  // slots per cycle.
  int n = 0;
  for (int w = 0; w < words_; ++w) {
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      const int slot = w * 64 + std::countr_zero(bits);
      const std::uint64_t key = keys_[static_cast<std::size_t>(slot)];
      int j = n++;
      for (; j > 0 && keys_[static_cast<std::size_t>(
                          out[static_cast<std::size_t>(j - 1)])] > key;
           --j) {
        out[static_cast<std::size_t>(j)] = out[static_cast<std::size_t>(j - 1)];
      }
      out[static_cast<std::size_t>(j)] = slot;
    }
  }
  return n;
}

std::vector<int> IssueQueue::snapshot(const std::uint64_t* mask) const {
  std::vector<int> order(static_cast<std::size_t>(capacity_));
  order.resize(static_cast<std::size_t>(sorted_by_age(mask, order)));
  return order;
}

bool IssueQueue::validate() const {
  // ready and pending ⊆ occupied; nothing is set past capacity.
  for (std::size_t w = 0; w < static_cast<std::size_t>(words_); ++w) {
    if ((ready_[w] & ~occupied_[w]) != 0) return false;
    if (((pending_[0][w] | pending_[1][w]) & ~occupied_[w]) != 0) {
      return false;
    }
  }
  if (capacity_ % 64 != 0 && (occupied_.back() >> (capacity_ % 64)) != 0) {
    return false;
  }
  // Every consumer-mask bit must belong to an occupied slot whose matching
  // source is that register.
  std::vector<std::uint8_t> watched(static_cast<std::size_t>(capacity_), 0);
  for (int k = 0; k < kNumRegClasses; ++k) {
    const auto& masks = consumers_[k];
    for (std::size_t base = 0; base < masks.size();
         base += static_cast<std::size_t>(words_)) {
      const std::size_t pair = base / static_cast<std::size_t>(words_);
      const int i = static_cast<int>(pair % 2);
      const auto index = static_cast<std::int16_t>(pair / 2);
      for (int w = 0; w < words_; ++w) {
        for (std::uint64_t bits = masks[base + static_cast<std::size_t>(w)];
             bits != 0; bits &= bits - 1) {
          const int slot = w * 64 + std::countr_zero(bits);
          if (slot >= capacity_ || !occupied(slot)) return false;
          const IqEntry& e = entries_[static_cast<std::size_t>(slot)];
          const PhysRef& src = i == 0 ? e.src0 : e.src1;
          if (!src.valid() || src.cls != static_cast<RegClass>(k) ||
              src.index != index) {
            return false;
          }
          watched[static_cast<std::size_t>(slot)] |=
              static_cast<std::uint8_t>(1u << i);
        }
      }
    }
  }
  int occupied_count = 0;
  int ready_total = 0;
  int per_thread[kMaxThreads] = {};
  int ready[kMaxThreads] = {};
  for (int slot = 0; slot < capacity_; ++slot) {
    if (!occupied(slot)) continue;
    const IqEntry& e = entries_[static_cast<std::size_t>(slot)];
    const std::size_t w = word_of(slot);
    const std::uint64_t bit = bit_of(slot);
    ++occupied_count;
    ++per_thread[e.tid];
    // The pending bits are exactly the watched sources (each in its own
    // register's mask, per the scan above), and ready means none pending.
    const unsigned pending = ((pending_[0][w] & bit) != 0 ? 1u : 0u) |
                             ((pending_[1][w] & bit) != 0 ? 2u : 0u);
    if (watched[static_cast<std::size_t>(slot)] != pending) return false;
    if (entry_ready(slot) != (pending == 0)) return false;
    if (pending == 0) {
      ++ready[e.tid];
      ++ready_total;
    }
    if (keys_[static_cast<std::size_t>(slot)] != key_of(e)) return false;
  }
  if (occupied_count != occupancy_ || ready_total != ready_count_) {
    return false;
  }
  for (int t = 0; t < kMaxThreads; ++t) {
    if (per_thread[t] != per_thread_[t]) return false;
    if (ready[t] != ready_per_thread_[t]) return false;
  }
  return true;
}

}  // namespace clusmt::backend
