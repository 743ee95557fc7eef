#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "backend/cluster.h"
#include "backend/interconnect.h"
#include "backend/issue_queue.h"
#include "backend/ports.h"
#include "backend/regfile.h"

namespace clusmt::backend {
namespace {

TEST(RegisterFile, AllocateReleaseCycle) {
  RegisterFile rf(4);
  const int a = rf.allocate(0);
  const int b = rf.allocate(1);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(rf.used_by(0), 1);
  EXPECT_EQ(rf.used_by(1), 1);
  EXPECT_EQ(rf.free_count(), 2);
  rf.release(static_cast<std::int16_t>(a));
  EXPECT_EQ(rf.used_by(0), 0);
  EXPECT_EQ(rf.free_count(), 3);
}

TEST(RegisterFile, ExhaustionReturnsMinusOne) {
  RegisterFile rf(2);
  EXPECT_GE(rf.allocate(0), 0);
  EXPECT_GE(rf.allocate(0), 0);
  EXPECT_EQ(rf.allocate(0), -1);
  EXPECT_EQ(rf.stats().alloc_failures, 1u);
}

TEST(RegisterFile, FreshRegistersStartNotReady) {
  RegisterFile rf(4);
  const auto idx = static_cast<std::int16_t>(rf.allocate(0));
  EXPECT_FALSE(rf.ready(idx));
  rf.set_ready(idx);
  EXPECT_TRUE(rf.ready(idx));
  rf.release(idx);
  const auto again = static_cast<std::int16_t>(rf.allocate(1));
  EXPECT_EQ(again, idx);        // LIFO free list reuses the slot
  EXPECT_FALSE(rf.ready(again)); // readiness cleared on reallocation
}

TEST(RegisterFile, UnboundedMode) {
  RegisterFile rf(0);
  EXPECT_TRUE(rf.unbounded());
  for (int i = 0; i < 2000; ++i) ASSERT_GE(rf.allocate(0), 0);
  EXPECT_EQ(rf.used_by(0), 2000);
}

TEST(IssueQueue, InsertRemoveOccupancy) {
  IssueQueue iq(4);
  const int s0 = iq.insert(IqEntry{.tid = 0, .seq = 1});
  const int s1 = iq.insert(IqEntry{.tid = 1, .seq = 2});
  ASSERT_GE(s0, 0);
  ASSERT_GE(s1, 0);
  EXPECT_EQ(iq.occupancy(), 2);
  EXPECT_EQ(iq.occupancy_of(0), 1);
  EXPECT_EQ(iq.occupancy_of(1), 1);
  iq.remove(s0);
  EXPECT_EQ(iq.occupancy_of(0), 0);
  EXPECT_FALSE(iq.occupied(s0));
  EXPECT_TRUE(iq.occupied(s1));
}

TEST(IssueQueue, FullRejects) {
  IssueQueue iq(2);
  iq.insert(IqEntry{.tid = 0, .seq = 1});
  iq.insert(IqEntry{.tid = 0, .seq = 2});
  EXPECT_TRUE(iq.full());
  EXPECT_EQ(iq.insert(IqEntry{.tid = 0, .seq = 3}), -1);
}

/// Collects the merged age-ordered iteration into a vector.
std::vector<int> age_order(const IssueQueue& iq) {
  std::vector<int> order;
  IssueQueue::OrderedIter it = iq.age_iter();
  for (int slot = it.next(); slot != -1; slot = it.next()) {
    order.push_back(slot);
  }
  return order;
}

std::vector<int> ready_order(const IssueQueue& iq) {
  std::vector<int> order;
  IssueQueue::OrderedIter it = iq.ready_iter();
  for (int slot = it.next(); slot != -1; slot = it.next()) {
    order.push_back(slot);
  }
  return order;
}

TEST(IssueQueue, AgeOrderAcrossThreads) {
  IssueQueue iq(8);
  // Insert out of age order.
  const int s3 = iq.insert(IqEntry{.tid = 0, .seq = 30});
  const int s1 = iq.insert(IqEntry{.tid = 1, .seq = 10});
  const int s2 = iq.insert(IqEntry{.tid = 0, .seq = 20});
  EXPECT_EQ(age_order(iq), (std::vector<int>{s1, s2, s3}));
  // Same seq: lower thread id first.
  const int s4 = iq.insert(IqEntry{.tid = 1, .seq = 20});
  EXPECT_EQ(age_order(iq), (std::vector<int>{s1, s2, s4, s3}));
  EXPECT_TRUE(iq.validate());
}

TEST(IssueQueue, OrderMaintainedUnderChurn) {
  IssueQueue iq(16);
  std::uint64_t seq = 0;
  std::vector<int> slots;
  for (int i = 0; i < 16; ++i) {
    slots.push_back(iq.insert(IqEntry{.tid = 0, .seq = seq++}));
  }
  // Remove every other entry, insert new youngest ones.
  for (int i = 0; i < 16; i += 2) iq.remove(slots[i]);
  for (int i = 0; i < 8; ++i) iq.insert(IqEntry{.tid = 0, .seq = seq++});
  std::uint64_t last = 0;
  for (int slot : age_order(iq)) {
    EXPECT_GE(iq.entry(slot).seq, last);
    last = iq.entry(slot).seq;
  }
  EXPECT_TRUE(iq.validate());
}

TEST(IssueQueueWakeup, EntryWithReadySourcesIsReadyImmediately) {
  IssueQueue iq(8);
  const PhysRef reg{0, RegClass::kInt, 5};
  const int ready_slot =
      iq.insert(IqEntry{.tid = 0, .seq = 1, .src0 = reg}, /*src0_ready=*/true);
  const int no_dep_slot = iq.insert(IqEntry{.tid = 0, .seq = 2});
  EXPECT_TRUE(iq.entry_ready(ready_slot));
  EXPECT_TRUE(iq.entry_ready(no_dep_slot));
  EXPECT_EQ(iq.ready_count(), 2);
  EXPECT_EQ(iq.waiting_of(0), 0);
  EXPECT_EQ(ready_order(iq), (std::vector<int>{ready_slot, no_dep_slot}));
}

TEST(IssueQueueWakeup, WakeupMovesEntryOntoReadyListInAgeOrder) {
  IssueQueue iq(8);
  const PhysRef r1{0, RegClass::kInt, 3};
  const PhysRef r2{0, RegClass::kFp, 3};  // same index, other class
  const int young =
      iq.insert(IqEntry{.tid = 0, .seq = 20, .src0 = r1}, false);
  const int old = iq.insert(IqEntry{.tid = 0, .seq = 10, .src0 = r1}, false);
  const int fp = iq.insert(IqEntry{.tid = 1, .seq = 15, .src0 = r2}, false);
  EXPECT_EQ(iq.ready_count(), 0);
  EXPECT_EQ(iq.waiting_of(0), 2);
  EXPECT_EQ(iq.waiting_of(1), 1);

  iq.wakeup(RegClass::kInt, 3);  // must not wake the FP watcher
  EXPECT_EQ(iq.waiting_of(0), 0);
  EXPECT_EQ(iq.waiting_of(1), 1);
  EXPECT_FALSE(iq.entry_ready(fp));
  EXPECT_EQ(ready_order(iq), (std::vector<int>{old, young}));

  iq.wakeup(RegClass::kFp, 3);
  EXPECT_EQ(ready_order(iq), (std::vector<int>{old, fp, young}));
  EXPECT_TRUE(iq.validate());
}

TEST(IssueQueueWakeup, TwoSourceEntryNeedsBothProducers) {
  IssueQueue iq(8);
  const PhysRef a{0, RegClass::kInt, 1};
  const PhysRef b{0, RegClass::kInt, 2};
  const int slot = iq.insert(
      IqEntry{.tid = 0, .seq = 1, .src0 = a, .src1 = b}, false, false);
  EXPECT_FALSE(iq.entry_ready(slot));
  iq.wakeup(RegClass::kInt, 1);
  EXPECT_FALSE(iq.entry_ready(slot));
  EXPECT_EQ(iq.waiting_of(0), 1);
  iq.wakeup(RegClass::kInt, 2);
  EXPECT_TRUE(iq.entry_ready(slot));
  EXPECT_EQ(iq.waiting_of(0), 0);
  EXPECT_TRUE(iq.validate());
}

TEST(IssueQueueWakeup, RemoveTearsDownWatches) {
  IssueQueue iq(8);
  const PhysRef reg{0, RegClass::kInt, 7};
  const int a = iq.insert(IqEntry{.tid = 0, .seq = 1, .src0 = reg}, false);
  const int b = iq.insert(IqEntry{.tid = 0, .seq = 2, .src0 = reg}, false);
  const int c = iq.insert(IqEntry{.tid = 1, .seq = 3, .src0 = reg}, false);
  EXPECT_TRUE(iq.has_consumers(RegClass::kInt, 7));

  // Squash the middle consumer: the register's mask must stay intact for
  // the survivors, and the squashed entry must not resurface on wakeup.
  iq.remove(b);
  EXPECT_EQ(iq.waiting_of(0), 1);
  EXPECT_TRUE(iq.validate());
  iq.wakeup(RegClass::kInt, 7);
  EXPECT_FALSE(iq.has_consumers(RegClass::kInt, 7));
  EXPECT_EQ(ready_order(iq), (std::vector<int>{a, c}));

  // Removing the remaining entries leaves a fully empty queue.
  iq.remove(a);
  iq.remove(c);
  EXPECT_EQ(iq.occupancy(), 0);
  EXPECT_EQ(iq.ready_count(), 0);
  EXPECT_TRUE(iq.validate());
}

TEST(IssueQueueWakeup, RemoveFirstAndLastConsumersUnlinksCleanly) {
  IssueQueue iq(8);
  const PhysRef reg{0, RegClass::kInt, 4};
  const int a = iq.insert(IqEntry{.tid = 0, .seq = 1, .src0 = reg}, false);
  const int b = iq.insert(IqEntry{.tid = 0, .seq = 2, .src0 = reg}, false);
  const int c = iq.insert(IqEntry{.tid = 0, .seq = 3, .src0 = reg}, false);
  iq.remove(c);  // most recent watch
  iq.remove(a);  // oldest watch
  EXPECT_TRUE(iq.validate());
  iq.wakeup(RegClass::kInt, 4);
  EXPECT_EQ(ready_order(iq), (std::vector<int>{b}));
  EXPECT_TRUE(iq.validate());
}

TEST(IssueQueueWakeup, SameRegisterOnBothSources) {
  IssueQueue iq(4);
  const PhysRef reg{0, RegClass::kInt, 9};
  const int slot = iq.insert(
      IqEntry{.tid = 0, .seq = 1, .src0 = reg, .src1 = reg}, false, false);
  EXPECT_EQ(iq.waiting_of(0), 1);  // one entry, not two watches' worth
  iq.wakeup(RegClass::kInt, 9);    // single completion satisfies both
  EXPECT_TRUE(iq.entry_ready(slot));
  EXPECT_TRUE(iq.validate());
}

TEST(IssueQueueWakeup, ReadyByAgeListsReadySlotsOldestFirst) {
  IssueQueue iq(8);
  const PhysRef reg{0, RegClass::kInt, 2};
  const int young = iq.insert(IqEntry{.tid = 0, .seq = 9});
  const int waiting =
      iq.insert(IqEntry{.tid = 0, .seq = 1, .src0 = reg}, false);
  const int fp = iq.insert(IqEntry{.tid = 1, .seq = 4,
                                   .cls = trace::UopClass::kFpAdd});
  const int mem = iq.insert(IqEntry{.tid = 0, .seq = 4,
                                    .cls = trace::UopClass::kLoad});
  std::vector<int> out(8, -1);
  ASSERT_EQ(iq.ready_by_age(out), 3);
  EXPECT_EQ(std::vector<int>(out.begin(), out.begin() + 3),
            (std::vector<int>{mem, fp, young}));
  EXPECT_EQ(iq.port_class(mem), trace::PortClass::kMem);
  EXPECT_EQ(iq.port_class(fp), trace::PortClass::kFpSimd);
  EXPECT_EQ(iq.port_class(waiting), trace::PortClass::kInt);
  iq.wakeup(RegClass::kInt, 2);
  ASSERT_EQ(iq.ready_by_age(out), 4);
  EXPECT_EQ(out[0], waiting);
}

/// Plain reference for the randomized differential test below: live
/// entries keyed by slot, each with a flag per still-watched source. No
/// masks, no counters, no incremental state.
class RefIssueQueue {
 public:
  struct Entry {
    IqEntry entry;
    bool watch[2] = {false, false};
    [[nodiscard]] bool ready() const { return !watch[0] && !watch[1]; }
  };

  std::map<int, Entry> live;

  /// Occupied (or only ready) slots, oldest (seq, tid) first.
  [[nodiscard]] std::vector<int> order(bool ready_only) const {
    std::vector<std::pair<std::pair<std::uint64_t, ThreadId>, int>> keyed;
    for (const auto& [slot, e] : live) {
      if (ready_only && !e.ready()) continue;
      keyed.push_back({{e.entry.seq, e.entry.tid}, slot});
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<int> slots;
    for (const auto& k : keyed) slots.push_back(k.second);
    return slots;
  }

  void wakeup(RegClass cls, std::int16_t index) {
    for (auto& [slot, e] : live) {
      const PhysRef* srcs[2] = {&e.entry.src0, &e.entry.src1};
      for (int i = 0; i < 2; ++i) {
        if (srcs[i]->cls == cls && srcs[i]->index == index) {
          e.watch[i] = false;
        }
      }
    }
  }

  [[nodiscard]] bool watched(RegClass cls, std::int16_t index) const {
    for (const auto& [slot, e] : live) {
      if ((e.watch[0] && e.entry.src0.cls == cls &&
           e.entry.src0.index == index) ||
          (e.watch[1] && e.entry.src1.cls == cls &&
           e.entry.src1.index == index)) {
        return true;
      }
    }
    return false;
  }
};

constexpr int kPoolRegs = 5;  // per register class: forces shared watches

void expect_matches_reference(const IssueQueue& iq, const RefIssueQueue& ref,
                              int threads) {
  ASSERT_TRUE(iq.validate());
  ASSERT_EQ(iq.occupancy(), static_cast<int>(ref.live.size()));
  ASSERT_EQ(iq.full(), static_cast<int>(ref.live.size()) == iq.capacity());
  int ready_total = 0;
  int waiting[kMaxThreads] = {};
  int per_thread[kMaxThreads] = {};
  for (const auto& [slot, e] : ref.live) {
    ASSERT_TRUE(iq.occupied(slot)) << "slot " << slot;
    ASSERT_EQ(iq.entry(slot).seq, e.entry.seq) << "slot " << slot;
    ASSERT_EQ(iq.entry(slot).tid, e.entry.tid) << "slot " << slot;
    ASSERT_EQ(iq.entry_ready(slot), e.ready()) << "slot " << slot;
    ASSERT_EQ(iq.port_class(slot), trace::port_class_of(e.entry.cls));
    ++per_thread[e.entry.tid];
    if (e.ready()) {
      ++ready_total;
    } else {
      ++waiting[e.entry.tid];
    }
  }
  ASSERT_EQ(iq.ready_count(), ready_total);
  for (int t = 0; t < threads; ++t) {
    ASSERT_EQ(iq.occupancy_of(t), per_thread[t]) << "thread " << t;
    ASSERT_EQ(iq.waiting_of(t), waiting[t]) << "thread " << t;
  }
  std::vector<int> age;
  IssueQueue::OrderedIter it = iq.age_iter();
  for (int slot = it.next(); slot != -1; slot = it.next()) age.push_back(slot);
  ASSERT_EQ(age, ref.order(false));
  const std::vector<int> ready = ref.order(true);
  std::vector<int> got;
  it = iq.ready_iter();
  for (int slot = it.next(); slot != -1; slot = it.next()) got.push_back(slot);
  ASSERT_EQ(got, ready);

  std::vector<int> by_age(static_cast<std::size_t>(iq.capacity()), -1);
  by_age.resize(static_cast<std::size_t>(iq.ready_by_age(by_age)));
  ASSERT_EQ(by_age, ready);

  for (int k = 0; k < kNumRegClasses; ++k) {
    for (std::int16_t r = 0; r < kPoolRegs; ++r) {
      const auto cls = static_cast<RegClass>(k);
      ASSERT_EQ(iq.has_consumers(cls, r), ref.watched(cls, r))
          << "register " << k << ":" << r;
    }
  }
}

/// Drives an IssueQueue and the reference through one seeded random
/// sequence of inserts, removes (a waiting entry's removal models a squash)
/// and wakeups, comparing every observable after each step.
void run_random_iq(int capacity, std::uint64_t seed, int threads,
                   int steps) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + ", seed " +
               std::to_string(seed) + ", threads " + std::to_string(threads));
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::uint64_t n) {
    return static_cast<int>(rng() % n);
  };
  const auto random_reg = [&] {
    return PhysRef{0, static_cast<RegClass>(pick(kNumRegClasses)),
                   static_cast<std::int16_t>(pick(kPoolRegs))};
  };
  IssueQueue iq(capacity);
  RefIssueQueue ref;
  std::uint64_t next_seq[kMaxThreads] = {};
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const int op = pick(100);
    if (op < 45) {
      IqEntry e;
      e.tid = pick(static_cast<std::uint64_t>(threads));
      next_seq[e.tid] += 1 + static_cast<std::uint64_t>(pick(4));
      e.seq = next_seq[e.tid];
      e.cls = static_cast<trace::UopClass>(pick(trace::kNumUopClasses));
      e.src0 = pick(4) == 0 ? kNoPhysRef : random_reg();
      const int shape = pick(4);
      e.src1 = shape == 0 ? kNoPhysRef : shape == 1 ? e.src0 : random_reg();
      const bool ready0 = pick(2) == 0;
      const bool ready1 = pick(2) == 0;
      const int slot = iq.insert(e, ready0, ready1);
      if (static_cast<int>(ref.live.size()) == capacity) {
        ASSERT_EQ(slot, -1);
      } else {
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, capacity);
        ASSERT_EQ(ref.live.count(slot), 0u) << "slot " << slot << " reused";
        RefIssueQueue::Entry& r = ref.live[slot];
        r.entry = e;
        r.watch[0] = e.src0.valid() && !ready0;
        r.watch[1] = e.src1.valid() && !ready1;
      }
    } else if (op < 70) {
      if (ref.live.empty()) continue;
      auto victim = ref.live.begin();
      std::advance(victim, pick(ref.live.size()));
      iq.remove(victim->first);
      ref.live.erase(victim);
    } else {
      const PhysRef reg = random_reg();
      iq.wakeup(reg.cls, reg.index);
      ref.wakeup(reg.cls, reg.index);
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(iq, ref, threads));
  }
}

TEST(IssueQueueRandom, MatchesReferenceModel) {
  for (const int capacity : {1, 7, 32, 64, 65, 200}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const int threads = seed % 2 == 0 ? kMaxThreads : 2;
      ASSERT_NO_FATAL_FAILURE(
          run_random_iq(capacity, seed * 7919 + static_cast<std::uint64_t>(
                                                    capacity),
                        threads, 1500));
    }
  }
}

TEST(Ports, CompatibilityMatrix) {
  EXPECT_TRUE(PortSet::compatible(0, trace::PortClass::kInt));
  EXPECT_TRUE(PortSet::compatible(1, trace::PortClass::kInt));
  EXPECT_TRUE(PortSet::compatible(2, trace::PortClass::kInt));
  EXPECT_TRUE(PortSet::compatible(0, trace::PortClass::kFpSimd));
  EXPECT_TRUE(PortSet::compatible(1, trace::PortClass::kFpSimd));
  EXPECT_FALSE(PortSet::compatible(2, trace::PortClass::kFpSimd));
  EXPECT_FALSE(PortSet::compatible(0, trace::PortClass::kMem));
  EXPECT_FALSE(PortSet::compatible(1, trace::PortClass::kMem));
  EXPECT_TRUE(PortSet::compatible(2, trace::PortClass::kMem));
}

TEST(Ports, OneMemPortPerCycle) {
  PortSet ports;
  ports.new_cycle();
  EXPECT_TRUE(ports.try_book(trace::PortClass::kMem));
  EXPECT_FALSE(ports.try_book(trace::PortClass::kMem));
  ports.new_cycle();
  EXPECT_TRUE(ports.try_book(trace::PortClass::kMem));
}

TEST(Ports, IntPrefersNonMemPorts) {
  PortSet ports;
  ports.new_cycle();
  EXPECT_TRUE(ports.try_book(trace::PortClass::kInt));   // takes P0
  EXPECT_TRUE(ports.try_book(trace::PortClass::kInt));   // takes P1
  EXPECT_TRUE(ports.try_book(trace::PortClass::kMem));   // P2 still free
  EXPECT_FALSE(ports.try_book(trace::PortClass::kFpSimd));
}

TEST(Ports, ThreeIntMaxPerCycle) {
  PortSet ports;
  ports.new_cycle();
  EXPECT_TRUE(ports.try_book(trace::PortClass::kInt));
  EXPECT_TRUE(ports.try_book(trace::PortClass::kInt));
  EXPECT_TRUE(ports.try_book(trace::PortClass::kInt));
  EXPECT_FALSE(ports.try_book(trace::PortClass::kInt));
}

TEST(Ports, FreeCompatibleCounts) {
  PortSet ports;
  ports.new_cycle();
  EXPECT_EQ(ports.free_compatible(trace::PortClass::kInt), 3);
  EXPECT_EQ(ports.free_compatible(trace::PortClass::kFpSimd), 2);
  EXPECT_EQ(ports.free_compatible(trace::PortClass::kMem), 1);
  (void)ports.try_book(trace::PortClass::kFpSimd);
  EXPECT_EQ(ports.free_compatible(trace::PortClass::kFpSimd), 1);
  EXPECT_EQ(ports.free_compatible(trace::PortClass::kInt), 2);
}

/// The ascending-scan formulation PortSet's masks replace: book the
/// lowest-numbered free port compatible with the class.
class LoopPorts {
 public:
  explicit LoopPorts(int n) : n_(n) {}
  bool try_book(trace::PortClass cls) {
    for (int p = 0; p < n_; ++p) {
      if (!busy_[p] && PortSet::compatible(p, cls, n_)) {
        busy_[p] = true;
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] int free_compatible(trace::PortClass cls) const {
    int count = 0;
    for (int p = 0; p < n_; ++p) {
      if (!busy_[p] && PortSet::compatible(p, cls, n_)) ++count;
    }
    return count;
  }
  [[nodiscard]] bool busy(int p) const { return busy_[p]; }
  [[nodiscard]] bool all_booked() const {
    for (int p = 0; p < n_; ++p) {
      if (!busy_[p]) return false;
    }
    return true;
  }

 private:
  int n_;
  bool busy_[PortSet::kMaxPorts] = {};
};

TEST(Ports, MasksMatchLoopFormulationForEveryWidth) {
  // Every booking sequence one longer than the width, for widths 1-8.
  for (int width = 1; width <= PortSet::kMaxPorts; ++width) {
    int sequences = 1;
    for (int i = 0; i <= width; ++i) sequences *= trace::kNumPortClasses;
    for (int code = 0; code < sequences; ++code) {
      PortSet ports(width);
      LoopPorts loop(width);
      int rest = code;
      for (int step = 0; step <= width; ++step) {
        const auto cls =
            static_cast<trace::PortClass>(rest % trace::kNumPortClasses);
        rest /= trace::kNumPortClasses;
        ASSERT_EQ(ports.try_book(cls), loop.try_book(cls))
            << "width " << width << " sequence " << code << " step " << step;
        for (int p = 0; p < width; ++p) {
          ASSERT_EQ(ports.port_busy(p), loop.busy(p))
              << "width " << width << " sequence " << code << " port " << p;
        }
        for (int k = 0; k < trace::kNumPortClasses; ++k) {
          const auto pc = static_cast<trace::PortClass>(k);
          ASSERT_EQ(ports.free_compatible(pc), loop.free_compatible(pc));
          ASSERT_EQ(ports.can_book(pc), loop.free_compatible(pc) > 0);
        }
        ASSERT_EQ(ports.all_booked(), loop.all_booked());
      }
      ports.new_cycle();
      EXPECT_EQ(ports.free_compatible(trace::PortClass::kInt), width);
    }
  }
}

TEST(Interconnect, BandwidthPerCycle) {
  Interconnect net(2, 1);
  net.new_cycle();
  EXPECT_TRUE(net.try_acquire());
  EXPECT_TRUE(net.try_acquire());
  EXPECT_FALSE(net.try_acquire());
  EXPECT_EQ(net.stats().transfers, 2u);
  EXPECT_EQ(net.stats().denied, 1u);
  net.new_cycle();
  EXPECT_TRUE(net.try_acquire());
}

TEST(Cluster, BundlesComponents) {
  Cluster cluster(ClusterConfig{.iq_entries = 16, .int_registers = 8,
                                .fp_registers = 4});
  EXPECT_EQ(cluster.iq().capacity(), 16);
  EXPECT_EQ(cluster.rf(RegClass::kInt).capacity(), 8);
  EXPECT_EQ(cluster.rf(RegClass::kFp).capacity(), 4);
}

}  // namespace
}  // namespace clusmt::backend
