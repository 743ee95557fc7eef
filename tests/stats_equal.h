// Field-by-field core::SimStats equality for the differential oracle tests
// (a fast path against its reference model). Lists every SimStats field —
// a field added to SimStats belongs here too, or the oracles stop
// checking it — and names the first diverging field in the failure.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/stats.h"

namespace clusmt::core {

// Trips when SimStats grows a counter this helper does not compare.
static_assert(sizeof(SimStats) ==
                  sizeof(std::uint64_t) *
                      (24 + kMaxThreads + 2 * trace::kNumPortClasses),
              "SimStats changed: update expect_stats_equal");

inline void expect_stats_equal(const SimStats& a, const SimStats& b,
                               const std::string& label) {
#define CLUSMT_EXPECT_FIELD(field) \
  EXPECT_EQ(a.field, b.field) << label << ": SimStats::" #field " diverged"
  CLUSMT_EXPECT_FIELD(cycles);
  for (int t = 0; t < kMaxThreads; ++t) CLUSMT_EXPECT_FIELD(committed[t]);
  CLUSMT_EXPECT_FIELD(committed_copies);
  CLUSMT_EXPECT_FIELD(committed_branches);
  CLUSMT_EXPECT_FIELD(committed_loads);
  CLUSMT_EXPECT_FIELD(committed_stores);
  CLUSMT_EXPECT_FIELD(renamed_uops);
  CLUSMT_EXPECT_FIELD(copies_created);
  CLUSMT_EXPECT_FIELD(rename_cycles);
  CLUSMT_EXPECT_FIELD(rename_blocked_cycles);
  CLUSMT_EXPECT_FIELD(rename_block_iq);
  CLUSMT_EXPECT_FIELD(rename_block_rf);
  CLUSMT_EXPECT_FIELD(rename_block_rob);
  CLUSMT_EXPECT_FIELD(rename_block_mob);
  CLUSMT_EXPECT_FIELD(iq_pref_stall_events);
  CLUSMT_EXPECT_FIELD(non_preferred_dispatches);
  CLUSMT_EXPECT_FIELD(issued_uops);
  CLUSMT_EXPECT_FIELD(cycles_with_issue);
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < trace::kNumPortClasses; ++k) {
      CLUSMT_EXPECT_FIELD(imbalance_events[i][k]);
    }
  }
  CLUSMT_EXPECT_FIELD(squashed_uops);
  CLUSMT_EXPECT_FIELD(branches_resolved);
  CLUSMT_EXPECT_FIELD(mispredicts_resolved);
  CLUSMT_EXPECT_FIELD(policy_flushes);
  CLUSMT_EXPECT_FIELD(load_l2_misses);
  CLUSMT_EXPECT_FIELD(store_l2_misses);
  CLUSMT_EXPECT_FIELD(load_forwards);
#undef CLUSMT_EXPECT_FIELD
}

}  // namespace clusmt::core
