// Differential coverage for the replay-tape trace datapath: a TapeTrace
// replaying a TraceTape must produce exactly the µop stream of the live
// SyntheticTrace generator it recorded — every field, in order — for every
// workload character, across seeds, across the frozen-tape live-fallback
// seam, and through a full simulation including wrong-path fetch, squashes
// and policy flush/replay. This is the trace layer's analogue of the issue
// stage's kScanReference oracle (and of trace_flat_test.cc one level up):
// the tape records the generator's own output, so any divergence is a tape
// bug (chunk indexing, freeze seam, registry keying), never an RNG one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "harness/presets.h"
#include "harness/runner.h"
#include "harness/tape_registry.h"
#include "trace/profile.h"
#include "trace/synthetic.h"
#include "trace/tape.h"
#include "trace/workload.h"
#include "stats_equal.h"

namespace clusmt::trace {
namespace {

void expect_same_uop(const MicroOp& a, const MicroOp& b,
                     const std::string& at) {
  ASSERT_EQ(a.pc, b.pc) << at;
  ASSERT_EQ(a.cls, b.cls) << at;
  ASSERT_EQ(a.dst, b.dst) << at;
  ASSERT_EQ(a.src0, b.src0) << at;
  ASSERT_EQ(a.src1, b.src1) << at;
  ASSERT_EQ(a.mem_addr, b.mem_addr) << at;
  ASSERT_EQ(a.taken, b.taken) << at;
  ASSERT_EQ(a.indirect, b.indirect) << at;
  ASSERT_EQ(a.target, b.target) << at;
  ASSERT_EQ(a.fallthrough, b.fallthrough) << at;
}

/// Replays `uops` µops through a fresh tape (mixed fill sizes) against a
/// lockstep live generator over the same (program, seed).
void expect_tape_matches_live(const TraceProfile& profile, std::uint64_t seed,
                              int uops, const std::string& label) {
  auto program = std::make_shared<const SyntheticProgram>(profile, seed);
  TraceTape tape(program, seed, /*budget=*/nullptr);
  TapeTrace replay(
      std::shared_ptr<TraceTape>(&tape, [](TraceTape*) {}));
  SyntheticTrace live(program, seed);
  MicroOp buf[13];
  int emitted = 0;
  while (emitted < uops) {
    const int n = 1 + emitted % 13;
    replay.fill(buf, n);
    for (int i = 0; i < n; ++i) {
      expect_same_uop(buf[i], live.next(),
                      label + " uop #" + std::to_string(emitted + i));
    }
    emitted += n;
  }
}

TEST(TraceTapeDifferential, AllCharactersKindsVariantsMatchLive) {
  for (Category cat : all_plain_categories()) {
    for (TraceKind kind : {TraceKind::kIlp, TraceKind::kMem}) {
      for (int v = 0; v < TracePool::kVariantsPerKind; ++v) {
        const TraceProfile profile = make_profile(cat, kind, v);
        expect_tape_matches_live(profile, /*seed=*/7 + v, /*uops=*/4000,
                                 profile.name);
      }
    }
  }
}

TEST(TraceTapeDifferential, SeedSweepMatchesLive) {
  const TraceProfile profile =
      make_profile(Category::kISpec00, TraceKind::kIlp, 0);
  for (std::uint64_t seed : {1ull, 2ull, 42ull, 0xDEADBEEFull, 1ull << 40}) {
    expect_tape_matches_live(profile, seed, /*uops=*/5000,
                             profile.name + "@seed" + std::to_string(seed));
  }
}

TEST(TraceTapeDifferential, FrozenTapeContinuesLiveBitIdentically) {
  // A one-chunk budget freezes the tape at the first chunk boundary; a
  // reader demanding three chunks must cross the freeze seam without a
  // single diverging µop, and a second reader must replay the recorded
  // prefix then go live independently.
  const TraceProfile profile =
      make_profile(Category::kServer, TraceKind::kMem, 1);
  constexpr std::uint64_t kSeed = 11;
  auto program = std::make_shared<const SyntheticProgram>(profile, kSeed);
  TapeBudget budget(TraceTape::kChunkBytes);
  const int uops = static_cast<int>(3 * TraceTape::kChunkUops);
  {
    TraceTape tape(program, kSeed, &budget);
    auto shared = std::shared_ptr<TraceTape>(&tape, [](TraceTape*) {});
    TapeTrace reader_a(shared);
    TapeTrace reader_b(shared);
    SyntheticTrace live_a(program, kSeed);
    std::vector<MicroOp> got(static_cast<std::size_t>(uops));
    reader_a.fill(got.data(), uops);
    EXPECT_TRUE(tape.frozen());
    EXPECT_TRUE(reader_a.went_live());
    EXPECT_EQ(tape.recorded(), TraceTape::kChunkUops);
    for (int i = 0; i < uops; ++i) {
      expect_same_uop(got[i], live_a.next(),
                      "reader A uop #" + std::to_string(i));
    }
    // Reader B starts after the freeze: recorded prefix from the tape,
    // remainder from its own clone of the parked recorder.
    SyntheticTrace live_b(program, kSeed);
    reader_b.fill(got.data(), uops);
    EXPECT_TRUE(reader_b.went_live());
    for (int i = 0; i < uops; ++i) {
      expect_same_uop(got[i], live_b.next(),
                      "reader B uop #" + std::to_string(i));
    }
  }
  // The destroyed tape returns its chunk storage to the budget.
  EXPECT_EQ(budget.remaining(), TraceTape::kChunkBytes);
}

static_assert(sizeof(PackedUop) == 16, "tape records are 16 bytes per µop");
static_assert(TraceTape::kChunkBytes ==
              TraceTape::kChunkUops * sizeof(PackedUop));

TEST(TraceTapeDifferential, PackedRecordKeepsTakenWhenTargetsCoincide) {
  // Two-block programs whose non-indirect branches are all data-dependent:
  // some branch's taken and fallthrough successors coincide, so its target
  // is the same either way and the replayed `taken` must come from the
  // record, not from comparing target and fallthrough.
  TraceProfile profile = make_profile(Category::kISpec00, TraceKind::kIlp, 0);
  profile.num_blocks = 2;
  profile.indirect_fraction = 0.0;
  profile.hard_branch_fraction = 1.0;
  profile.name += "+coinciding";
  for (std::uint64_t seed = 1;; ++seed) {
    ASSERT_LT(seed, 64u) << "no program with a coinciding branch";
    auto program = std::make_shared<const SyntheticProgram>(profile, seed);
    const std::vector<BlockInfo>& info = program->block_info();
    const auto coinciding =
        std::find_if(info.begin(), info.end(), [](const BlockInfo& bi) {
          return !bi.indirect && bi.taken_next == bi.fallthrough_next;
        });
    if (coinciding == info.end()) continue;

    TraceTape tape(program, seed, /*budget=*/nullptr);
    TapeTrace replay(std::shared_ptr<TraceTape>(&tape, [](TraceTape*) {}));
    SyntheticTrace live(program, seed);
    int outcomes[2] = {0, 0};
    for (int i = 0; i < 4000; ++i) {
      const MicroOp want = live.next();
      const MicroOp got = replay.next();
      expect_same_uop(got, want, "uop #" + std::to_string(i));
      if (want.is_branch() && want.pc == coinciding->branch_pc) {
        ++outcomes[want.taken ? 1 : 0];
      }
    }
    EXPECT_GT(outcomes[0], 0) << "coinciding branch never fell through";
    EXPECT_GT(outcomes[1], 0) << "coinciding branch never taken";
    return;
  }
}

TEST(TraceTapeDifferential, ChunkTableSizedToBudget) {
  const TraceProfile profile =
      make_profile(Category::kISpec00, TraceKind::kIlp, 1);
  auto program = std::make_shared<const SyntheticProgram>(profile, 9);
  for (std::uint64_t bytes :
       {std::uint64_t{0}, TraceTape::kChunkBytes - 1,
        3 * TraceTape::kChunkBytes, std::uint64_t{1} << 30}) {
    TapeBudget budget(bytes);
    TraceTape tape(program, 9, &budget);
    EXPECT_LE(tape.chunk_capacity(), bytes / TraceTape::kChunkBytes + 1)
        << "budget " << bytes;
  }
  // A zero budget records nothing: the first demand freezes the tape, and
  // a reader goes live from the start with the same stream.
  TapeBudget empty(0);
  TraceTape tape(program, 9, &empty);
  TapeTrace reader(std::shared_ptr<TraceTape>(&tape, [](TraceTape*) {}));
  SyntheticTrace live(program, 9);
  MicroOp buf[32];
  reader.fill(buf, 32);
  EXPECT_TRUE(tape.frozen());
  EXPECT_TRUE(reader.went_live());
  for (int i = 0; i < 32; ++i) {
    expect_same_uop(buf[i], live.next(), "uop #" + std::to_string(i));
  }
}

TEST(TraceTapeDifferential, MaxUopsCapFreezesUnbudgetedTape) {
  const TraceProfile profile =
      make_profile(Category::kMultimedia, TraceKind::kIlp, 0);
  auto program = std::make_shared<const SyntheticProgram>(profile, 3);
  TraceTape tape(program, 3, /*budget=*/nullptr,
                 /*max_uops=*/TraceTape::kChunkUops);
  EXPECT_EQ(tape.extend_to(2 * TraceTape::kChunkUops), TraceTape::kChunkUops);
  EXPECT_TRUE(tape.frozen());
}

}  // namespace
}  // namespace clusmt::trace

namespace clusmt::harness {
namespace {

using core::expect_stats_equal;

core::SimStats run_cell(const core::SimConfig& config,
                        const trace::WorkloadSpec& workload) {
  // simulate_workload routes thread attachment through the tape registry,
  // so the enabled flag picks the datapath under test.
  return simulate_workload(config, workload, /*cycles=*/5000, /*warmup=*/1000)
      .stats;
}

trace::WorkloadSpec squashy_workload(std::uint64_t seed) {
  const trace::TracePool pool(seed);
  trace::WorkloadSpec w;
  w.name = "tape-squashy";
  w.category = "TEST";
  w.type = "mix";
  w.threads = {pool.get(trace::Category::kISpec00, trace::TraceKind::kIlp, 0),
               pool.get(trace::Category::kFSpec00, trace::TraceKind::kMem, 1)};
  for (auto& t : w.threads) {
    // Mispredict-heavy traces keep wrong-path fetch and squash replay
    // permanently busy — the paths a rewinding tape cursor would break.
    t.profile.hard_branch_fraction = 0.5;
    t.profile.name += "+squashy";
  }
  return w;
}

TEST(TapeRegistryDifferential, FullSimWithSquashesMatchesNoTape) {
  TapeRegistry& reg = TapeRegistry::instance();
  const trace::WorkloadSpec workload = squashy_workload(/*seed=*/7);
  for (const policy::PolicyKind scheme :
       {policy::PolicyKind::kIcount, policy::PolicyKind::kFlushPlus}) {
    core::SimConfig config = rf_study_config(64);
    config.policy = scheme;
    const std::string label(policy::policy_kind_name(scheme));
    reg.clear();
    reg.set_enabled(true);
    const core::SimStats taped = run_cell(config, workload);
    EXPECT_EQ(reg.recordings(), 2u) << label;
    reg.set_enabled(false);
    const core::SimStats live = run_cell(config, workload);
    EXPECT_EQ(reg.live_sources(), 2u) << label;
    reg.set_enabled(true);
    expect_stats_equal(taped, live, label);
  }
}

TEST(TapeRegistry, CrossCellReuseRecordsOnce) {
  // Two sweep cells sharing (profile, seed) traces — same workload under
  // two different machine configs — must record each trace once and replay
  // it for every later attachment.
  TapeRegistry& reg = TapeRegistry::instance();
  reg.clear();
  reg.set_enabled(true);
  const trace::TracePool pool(/*master_seed=*/1);
  trace::WorkloadSpec w;
  w.name = "reuse";
  w.category = "TEST";
  w.type = "ilp";
  w.threads = {pool.get(trace::Category::kISpec00, trace::TraceKind::kIlp, 0),
               pool.get(trace::Category::kISpec00, trace::TraceKind::kIlp, 1)};

  core::SimConfig a = rf_study_config(64);
  (void)run_cell(a, w);
  EXPECT_EQ(reg.recordings(), 2u);
  EXPECT_EQ(reg.hits(), 0u);
  EXPECT_EQ(reg.size(), 2u);

  core::SimConfig b = rf_study_config(64);
  b.policy = policy::PolicyKind::kCssp;  // different cell, same traces
  (void)run_cell(b, w);
  EXPECT_EQ(reg.recordings(), 2u) << "second cell re-recorded a tape";
  EXPECT_EQ(reg.hits(), 2u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(TapeRegistry, ContentKeyedNotNameKeyed) {
  // Same display name, different seed => distinct tapes; the registry keys
  // on trace *content* exactly like the baseline cache.
  TapeRegistry& reg = TapeRegistry::instance();
  reg.clear();
  reg.set_enabled(true);
  const trace::TracePool pool(/*master_seed=*/1);
  trace::TraceSpec spec =
      pool.get(trace::Category::kServer, trace::TraceKind::kMem, 0);
  (void)reg.source_for(spec);
  trace::TraceSpec renamed = spec;
  renamed.profile.name = "alias";
  (void)reg.source_for(renamed);
  EXPECT_EQ(reg.recordings(), 1u) << "name change must not split the tape";
  spec.seed += 1;
  (void)reg.source_for(spec);
  EXPECT_EQ(reg.recordings(), 2u) << "seed change must split the tape";
}

}  // namespace
}  // namespace clusmt::harness
