// Chaos-hardening of the run store under a sharded sweep
// (common/faultpoint.h): static shards fill their stores under randomized
// torn-write and read-error schedules, the stores are merged (still under
// faults), and a warm run over the merged store must emit tables
// BYTE-identical to a fault-free run and leave exactly the fault-free
// records behind (one valid record per cell, byte for byte). Also covers
// the full-disk degradation of the run store to a memory-only tier.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/faultpoint.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/run_store.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "trace/workload.h"

namespace clusmt::harness {
namespace {

namespace fs = std::filesystem;

// Captured before any test runs (ChaosTest fixtures unset the variable):
// the schedule the CI job exported, if any.
const std::string g_ambient_faults = [] {
  const char* env = std::getenv("CLUSMT_FAULTS");
  return env != nullptr ? std::string(env) : std::string();
}();

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Neutralize any ambient schedule (e.g. the CI smoke arming): every
    // test arms exactly the faults it wants, and the fault-free reference
    // runs must really be fault-free.
    faultpoint::disarm_all();
    ::unsetenv("CLUSMT_FAULTS");
    std::string tmpl =
        (fs::temp_directory_path() / "clusmt_chaos_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    faultpoint::disarm_all();
    ::unsetenv("CLUSMT_FAULTS");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string subdir(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

/// Same small grid as shard_test: 2 schemes x 3 workloads with fairness
/// baselines — grid cells, dedup, and shared baselines, kept quick.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.suite = trace::build_quick_suite(1, 1, 2);
  spec.suite.resize(3);
  spec.cycles = 1500;
  spec.warmup = 300;
  spec.jobs = 2;
  spec.with_fairness = true;
  spec.progress = false;
  spec.base = paper_baseline();
  spec.axes = {{"scheme",
                {{"Icount",
                  [](core::SimConfig& c) {
                    c.policy = policy::PolicyKind::kIcount;
                  }},
                 {"CDPRF", [](core::SimConfig& c) {
                    c.policy = policy::PolicyKind::kCdprf;
                  }}}}};
  return spec;
}

/// The emitted artifact bytes, as a bench would write them.
std::string render_csv(const SweepResult& result) {
  std::vector<std::pair<std::string, std::vector<double>>> series;
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    series.emplace_back(result.points[p].label + " thr",
                        result.throughput(p));
    series.emplace_back(result.points[p].label + " fair",
                        result.fairness(p));
  }
  return category_table(result.suite, series, 6).to_csv();
}

std::string render_json(const SweepResult& result) {
  std::vector<std::pair<std::string, std::vector<double>>> series;
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    series.emplace_back(result.points[p].label, result.throughput(p));
  }
  return category_table(result.suite, series, 6).to_json();
}

/// Every .run record under `dir`, keyed by store-relative path. Temp files
/// are deliberately not collected: they are invisible to readers, which is
/// the point of atomic writes.
std::map<std::string, std::string> store_records(const std::string& dir) {
  std::map<std::string, std::string> out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code fec;
    if (!it->is_regular_file(fec) || it->path().extension() != ".run") {
      continue;
    }
    std::ifstream in(it->path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::error_code rel_ec;
    out.emplace(fs::relative(it->path(), dir, rel_ec).string(),
                std::move(bytes));
  }
  return out;
}

// Two static shards and their merge run under torn writes (fsio.write
// partial) and read errors (run_store.load error); the warm run keeps the
// read errors. Torn source records are skipped by the merge, torn merged
// records fail validation on load, and either way the warm run recomputes
// the cell, so the tables and the final store must match the fault-free
// reference exactly.
TEST_F(ChaosTest, ShardedSweepUnderFaultScheduleMatchesFaultFreeRun) {
  // Fault-free reference: the table bytes and the exact store records.
  SweepSpec ref_spec = small_spec();
  RunCache ref_cache;
  ref_cache.set_store_dir(subdir("store-ref"));
  ref_spec.cache = &ref_cache;
  const SweepResult reference = run_sweep(ref_spec);
  const std::string ref_csv = render_csv(reference);
  const std::string ref_json = render_json(reference);
  const auto ref_records = store_records(subdir("store-ref"));
  ASSERT_FALSE(ref_records.empty());

  std::uint64_t torn_writes = 0;
  std::uint64_t read_errors = 0;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("chaos round " + std::to_string(round));
    const std::string tag = std::to_string(round);
    const std::string seed = std::to_string(100 + round);
    ASSERT_TRUE(faultpoint::arm_from_spec("fsio.write:partial:0.3:" + seed +
                                          ";run_store.load:error:0.3:" +
                                          seed));

    const std::string merged = subdir("merged-" + tag);
    for (int index = 0; index < 2; ++index) {
      RunCache cache;
      const std::string store =
          subdir("shard-" + tag + "-" + std::to_string(index));
      cache.set_store_dir(store);
      SweepSpec spec = small_spec();
      spec.cache = &cache;
      spec.shard = {index, 2};
      (void)fill_shard(spec, spec.expand_points());
      const MergeResult r = merge_run_store(merged, store);
      EXPECT_EQ(r.conflicts + r.failed, 0u);
    }

    // The warm run writes fault-free (a torn write there would leave a
    // torn record behind) but still reads through injected errors.
    torn_writes += faultpoint::fires("fsio.write");
    ASSERT_TRUE(faultpoint::disarm("fsio.write"));
    RunCache cache;
    cache.set_store_dir(merged);
    SweepSpec spec = small_spec();
    spec.cache = &cache;
    const SweepResult result = run_sweep(spec);
    read_errors += faultpoint::fires("run_store.load");
    faultpoint::disarm_all();

    // Tables byte-identical to the fault-free run.
    EXPECT_EQ(render_csv(result), ref_csv);
    EXPECT_EQ(render_json(result), ref_json);

    // The merged store holds exactly the fault-free records: one per cell,
    // byte for byte (torn and duplicate writes never leave a second or
    // different version).
    const auto records = store_records(merged);
    EXPECT_EQ(records.size(), ref_records.size());
    for (const auto& [rel, bytes] : ref_records) {
      const auto it = records.find(rel);
      ASSERT_NE(it, records.end()) << "missing record " << rel;
      EXPECT_EQ(it->second, bytes) << "record bytes differ: " << rel;
    }
  }
  EXPECT_GT(torn_writes, 0u) << "the schedule must actually tear writes";
  EXPECT_GT(read_errors, 0u) << "the schedule must actually fail reads";
}

TEST_F(ChaosTest, FullDiskStoreDegradesToMemoryOnlyWithWarning) {
  // Every save fails (the disk is "full" from the first write): the sweep
  // must complete with correct numbers, warn once, and demote the store to
  // memory-only instead of aborting or warning per cell.
  SweepSpec ref_spec = small_spec();
  RunCache ref_cache;  // no store attached: pure in-memory reference
  ref_spec.cache = &ref_cache;
  const std::string ref_csv = render_csv(run_sweep(ref_spec));

  faultpoint::arm("run_store.save", faultpoint::Mode::kError);
  RunCache cache;
  cache.set_store_dir(subdir("store"));
  SweepSpec spec = small_spec();
  spec.cache = &cache;
  ::testing::internal::CaptureStderr();
  const SweepResult result = run_sweep(spec);
  const std::string log = ::testing::internal::GetCapturedStderr();
  faultpoint::disarm_all();

  EXPECT_EQ(render_csv(result), ref_csv) << "degradation must not change "
                                            "results";
  EXPECT_TRUE(cache.store_write_degraded());
  EXPECT_GE(cache.save_failures(),
            static_cast<std::uint64_t>(RunCache::kDegradeAfterSaveFailures));
  EXPECT_NE(log.find("degraded to memory-only"), std::string::npos) << log;
  EXPECT_TRUE(store_records(subdir("store")).empty())
      << "no record can land while every write fails";

  // Re-attaching a (healthy) store clears the degradation.
  cache.set_store_dir(subdir("store2"));
  EXPECT_FALSE(cache.store_write_degraded());
}

// CI smoke hook: when the job exports an ambient CLUSMT_FAULTS (the ASan
// lane does), its schedule must at least parse — a typo in the workflow
// should fail loudly here instead of silently arming nothing.
TEST(ChaosEnvSmoke, AmbientScheduleParsesCleanly) {
  if (g_ambient_faults.empty()) GTEST_SKIP() << "no ambient CLUSMT_FAULTS";
  EXPECT_TRUE(faultpoint::arm_from_spec(g_ambient_faults))
      << g_ambient_faults;
  faultpoint::disarm_all();
}

}  // namespace
}  // namespace clusmt::harness
