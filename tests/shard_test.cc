// Static sharding (harness/shard.h): `--shard I/N` runs each fill their
// own run store with the cells they own; merged, the stores make a plain
// run fully warm with tables byte-identical to an in-process run. Covers
// N in {1, 2, 3} (every cell owned exactly once), the key partition itself,
// the shard run's exit, and the two usage errors: no --cache-dir and a
// malformed --shard value.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/run_key.h"
#include "harness/run_store.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "trace/workload.h"

namespace clusmt::harness {
namespace {

namespace fs = std::filesystem;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "clusmt_shard_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string subdir(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

/// The small two-point grid every test runs: 2 schemes x 3 workloads with
/// fairness baselines, enough to exercise grid cells, dedup, and baselines
/// shared across points while staying quick.
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

TEST_F(ShardTest, ShardsMergeIntoAWarmStoreWithIdenticalTables) {
  RunCache ref_cache;
  SweepSpec ref_spec = small_spec();
  ref_spec.cache = &ref_cache;
  const SweepResult reference = run_sweep(ref_spec);
  ASSERT_GT(reference.cache_misses, 0u);

  for (const int count : {1, 2, 3}) {
    SCOPED_TRACE(std::to_string(count) + " shards");
    const std::string tag = std::to_string(count);
    const std::string merged = subdir("merged-" + tag);
    std::size_t simulated = 0;
    for (int index = 0; index < count; ++index) {
      // Each shard is its own "host": a cold cache over its own store.
      RunCache cache;
      const std::string store =
          subdir("shard-" + tag + "-" + std::to_string(index));
      cache.set_store_dir(store);
      SweepSpec spec = small_spec();
      spec.cache = &cache;
      spec.shard = {index, count};
      const ShardStats stats = fill_shard(spec, spec.expand_points());
      EXPECT_EQ(stats.cells, reference.cache_misses);
      EXPECT_EQ(stats.simulated, stats.owned) << "cold shard " << index;
      simulated += stats.simulated;

      const MergeResult r = merge_run_store(merged, store);
      EXPECT_EQ(r.copied, stats.owned) << "shard " << index;
      EXPECT_EQ(r.identical + r.conflicts + r.invalid + r.failed, 0u);
    }
    EXPECT_EQ(simulated, reference.cache_misses)
        << "every cell is owned by exactly one shard";

    RunCache warm;
    warm.set_store_dir(merged);
    SweepSpec spec = small_spec();
    spec.cache = &warm;
    const SweepResult result = run_sweep(spec);
    EXPECT_EQ(result.cache_misses, 0u) << "the merged store is complete";
    EXPECT_EQ(result.cache_disk_hits, reference.cache_misses);
    EXPECT_EQ(render_csv(result), render_csv(reference));
    EXPECT_EQ(render_json(result), render_json(reference));
  }
}

TEST(ShardOwns, RealRunKeysSplitIntoFairShares) {
  // The keys of a real grid (quick suite x 3 schemes), not synthetic ones:
  // run keys are FNV digests, whose low bits alone are not uniform.
  std::vector<RunKey> keys;
  core::SimConfig config = paper_baseline();
  for (const policy::PolicyKind kind :
       {policy::PolicyKind::kIcount, policy::PolicyKind::kCssp,
        policy::PolicyKind::kCdprf}) {
    config.policy = kind;
    for (const trace::WorkloadSpec& w : trace::build_quick_suite(1)) {
      keys.push_back(run_key(config, w, 20000, 5000));
    }
  }
  for (int count = 1; count <= 5; ++count) {
    std::vector<std::size_t> owned(count, 0);
    for (const RunKey& key : keys) {
      int owners = 0;
      for (int index = 0; index < count; ++index) {
        if (shard_owns({index, count}, key)) {
          ++owners;
          ++owned[index];
        }
      }
      EXPECT_EQ(owners, 1) << "count " << count;
    }
    for (int index = 0; index < count; ++index) {
      EXPECT_GE(owned[index] * 2 * count, keys.size())
          << "shard " << index << "/" << count << " owns " << owned[index]
          << " of " << keys.size() << " keys";
    }
  }
  EXPECT_TRUE(shard_owns({}, RunKey{1, 2})) << "unsharded owns everything";
}

/// run_sweep as a `--shard 1/2` bench would call it; never returns.
void run_shard_one_of_two(const std::string& store) {
  RunCache cache;
  cache.set_store_dir(store);
  SweepSpec spec = small_spec();
  spec.cache = &cache;
  spec.progress = true;
  spec.shard = {1, 2};
  (void)run_sweep(spec);
  std::exit(3);  // not reached: run_sweep ends a shard run
}

TEST_F(ShardTest, ShardRunExitsZeroWithoutATable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(run_shard_one_of_two(subdir("store")),
              ::testing::ExitedWithCode(0),
              "\\[shard\\] 1/2: owns [0-9]+ of");
}

TEST_F(ShardTest, ShardWithoutCacheDirIsAnActionableError) {
  RunCache cache;  // no store dir attached
  SweepSpec spec = small_spec();
  spec.cache = &cache;
  spec.shard = {0, 2};
  try {
    (void)run_sweep(spec);
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--shard requires a --cache-dir"),
              std::string::npos)
        << e.what();
  }
}

ShardSpec parse(const char* value, const std::string& cache_dir = "runs") {
  const char* argv[] = {"bench", value};
  return shard_flag(CliArgs(2, argv), cache_dir);
}

TEST(ShardFlag, ParsesIndexOverCount) {
  const ShardSpec shard = parse("--shard=2/3");
  EXPECT_EQ(shard.index, 2);
  EXPECT_EQ(shard.count, 3);
  const char* argv[] = {"bench"};
  EXPECT_EQ(shard_flag(CliArgs(1, argv), "").count, 0)
      << "absent: unsharded, with or without a cache dir";
}

TEST(ShardFlag, ShardWithoutCacheDirIsAUsageError) {
  EXPECT_EXIT((void)parse("--shard=0/2", ""), ::testing::ExitedWithCode(2),
              "--shard needs --cache-dir");
}

TEST(ShardFlag, MalformedValueIsAUsageError) {
  for (const char* bad :
       {"--shard=2/2", "--shard=0/0", "--shard=-1/2", "--shard=1",
        "--shard=a/b", "--shard=1/2/3", "--shard=1/2x", "--shard= 1/2",
        "--shard=", "--shard"}) {
    EXPECT_EXIT((void)parse(bad), ::testing::ExitedWithCode(2),
                "--shard expects I/N")
        << bad;
  }
}

}  // namespace
}  // namespace clusmt::harness
