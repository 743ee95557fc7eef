// Persistence tier of the run cache: record round-trips, cross-instance
// ("cross-process") reuse through a shared directory, corruption and
// version-bump fallback to recompute, concurrent writers, the sweep-level
// zero-simulation guarantee on a warm cache dir, GC, and the store merge
// that joins the stores of a sharded sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "common/faultpoint.h"
#include "common/thread_pool.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/run_store.h"
#include "harness/sweep.h"
#include "trace/workload.h"

namespace clusmt::harness {
namespace {

namespace fs = std::filesystem;

/// Fresh unique cache dir per test, removed on teardown.
class RunStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (fs::temp_directory_path() / "clusmt_store_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

RunResult sample_result(double salt) {
  RunResult r;
  r.workload = "wl-α";  // non-ASCII survives the byte-exact string encoding
  r.category = "ISPEC00";
  r.type = "ILP";
  r.stats.cycles = 12345;
  r.stats.committed[0] = 1000;
  r.stats.committed[1] = 2000;
  r.stats.committed_copies = 37;
  r.stats.rename_block_rf = 11;
  r.stats.imbalance_events[1][2] = 99;
  r.stats.load_forwards = 5;
  r.ipc[0] = 1.25 + salt;
  r.ipc[1] = 0.75;
  r.throughput = 2.0 + salt;
  r.fairness = 0.9;
  return r;
}

void expect_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.category, b.category);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  for (int t = 0; t < kMaxThreads; ++t) {
    EXPECT_EQ(a.stats.committed[t], b.stats.committed[t]);
    EXPECT_EQ(a.ipc[t], b.ipc[t]);
  }
  EXPECT_EQ(a.stats.committed_copies, b.stats.committed_copies);
  EXPECT_EQ(a.stats.rename_block_rf, b.stats.rename_block_rf);
  EXPECT_EQ(a.stats.imbalance_events[1][2], b.stats.imbalance_events[1][2]);
  EXPECT_EQ(a.stats.load_forwards, b.stats.load_forwards);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.fairness, b.fairness);
}

// ---- Record encoding -----------------------------------------------------

TEST_F(RunStoreTest, RecordRoundTripsEveryField) {
  const RunKey key{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const RunResult original = sample_result(0.5);
  const std::string record = encode_run_record(key, original);

  const auto decoded = decode_run_record(key, record);
  ASSERT_TRUE(decoded.has_value());
  expect_equal(original, *decoded);
}

TEST_F(RunStoreTest, DecodeRejectsForeignKeyAndGarbage) {
  const RunKey key{1, 2};
  const std::string record = encode_run_record(key, sample_result(0.0));

  EXPECT_FALSE(decode_run_record(RunKey{1, 3}, record).has_value());
  EXPECT_FALSE(decode_run_record(key, "").has_value());
  EXPECT_FALSE(decode_run_record(key, "not a record").has_value());
}

TEST_F(RunStoreTest, DecodeRejectsTruncationAndBitFlips) {
  const RunKey key{7, 8};
  const std::string record = encode_run_record(key, sample_result(0.25));

  for (const std::size_t cut : {record.size() - 1, record.size() / 2,
                                std::size_t{12}}) {
    EXPECT_FALSE(decode_run_record(key, record.substr(0, cut)).has_value())
        << "truncated to " << cut << " bytes";
  }
  // A flipped bit anywhere — header, payload, or checksum — invalidates.
  for (const std::size_t at : {std::size_t{9}, record.size() / 2,
                               record.size() - 3}) {
    std::string corrupt = record;
    corrupt[at] ^= 0x40;
    EXPECT_FALSE(decode_run_record(key, corrupt).has_value())
        << "bit flip at byte " << at;
  }
  // Trailing junk after a valid record is corruption too.
  EXPECT_FALSE(decode_run_record(key, record + "x").has_value());
}

TEST_F(RunStoreTest, VersionBumpReadsAsMiss) {
  const RunKey key{3, 4};
  std::string record = encode_run_record(key, sample_result(0.0));
  ASSERT_TRUE(decode_run_record(key, record).has_value());
  // Byte 4 is the low byte of the little-endian format version.
  record[4] = static_cast<char>(kRunStoreFormatVersion + 1);
  EXPECT_FALSE(decode_run_record(key, record).has_value());
}

// ---- RunStore files ------------------------------------------------------

TEST_F(RunStoreTest, SaveThenLoadAcrossStoreInstances) {
  const RunKey key{0xaa, 0xbb};
  const RunResult original = sample_result(1.0);
  {
    const RunStore writer(dir_);
    ASSERT_TRUE(writer.save(key, original));
  }
  const RunStore reader(dir_);
  const auto loaded = reader.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(original, *loaded);

  EXPECT_FALSE(reader.load(RunKey{0xaa, 0xcc}).has_value());
}

TEST_F(RunStoreTest, TruncatedFileOnDiskIsAMiss) {
  const RunKey key{5, 6};
  const RunStore store(dir_);
  ASSERT_TRUE(store.save(key, sample_result(0.0)));

  const std::string path = store.path_of(key);
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size / 2);
  EXPECT_FALSE(store.load(key).has_value());
}

TEST_F(RunStoreTest, LeavesNoTempFilesBehind) {
  const RunStore store(dir_);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.save(RunKey{i, i}, sample_result(0.0)));
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (entry.is_regular_file()) {
      EXPECT_EQ(entry.path().extension(), ".run") << entry.path();
    }
  }
}

// ---- RunCache + store ----------------------------------------------------

TEST_F(RunStoreTest, SecondCacheInstanceLoadsInsteadOfComputing) {
  const RunKey key{11, 22};
  std::atomic<int> computes{0};
  const auto compute = [&] {
    computes.fetch_add(1);
    return sample_result(2.0);
  };

  RunCache first;
  first.set_store_dir(dir_);
  (void)first.get_or_run(key, compute);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(first.misses(), 1u);
  EXPECT_EQ(first.disk_hits(), 0u);

  // A fresh cache on the same dir — a new process, effectively — loads the
  // persisted record and never invokes compute.
  RunCache second;
  second.set_store_dir(dir_);
  const RunResult loaded = second.get_or_run(key, compute);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(second.misses(), 0u);
  EXPECT_EQ(second.disk_hits(), 1u);
  expect_equal(sample_result(2.0), loaded);

  // Memory tier still answers repeats without touching the disk counter.
  (void)second.get_or_run(key, compute);
  EXPECT_EQ(second.hits(), 1u);
  EXPECT_EQ(second.disk_hits(), 1u);
}

TEST_F(RunStoreTest, CorruptRecordFallsBackToCompute) {
  const RunKey key{33, 44};
  RunCache first;
  first.set_store_dir(dir_);
  (void)first.get_or_run(key, [] { return sample_result(0.0); });

  // Mangle the record in place.
  const std::string path = RunStore(dir_).path_of(key);
  std::ofstream(path, std::ios::binary) << "corrupted";

  RunCache second;
  second.set_store_dir(dir_);
  std::atomic<int> computes{0};
  (void)second.get_or_run(key, [&] {
    computes.fetch_add(1);
    return sample_result(3.0);
  });
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(second.misses(), 1u);
  EXPECT_EQ(second.disk_hits(), 0u);

  // ... and the recompute healed the record for the next instance.
  RunCache third;
  third.set_store_dir(dir_);
  expect_equal(sample_result(3.0),
               third.get_or_run(key, [] { return sample_result(9.0); }));
  EXPECT_EQ(third.disk_hits(), 1u);
}

TEST_F(RunStoreTest, ConcurrentWritersToOneDirAgree) {
  // Two caches (processes) x 8 workers race over the same keys in one dir;
  // every answer must be the deterministic function of the key.
  RunCache a;
  RunCache b;
  a.set_store_dir(dir_);
  b.set_store_dir(dir_);

  const auto value_of = [](std::uint64_t k) {
    RunResult r = sample_result(0.0);
    r.throughput = static_cast<double>(k) * 1.5;
    return r;
  };

  ThreadPool pool(8);
  std::vector<std::future<RunResult>> futures;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t k = 0; k < 8; ++k) {
      RunCache& cache = (round + k) % 2 == 0 ? a : b;
      futures.push_back(pool.submit_task([&cache, k, value_of] {
        return cache.get_or_run(RunKey{k, ~k}, [&] { return value_of(k); });
      }));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const std::uint64_t k = i % 8;
    EXPECT_DOUBLE_EQ(futures[i].get().throughput,
                     static_cast<double>(k) * 1.5);
  }
  // Each key computed at most once per cache (the store may have saved
  // either copy; both encode the same bytes).
  EXPECT_LE(a.misses() + b.misses(), 16u);
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_TRUE(RunStore(dir_).load(RunKey{k, ~k}).has_value());
  }
}

// ---- Injected-fault recovery (common/faultpoint.h) -----------------------

TEST_F(RunStoreTest, EnospcSaveFailsCleanlyAndKeepsThePriorRecord) {
  const RunKey key{21, 42};
  const RunStore store(dir_);
  ASSERT_TRUE(store.save(key, sample_result(0.0)));
  const std::string before =
      [&] {
        std::ifstream in(store.path_of(key), std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
      }();

  // The disk fills mid-write: the save reports failure, the temp file is
  // cleaned up, and the previously persisted record is untouched.
  faultpoint::arm("fsio.write", faultpoint::Mode::kEnospc);
  EXPECT_FALSE(store.save(key, sample_result(9.0)));
  faultpoint::disarm_all();

  std::ifstream in(store.path_of(key), std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, before) << "a failed write must leave the old record";
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(sample_result(0.0), *loaded);
  // No orphan temp files either: the failed write cleaned up after itself.
  std::size_t strays = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (entry.is_regular_file() && entry.path().extension() != ".run") {
      ++strays;
    }
  }
  EXPECT_EQ(strays, 0u);
}

TEST_F(RunStoreTest, TornWriteReadsAsMissAndCountsAsCorrupt) {
  const RunKey key{5, 6};
  const RunStore store(dir_);

  // A torn write REPORTS SUCCESS (the silent corruption a non-atomic
  // filesystem produces) but lands only a prefix of the record.
  faultpoint::arm("fsio.write", faultpoint::Mode::kPartial);
  EXPECT_TRUE(store.save(key, sample_result(0.0)));
  faultpoint::disarm_all();

  const std::uint64_t corrupt_before = run_store_corrupt_reads();
  EXPECT_FALSE(store.load(key).has_value())
      << "the checksum must reject the torn record";
  EXPECT_EQ(run_store_corrupt_reads(), corrupt_before + 1)
      << "a rejected record must be surfaced, not silently recomputed";

  // A clean rewrite recovers the cell.
  ASSERT_TRUE(store.save(key, sample_result(0.0)));
  EXPECT_TRUE(store.load(key).has_value());
}

TEST_F(RunStoreTest, InjectedLoadErrorIsAMissNotCorruption) {
  const RunKey key{30, 31};
  const RunStore store(dir_);
  ASSERT_TRUE(store.save(key, sample_result(0.0)));

  const std::uint64_t corrupt_before = run_store_corrupt_reads();
  faultpoint::arm("run_store.load", faultpoint::Mode::kError);
  EXPECT_FALSE(store.load(key).has_value());
  faultpoint::disarm_all();
  EXPECT_EQ(run_store_corrupt_reads(), corrupt_before)
      << "an I/O error is not a corrupt record";
  EXPECT_TRUE(store.load(key).has_value()) << "the record itself is fine";
}

TEST_F(RunStoreTest, UnwritableDirDegradesToProcessLocalCaching) {
  RunCache cache;
  cache.set_store_dir("/proc/definitely/not/writable");
  std::atomic<int> computes{0};
  const RunKey key{1, 1};
  (void)cache.get_or_run(key, [&] {
    computes.fetch_add(1);
    return sample_result(0.0);
  });
  (void)cache.get_or_run(key, [&] {
    computes.fetch_add(1);
    return sample_result(0.0);
  });
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.hits(), 1u);
}

// ---- Sweep-level persistence (the acceptance-criterion shape) ------------

TEST_F(RunStoreTest, WarmCacheDirMakesSecondSweepSimulateNothing) {
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

  RunCache cold;
  cold.set_store_dir(dir_);
  spec.cache = &cold;
  const SweepResult first = run_sweep(spec);
  EXPECT_GT(first.cache_misses, 0u);
  EXPECT_EQ(first.cache_disk_hits, 0u);

  // A fresh cache over the same dir — the "second invocation of the bench"
  // — performs zero simulations: every cell loads from disk.
  RunCache warm;
  warm.set_store_dir(dir_);
  spec.cache = &warm;
  const SweepResult second = run_sweep(spec);
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_GT(second.cache_disk_hits, 0u);

  // And the tables are bit-identical to the computed ones.
  for (std::size_t p = 0; p < first.cells.size(); ++p) {
    for (std::size_t w = 0; w < first.cells[p].size(); ++w) {
      EXPECT_EQ(first.cells[p][w].throughput, second.cells[p][w].throughput);
      EXPECT_EQ(first.cells[p][w].fairness, second.cells[p][w].fairness);
    }
  }
}

// ---- Garbage collection (cache_gc) ---------------------------------------

TEST_F(RunStoreTest, GcEnforcesSizeCapOldestFirst) {
  RunStore store(dir_);
  // Ten records with strictly increasing mtimes (explicitly set: the test
  // must not depend on filesystem timestamp granularity).
  std::vector<std::string> paths;
  for (int i = 0; i < 10; ++i) {
    const RunKey key{static_cast<std::uint64_t>(i) << 56, 7ull + i};
    ASSERT_TRUE(store.save(key, sample_result(0.01 * i)));
    paths.push_back(store.path_of(key));
    fs::last_write_time(paths.back(),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(100 - i));
  }
  const auto record_bytes = fs::file_size(paths[0]);

  // Cap at ~4 records: the six oldest must go, the four newest stay.
  GcOptions options;
  options.max_bytes = record_bytes * 4;
  const GcResult result = gc_run_store(dir_, options);
  EXPECT_EQ(result.scanned_files, 10u);
  EXPECT_EQ(result.deleted_files, 6u);
  EXPECT_EQ(result.deleted_bytes, record_bytes * 6);
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(fs::exists(paths[i])) << i;
  for (int i = 6; i < 10; ++i) EXPECT_TRUE(fs::exists(paths[i])) << i;
}

TEST_F(RunStoreTest, GcFileCapDryRunAndForeignFilesUntouched) {
  RunStore store(dir_);
  for (int i = 0; i < 5; ++i) {
    const RunKey key{static_cast<std::uint64_t>(i) << 56, 11ull + i};
    ASSERT_TRUE(store.save(key, sample_result(0.0)));
    fs::last_write_time(store.path_of(key),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(50 - i));
  }
  // A non-record file in the dir must be ignored by scan and never deleted.
  const fs::path foreign = fs::path(dir_) / "README.txt";
  std::ofstream(foreign) << "not a record";

  GcOptions dry{.max_files = 2, .dry_run = true};
  const GcResult planned = gc_run_store(dir_, dry);
  EXPECT_EQ(planned.scanned_files, 5u);
  EXPECT_EQ(planned.deleted_files, 3u);
  std::size_t live = 0;
  for (auto it = fs::recursive_directory_iterator(dir_);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_regular_file() && it->path().extension() == ".run") ++live;
  }
  EXPECT_EQ(live, 5u) << "dry run must not delete";

  GcOptions real{.max_files = 2};
  const GcResult swept = gc_run_store(dir_, real);
  EXPECT_EQ(swept.deleted_files, 3u);
  EXPECT_TRUE(fs::exists(foreign));

  // Kept records still load (GC never corrupts survivors).
  const RunKey newest{4ull << 56, 15ull};
  EXPECT_TRUE(store.load(newest).has_value());
}

TEST_F(RunStoreTest, GcOnMissingDirIsEmpty) {
  const GcResult result =
      gc_run_store(dir_ + "/does-not-exist", GcOptions{.max_bytes = 1});
  EXPECT_EQ(result.scanned_files, 0u);
  EXPECT_EQ(result.deleted_files, 0u);
}

// ---- merge_run_store -----------------------------------------------------

/// Bytes of the record `key` under `store`, or "" when absent.
std::string record_bytes(const RunStore& store, const RunKey& key) {
  std::ifstream in(store.path_of(key), std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST_F(RunStoreTest, MergeUnionsDisjointStores) {
  const RunStore a(dir_ + "/a");
  const RunStore b(dir_ + "/b");
  const RunStore into(dir_ + "/into");
  ASSERT_TRUE(a.save(RunKey{1, 1}, sample_result(0.1)));
  ASSERT_TRUE(a.save(RunKey{2, 2}, sample_result(0.2)));
  ASSERT_TRUE(b.save(RunKey{3, 3}, sample_result(0.3)));

  const MergeResult ra = merge_run_store(into.dir(), a.dir());
  const MergeResult rb = merge_run_store(into.dir(), b.dir());
  EXPECT_EQ(ra.scanned, 2u);
  EXPECT_EQ(ra.copied, 2u);
  EXPECT_EQ(rb.copied, 1u);
  for (const MergeResult& r : {ra, rb}) {
    EXPECT_EQ(r.identical + r.conflicts + r.invalid + r.repaired + r.failed,
              0u);
  }
  EXPECT_EQ(record_bytes(into, RunKey{1, 1}), record_bytes(a, RunKey{1, 1}));
  EXPECT_EQ(record_bytes(into, RunKey{2, 2}), record_bytes(a, RunKey{2, 2}));
  EXPECT_EQ(record_bytes(into, RunKey{3, 3}), record_bytes(b, RunKey{3, 3}));
}

TEST_F(RunStoreTest, MergeSkipsIdenticalRecords) {
  const RunStore from(dir_ + "/from");
  const RunStore into(dir_ + "/into");
  ASSERT_TRUE(from.save(RunKey{4, 4}, sample_result(0.0)));
  ASSERT_TRUE(into.save(RunKey{4, 4}, sample_result(0.0)));

  const MergeResult r = merge_run_store(into.dir(), from.dir());
  EXPECT_EQ(r.scanned, 1u);
  EXPECT_EQ(r.identical, 1u);
  EXPECT_EQ(r.copied + r.conflicts + r.repaired + r.failed, 0u);
}

TEST_F(RunStoreTest, MergeConflictKeepsTheDestinationAndCountsIt) {
  const RunStore from(dir_ + "/from");
  const RunStore into(dir_ + "/into");
  const RunKey key{5, 5};
  ASSERT_TRUE(from.save(key, sample_result(1.0)));
  ASSERT_TRUE(into.save(key, sample_result(2.0)));
  const std::string kept = record_bytes(into, key);

  const MergeResult r = merge_run_store(into.dir(), from.dir());
  EXPECT_EQ(r.conflicts, 1u);
  EXPECT_EQ(r.copied + r.identical + r.repaired + r.failed, 0u);
  EXPECT_EQ(record_bytes(into, key), kept) << "the destination wins";
}

TEST_F(RunStoreTest, MergeSkipsInvalidSourceRecords) {
  const RunStore from(dir_ + "/from");
  const RunStore into(dir_ + "/into");
  const RunKey torn{6, 6};
  ASSERT_TRUE(from.save(torn, sample_result(0.0)));
  fs::resize_file(from.path_of(torn), fs::file_size(from.path_of(torn)) / 2);
  // A valid record filed under another key's name is invalid too.
  const RunKey misfiled{7, 7};
  fs::create_directories(fs::path(from.path_of(misfiled)).parent_path());
  std::ofstream(from.path_of(misfiled), std::ios::binary)
      << encode_run_record(RunKey{7, 8}, sample_result(0.0));

  const MergeResult r = merge_run_store(into.dir(), from.dir());
  EXPECT_EQ(r.scanned, 2u);
  EXPECT_EQ(r.invalid, 2u);
  EXPECT_EQ(r.copied, 0u);
  EXPECT_FALSE(fs::exists(into.path_of(torn)));
  EXPECT_FALSE(fs::exists(into.path_of(misfiled)));
}

TEST_F(RunStoreTest, MergeDryRunWritesNothing) {
  const RunStore from(dir_ + "/from");
  const RunStore into(dir_ + "/into");
  ASSERT_TRUE(from.save(RunKey{8, 8}, sample_result(0.0)));
  const RunKey torn{9, 9};
  ASSERT_TRUE(from.save(torn, sample_result(0.0)));
  ASSERT_TRUE(into.save(torn, sample_result(0.0)));
  fs::resize_file(into.path_of(torn), 10);

  const MergeResult r =
      merge_run_store(into.dir(), from.dir(), MergeOptions{.dry_run = true});
  EXPECT_EQ(r.copied, 1u) << "a dry run counts what it would copy";
  EXPECT_EQ(r.repaired, 1u) << "and what it would repair";
  EXPECT_FALSE(fs::exists(into.path_of(RunKey{8, 8})));
  EXPECT_EQ(fs::file_size(into.path_of(torn)), 10u);
}

TEST_F(RunStoreTest, MergeRepairsACorruptDestinationRecord) {
  const RunStore from(dir_ + "/from");
  const RunStore into(dir_ + "/into");
  const RunKey key{10, 10};
  ASSERT_TRUE(from.save(key, sample_result(0.0)));
  // A torn destination record: the same cell, cut short.
  faultpoint::arm("fsio.write", faultpoint::Mode::kPartial);
  ASSERT_TRUE(into.save(key, sample_result(0.0)));
  faultpoint::disarm_all();
  ASSERT_FALSE(into.load(key).has_value());

  const MergeResult r = merge_run_store(into.dir(), from.dir());
  EXPECT_EQ(r.repaired, 1u);
  EXPECT_EQ(r.conflicts + r.copied + r.failed, 0u);
  EXPECT_EQ(record_bytes(into, key), record_bytes(from, key));
  EXPECT_TRUE(into.load(key).has_value());
}

TEST_F(RunStoreTest, MergeIntoAnUnwritableDestinationCountsFailures) {
  const RunStore from(dir_ + "/from");
  ASSERT_TRUE(from.save(RunKey{11, 11}, sample_result(0.0)));
  ASSERT_TRUE(from.save(RunKey{12, 12}, sample_result(0.0)));
  // A regular file where the destination directory should be: no write can
  // land below it, whatever the process's privileges.
  const std::string blocker = dir_ + "/blocker";
  std::ofstream(blocker) << "not a directory";

  const MergeResult r = merge_run_store(blocker + "/into", from.dir());
  EXPECT_EQ(r.scanned, 2u);
  EXPECT_EQ(r.failed, 2u);
  EXPECT_EQ(r.copied, 0u);
}

}  // namespace
}  // namespace clusmt::harness
