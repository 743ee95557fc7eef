// Static sharding of a sweep across processes or hosts. A run with
// `--shard I/N` owns every cell of the sweep — grid cells and the
// content-deduplicated fairness baselines alike — whose RunKey, mixed to
// 64 bits, is I mod N. It simulates those cells into its --cache-dir run
// store and ends without a table, since it holds only part of the grid.
// The tables come from one plain run over the union of the shard stores
// (tools/store_merge, or a shared directory), which finds every cell on
// disk.
//
// The run store is the only protocol: records are content-keyed and
// written atomically, so shards never coordinate and the final tables are
// byte-identical to an in-process run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace clusmt {
class CliArgs;
}

namespace clusmt::harness {

struct SweepSpec;
struct ConfigPoint;
struct RunKey;

/// The slice of a sweep this process simulates (SweepSpec::shard).
/// count == 0 means unsharded: the whole grid runs in-process.
struct ShardSpec {
  int index = 0;
  int count = 0;
};

/// Parses `--shard I/N` (0 <= I < N); {0, 0} when the flag is absent. A
/// malformed value, or a shard with an empty `cache_dir` (the run store
/// the shard fills), prints a usage error and exits(2), like CliArgs'
/// numeric getters.
[[nodiscard]] ShardSpec shard_flag(const CliArgs& args,
                                   const std::string& cache_dir);

/// True when `shard` owns the cell keyed `key` (always, when unsharded).
[[nodiscard]] bool shard_owns(const ShardSpec& shard, const RunKey& key);

/// Cell traffic of one shard run.
struct ShardStats {
  std::size_t cells = 0;      // distinct cells of the sweep (incl. baselines)
  std::size_t owned = 0;      // cells this shard owns
  std::size_t simulated = 0;  // owned cells simulated by this run; the
                              // rest were already in memory or the store
};

/// Runs every cell of (points × spec.suite [+ fairness baselines]) that
/// spec.shard owns through the sweep's RunCache, which spills each one to
/// its store, and prints one `[shard] I/N: …` line when spec.progress.
/// Throws std::runtime_error when the cache has no store attached, and
/// rethrows the first failing cell after all owned cells drain.
ShardStats fill_shard(const SweepSpec& spec,
                      const std::vector<ConfigPoint>& points);

}  // namespace clusmt::harness
