#include "harness/shard.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "harness/run_cache.h"
#include "harness/run_key.h"
#include "harness/sweep.h"

namespace clusmt::harness {

namespace {

/// Parses a whole decimal token into `out`; false on anything else.
bool parse_int(std::string_view text, int& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

ShardSpec shard_flag(const CliArgs& args, const std::string& cache_dir) {
  if (!args.has("shard")) return {};
  const std::string text = args.get_string("shard", "");
  const std::size_t slash = text.find('/');
  ShardSpec shard;
  if (slash == std::string::npos ||
      !parse_int(std::string_view(text).substr(0, slash), shard.index) ||
      !parse_int(std::string_view(text).substr(slash + 1), shard.count) ||
      shard.index < 0 || shard.index >= shard.count) {
    std::fprintf(stderr,
                 "error: --shard expects I/N with 0 <= I < N, got '%s'\n",
                 text.c_str());
    std::exit(2);
  }
  if (cache_dir.empty()) {
    std::fprintf(stderr,
                 "error: --shard needs --cache-dir (or $CLUSMT_CACHE_DIR): "
                 "the shard's cells go into that run store\n");
    std::exit(2);
  }
  return shard;
}

bool shard_owns(const ShardSpec& shard, const RunKey& key) {
  // Re-mixed first: the low bits of an FNV-1a digest depend only on the low
  // bits of the hashed bytes, so `(hi ^ lo) % 2` is the same for every key.
  if (shard.count <= 0) return true;
  const auto count = static_cast<std::uint64_t>(shard.count);
  return hash_combine(key.hi, key.lo) % count ==
         static_cast<std::uint64_t>(shard.index);
}

ShardStats fill_shard(const SweepSpec& spec,
                      const std::vector<ConfigPoint>& points) {
  RunCache& cache = spec.cache != nullptr ? *spec.cache : RunCache::instance();
  if (cache.store_dir().empty()) {
    throw std::runtime_error(
        "--shard requires a --cache-dir / $CLUSMT_CACHE_DIR run store: the "
        "shards hand their cells to the final run through it");
  }

  // Every cell run_sweep would request, keyed as it keys them: grid cells
  // plus, for fairness sweeps, the single-thread baselines (run_key of
  // baseline_config × baseline_workload is baseline_key by construction).
  struct Cell {
    core::SimConfig config;
    trace::WorkloadSpec workload;
  };
  std::map<RunKey, Cell> cells;
  for (const ConfigPoint& point : points) {
    for (const trace::WorkloadSpec& workload : spec.suite) {
      cells.try_emplace(
          run_key(point.config, workload, spec.cycles, spec.warmup),
          Cell{point.config, workload});
      if (!spec.with_fairness) continue;
      for (const trace::TraceSpec& t : workload.threads) {
        cells.try_emplace(baseline_key(point.config, t, spec.cycles,
                                       spec.warmup),
                          Cell{baseline_config(point.config),
                               baseline_workload(t)});
      }
    }
  }

  ShardStats stats;
  stats.cells = cells.size();
  const std::uint64_t misses_before = cache.misses();
  {
    std::vector<std::future<RunResult>> futures;
    // Declared after `cells` and `futures`: the pool joins every queued
    // cell before the state its tasks reference goes away.
    ThreadPool pool(spec.jobs);
    for (const auto& [key, cell] : cells) {
      if (!shard_owns(spec.shard, key)) continue;
      ++stats.owned;
      futures.push_back(pool.submit_task([&, key = key] {
        return cache.get_or_run(key, [&] {
          return simulate_workload(cell.config, cell.workload, spec.cycles,
                                   spec.warmup);
        });
      }));
    }
    for (auto& f : futures) (void)f.get();
  }
  stats.simulated = cache.misses() - misses_before;

  if (spec.progress) {
    std::fprintf(stderr,
                 "[shard] %d/%d: owns %zu of %zu cells (%zu simulated, %zu "
                 "already stored) in %s; no table: merge the shard stores, "
                 "then rerun without --shard\n",
                 spec.shard.index, spec.shard.count, stats.owned, stats.cells,
                 stats.simulated, stats.owned - stats.simulated,
                 cache.store_dir().c_str());
  }
  return stats;
}

}  // namespace clusmt::harness
