// One workload of the sweep benchmark, in one fresh process (so the
// process-wide RunCache and TapeRegistry start cold). run.py drives it and
// turns its JSON line into the benchmark's metrics.
//
// Modes:
//   --mode setup   build the suite and the SweepSpec, report the hand-off
//                  time, exit (extra set-up samples for setup_s).
//   --mode sweep   the untraced, end-to-end run: harness::run_sweep on the
//                  workload's SweepSpec, then the output checks.
//   --mode traced  re-drive the same cells (expand_points() x suite, plus
//                  one baseline_workload() per distinct baseline) on the
//                  same thread count through the public calls
//                  simulate_workload makes, with a span around each, and
//                  read every component's stats() after each cell.
//
// Flags: --workload NAME --seed S --jobs N [--cycles N --warmup N]
//        [--store-dir D] [--spans PATH]
// Output: one JSON object on the last stdout line. Times are host time;
// simulated statistics are work counts and correctness checks only.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/hash.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/simulator.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/run_key.h"
#include "harness/run_store.h"
#include "harness/sweep.h"
#include "harness/tape_registry.h"
#include "policy/policy.h"
#include "trace/workload.h"

using namespace clusmt;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic() reads,
// so run.py can time process start -> hand-off across the exec boundary.
double monotonic_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex_key(const harness::RunKey& key) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(key.hi),
                static_cast<unsigned long long>(key.lo));
  return buf;
}

// Digest of one cell's SimStats, field for field: the run-store codec
// serializes every SimStats field, so equal digests mean bit-identical
// stats. Only `stats` is set; the rest of the record is fixed.
std::uint64_t stats_digest(const harness::RunKey& key,
                           const core::SimStats& stats) {
  harness::RunResult bare;
  bare.stats = stats;
  const std::string record = harness::encode_run_record(key, bare);
  Fnv1a h;
  h.add_bytes(record.data(), record.size());
  return h.digest();
}

// ---- Workloads -------------------------------------------------------------

struct Workload {
  harness::SweepSpec spec;
  std::vector<harness::ConfigPoint> points;  // spec.expand_points()
  bool uses_store = false;   // sweeps with an empty run store attached
  std::size_t attempted = 0;  // grid cells + distinct fairness baselines
};

const std::vector<policy::PolicyKind>& paper_schemes() {
  // The paper's ten schemes, Icount ... CDPRF (Tables 3-4 and §4).
  static const std::vector<policy::PolicyKind> kSchemes = [] {
    std::vector<policy::PolicyKind> out;
    for (auto k = static_cast<int>(policy::PolicyKind::kIcount);
         k <= static_cast<int>(policy::PolicyKind::kCdprf); ++k) {
      out.push_back(static_cast<policy::PolicyKind>(k));
    }
    return out;
  }();
  return kSchemes;
}

// The headline machine: Table 1 with 64 registers per cluster and the
// headline bench's 32K CDPRF interval. All three workloads run on it.
core::SimConfig headline_machine() {
  core::SimConfig config = harness::rf_study_config(64);
  config.policy_config.cdprf_interval = 32768;
  return config;
}

std::vector<trace::WorkloadSpec> of_type(std::vector<trace::WorkloadSpec> s,
                                         const std::string& type) {
  std::erase_if(s,
                [&](const trace::WorkloadSpec& w) { return w.type != type; });
  return s;
}

std::size_t distinct_baselines(
    const harness::SweepSpec& spec,
    const std::vector<harness::ConfigPoint>& points) {
  if (!spec.with_fairness) return 0;
  std::set<harness::RunKey> keys;
  for (const auto& point : points) {
    for (const auto& w : spec.suite) {
      for (const auto& t : w.threads) {
        keys.insert(
            harness::baseline_key(point.config, t, spec.cycles, spec.warmup));
      }
    }
  }
  return keys.size();
}

// Builds the workload's SweepSpec from the master seed. The program under
// test only ever sees the generated suite.
// Budgets: the headline's full 200k + 80k; ilp_dense runs half of it and
// mem_quiescent, with twice the workloads, a quarter, so a run holds more
// repetitions. --cycles/--warmup override every workload's budget.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const CliArgs& args) {
  Workload w;
  harness::SweepSpec& spec = w.spec;
  const bool headline = name == "headline_cold";
  spec.base = headline_machine();
  const Cycle scale = headline ? 1 : name == "ilp_dense" ? 2 : 4;
  spec.cycles = static_cast<Cycle>(args.get_int("cycles", 200000 / scale));
  spec.warmup = static_cast<Cycle>(args.get_int("warmup", 80000 / scale));
  spec.jobs = static_cast<std::size_t>(
      args.get_int("jobs", std::thread::hardware_concurrency()));
  spec.progress = false;
  if (headline) {
    // bench_headline_summary's sweep, with an empty store attached.
    spec.suite = trace::build_quick_suite(seed);
    spec.axes = {bench::scheme_axis({policy::PolicyKind::kIcount,
                                     policy::PolicyKind::kCssp,
                                     policy::PolicyKind::kCdprf})};
    spec.with_fairness = true;
    w.uses_store = true;
  } else if (name == "ilp_dense") {
    spec.suite = of_type(trace::build_quick_suite(seed), "ilp");
    spec.axes = {bench::scheme_axis(paper_schemes())};
  } else if (name == "mem_quiescent") {
    // The cost of a MEM trace varies widely with its seed, so this grid
    // averages over every MEM workload of two full suites drawn from the
    // seed (72 traces), at a quarter of the headline budget.
    const std::uint64_t second = seed ^ 0x9e3779b97f4a7c15ull;
    for (const std::uint64_t pool : {seed, second}) {
      auto mem = of_type(trace::build_full_suite(pool), "mem");
      spec.suite.insert(spec.suite.end(), mem.begin(), mem.end());
    }
    spec.axes = {bench::scheme_axis(paper_schemes())};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.points = spec.expand_points();
  w.attempted = w.points.size() * spec.suite.size() +
                distinct_baselines(spec, w.points);
  return w;
}

// ---- Output checks ----------------------------------------------------------

struct Checks {
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

// A cell passes when it ran its full measured budget with every thread
// committing, and its throughput (and fairness, when asked) is finite.
void check_cell(const harness::RunResult& r, Cycle cycles, std::size_t threads,
                bool fairness, Checks& checks) {
  bool ok = r.stats.cycles == cycles && std::isfinite(r.throughput) &&
            r.throughput > 0.0;
  for (std::size_t t = 0; t < threads; ++t) ok &= r.stats.committed[t] > 0;
  if (fairness) ok &= std::isfinite(r.fairness) && r.fairness > 0.0;
  if (!ok) checks.fail("cell " + r.workload + " failed its output check");
}

// ---- JSON emission ---------------------------------------------------------

class JsonLine {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    raw(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + escape(v) + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + escape(key) + "\":" + json;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  }

 private:
  std::string out_;
};

std::string cells_json(const std::map<harness::RunKey, std::uint64_t>& cells) {
  std::string out = "{";
  for (const auto& [key, digest] : cells) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    if (out.size() > 1) out += ",";
    out += "\"" + hex_key(key) + "\":\"" + buf + "\"";
  }
  return out + "}";
}

std::string strings_json(const std::vector<std::string>& v) {
  std::string out = "[";
  for (const auto& s : v) {
    if (out.size() > 1) out += ",";
    out += "\"" + JsonLine::escape(s) + "\"";
  }
  return out + "]";
}

std::uint64_t workload_digest(
    const std::map<harness::RunKey, std::uint64_t>& cells) {
  Fnv1a h;
  for (const auto& [key, digest] : cells) {
    h.add(key.hi);
    h.add(key.lo);
    h.add(digest);
  }
  return h.digest();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- Untraced sweep --------------------------------------------------------

int run_sweep_mode(const Workload& w, const std::string& store_dir,
                   double handoff) {
  const harness::SweepSpec& spec = w.spec;
  const auto& points = w.points;
  JsonLine out;
  out.num("handoff_monotonic", handoff);
  const auto t0 = Clock::now();
  harness::SweepResult res;
  Checks checks;
  bool swept = true;
  try {
    res = harness::run_sweep(spec);
  } catch (const std::exception& e) {
    swept = false;
    checks.failed = w.attempted;
    checks.failures.push_back(std::string("run_sweep threw: ") + e.what());
  }
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_s();

  std::map<harness::RunKey, std::uint64_t> cells;
  if (swept) {
    harness::RunCache& cache = harness::RunCache::instance();
    const std::optional<harness::RunStore> store =
        store_dir.empty() ? std::nullopt
                          : std::optional<harness::RunStore>(store_dir);
    // Every record the sweep saved must load back equal to the cached cell.
    const auto check_stored = [&](const harness::RunKey& key,
                                  const harness::RunResult& cached) {
      if (!store) return;
      const auto loaded = store->load(key);
      if (!loaded || harness::encode_run_record(key, *loaded) !=
                         harness::encode_run_record(key, cached)) {
        checks.fail("store record " + hex_key(key) + " does not load back");
      }
    };
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (std::size_t i = 0; i < spec.suite.size(); ++i) {
        const auto& workload = spec.suite[i];
        const auto& r = res.cells[p][i];
        check_cell(r, spec.cycles, workload.threads.size(), spec.with_fairness,
                   checks);
        const auto key = harness::run_key(points[p].config, workload,
                                          spec.cycles, spec.warmup);
        cells[key] = stats_digest(key, r.stats);
        if (store) {
          // A hit in the warm cache: the cell exactly as the sweep saved it.
          check_stored(key, cache.get_or_run(key, []() -> harness::RunResult {
            throw std::logic_error("cell missing from the run cache");
          }));
        }
        if (!spec.with_fairness) continue;
        for (const auto& t : workload.threads) {
          const auto bkey = harness::baseline_key(points[p].config, t,
                                                  spec.cycles, spec.warmup);
          if (cells.contains(bkey)) continue;
          const auto b = harness::baseline_run(cache, points[p].config, t,
                                               spec.cycles, spec.warmup);
          check_cell(b, spec.cycles, 1, false, checks);
          cells[bkey] = stats_digest(bkey, b.stats);
          check_stored(bkey, b);
        }
      }
    }
    if (store) {
      std::size_t records = 0;
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(store_dir, ec)) {
        records += entry.path().extension() == ".run" ? 1 : 0;
      }
      if (records != res.cache_misses) {
        checks.fail("store holds " + std::to_string(records) +
                    " records for " + std::to_string(res.cache_misses) +
                    " simulated cells");
      }
    }
  }

  out.num("sweep_wall_s", wall);
  out.num("cpu_s", cpu);
  out.num("peak_rss_mb", peak_rss_mb());
  out.num("cells_simulated", static_cast<double>(res.cache_misses));
  out.num("simulated_cycles",
          static_cast<double>(res.cache_misses) *
              static_cast<double>(spec.cycles + spec.warmup));
  out.num("attempted", static_cast<double>(w.attempted));
  out.num("failed", static_cast<double>(std::min(checks.failed, w.attempted)));
  out.raw("failures", strings_json(checks.failures));
  out.str("digest", hex64(workload_digest(cells)));
  if (swept && spec.with_fairness) {
    // Model output, for information only: the repo holds no reference
    // hardware results, so these are unvalidated and never gated.
    const auto icount = res.point_index("Icount");
    JsonLine h;
    for (const char* scheme : {"CSSP", "CDPRF"}) {
      const auto p = res.point_index(scheme);
      h.num(std::string(scheme) + "_throughput_vs_Icount",
            mean_of(harness::ratio_to_baseline(res.throughput(p),
                                               res.throughput(icount))));
      h.num(std::string(scheme) + "_fairness_vs_Icount",
            mean_of(harness::ratio_to_baseline(res.fairness(p),
                                               res.fairness(icount))));
    }
    out.raw("model", h.done());
  }
  out.raw("cells", cells_json(cells));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---- Traced re-drive -------------------------------------------------------

struct Span {
  const char* name;
  int id;
  int parent;  // -1 for a pool task (the root of its cell)
  int worker;
  double t0;   // seconds since the pass started
  double t1;
};

// Spans stay in memory during the pass and are written once at the end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] double now() const { return seconds_since(origin_); }

  /// Records a span on `worker` under `parent` (-1: a pool task).
  int add(const char* name, int parent, int worker, double t0, double t1) {
    std::lock_guard lock(mutex_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, id, parent, worker, t0, t1});
    return id;
  }
  /// Starts a span that close() ends.
  int open(const char* name, int parent, int worker) {
    const double t0 = now();
    return add(name, parent, worker, t0, t0);
  }
  void close(int id) {
    const double t1 = now();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].t1 = t1;
  }

  /// Runs `fn` inside a span named `name`.
  template <typename F>
  auto span(const char* name, int parent, int worker, F&& fn) {
    const int id = open(name, parent, worker);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      close(id);
    } else {
      auto r = fn();
      close(id);
      return r;
    }
  }

  /// The finished spans; call only after every worker has joined.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// Component counters summed over every cell the pass simulated (measured
// phase; baselines included).
struct LayerCounts {
  double measured_cycles = 0, simulated_cycles = 0;
  double committed = 0, renamed = 0, rename_blocked = 0;
  double skipped = 0, skip_episodes = 0, coalesced = 0;
  double fetched = 0, wrong_path = 0, bp_lookups = 0;
  double iq_pref_stalls = 0, flushes = 0;
  double non_preferred = 0, copies_created = 0;
  double issued = 0, useful_issued = 0, squashed = 0;
  double link_transfers = 0, link_denied = 0;
  double l1_accesses = 0, l1_hits = 0, l2_misses = 0, dtlb_misses = 0;
  double mob_waits = 0, mob_forwards = 0;

  void add(const core::Simulator& sim, Cycle warmup) {
    const core::SimStats& s = sim.stats();
    measured_cycles += static_cast<double>(s.cycles);
    simulated_cycles += static_cast<double>(s.cycles + warmup);
    committed += static_cast<double>(s.committed_total());
    renamed += static_cast<double>(s.renamed_uops);
    rename_blocked += static_cast<double>(s.rename_blocked_cycles);
    skipped += static_cast<double>(sim.cycles_skipped());
    skip_episodes += static_cast<double>(sim.skip_episodes());
    coalesced += static_cast<double>(sim.events_coalesced());
    const auto& fetch = sim.fetch_engine();
    fetched += static_cast<double>(fetch.stats().fetched_uops);
    wrong_path += static_cast<double>(fetch.stats().wrong_path_uops);
    // predictor() has no const overload; this only reads its counters.
    const auto& bp =
        const_cast<frontend::FetchEngine&>(fetch).predictor().stats();
    bp_lookups +=
        static_cast<double>(bp.direction_lookups + bp.indirect_lookups);
    iq_pref_stalls += static_cast<double>(s.iq_pref_stall_events);
    flushes += static_cast<double>(s.policy_flushes);
    non_preferred += static_cast<double>(s.non_preferred_dispatches);
    copies_created += static_cast<double>(s.copies_created);
    issued += static_cast<double>(s.issued_uops);
    useful_issued +=
        static_cast<double>(s.committed_total() + s.committed_copies);
    squashed += static_cast<double>(s.squashed_uops);
    link_transfers += static_cast<double>(sim.interconnect().stats().transfers);
    link_denied += static_cast<double>(sim.interconnect().stats().denied);
    const auto& mem = sim.hierarchy();
    l1_accesses += static_cast<double>(mem.l1_stats().accesses);
    l1_hits += static_cast<double>(mem.l1_stats().hits);
    l2_misses += static_cast<double>(mem.l2_stats().misses());
    dtlb_misses += static_cast<double>(mem.dtlb_stats().misses());
    mob_waits += static_cast<double>(sim.mob().stats().waits);
    mob_forwards += static_cast<double>(sim.mob().stats().forwards);
  }
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

class TracedPass {
 public:
  TracedPass(const harness::SweepSpec& spec, const std::string& store_dir)
      : spec_(spec),
        store_(store_dir.empty() ? std::nullopt
                                 : std::optional<harness::RunStore>(store_dir)),
        tracer_(Clock::now()) {}

  // Mirrors run_sweep's schedule: deduplicated baselines first, then every
  // grid cell in point order, one flat queue on `jobs` threads.
  void run() {
    const auto points = spec_.expand_points();
    ThreadPool pool(spec_.jobs);
    std::vector<std::future<void>> done;
    if (spec_.with_fairness) {
      std::map<harness::RunKey, std::pair<core::SimConfig, trace::TraceSpec>>
          unique;
      for (const auto& point : points) {
        for (const auto& w : spec_.suite) {
          for (const auto& t : w.threads) {
            unique.try_emplace(
                harness::baseline_key(point.config, t, spec_.cycles,
                                      spec_.warmup),
                point.config, t);
          }
        }
      }
      for (const auto& [key, cell] : unique) {
        done.push_back(pool.submit_task([this, key, cell] {
          task([&](int worker, int root) {
            baseline(key, cell.first, cell.second, worker, root);
          });
        }));
      }
    }
    for (const auto& point : points) {
      for (const auto& w : spec_.suite) {
        done.push_back(pool.submit_task([this, &point, &w] {
          task([&](int worker, int root) {
            const auto key =
                harness::run_key(point.config, w, spec_.cycles, spec_.warmup);
            (void)lookup(key, point.config, w, worker, root);
            if (!spec_.with_fairness) return;
            for (const auto& t : w.threads) {
              baseline(harness::baseline_key(point.config, t, spec_.cycles,
                                             spec_.warmup),
                       point.config, t, worker, root);
            }
          });
        }));
      }
    }
    for (auto& f : done) f.get();
    wall_ = tracer_.now();
  }

  void write_spans(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "sweep_bench: cannot write spans to %s\n",
                   path.c_str());
      return;
    }
    for (const Span& s : tracer_.spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,\"worker\":%d,"
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   s.name, s.id, s.parent, s.worker, s.t0, s.t1);
    }
    std::fclose(f);
  }

  [[nodiscard]] double wall() const { return wall_; }
  [[nodiscard]] const std::map<harness::RunKey, std::uint64_t>& cells() const {
    return cells_;
  }

  void emit(JsonLine& out, double suite_build_ms) const {
    std::map<std::string, std::vector<double>> ms;  // span durations by name
    std::map<int, std::vector<const Span*>> tasks;  // pool tasks by worker
    double cache_wait = 0.0;
    for (const Span& s : tracer_.spans()) {
      ms[s.name].push_back(1e3 * (s.t1 - s.t0));
      if (s.parent < 0) tasks[s.worker].push_back(&s);
      if (std::string_view(s.name) == "harness.cache_wait") {
        cache_wait += s.t1 - s.t0;
      }
    }
    // Pool wait: a worker's time between tasks (and before its first);
    // tail idle: its time after the last task until the pass ended.
    double pool_wait = 0.0;
    double tail_idle = 0.0;
    for (auto& [worker, list] : tasks) {
      std::sort(list.begin(), list.end(),
                [](const Span* a, const Span* b) { return a->t0 < b->t0; });
      double free_at = 0.0;
      for (const Span* s : list) {
        pool_wait += std::max(0.0, s->t0 - free_at);
        free_at = s->t1;
      }
      tail_idle += std::max(0.0, wall_ - free_at);
    }
    const auto p = [&](const char* name, double q) {
      return percentile(ms[name], q);
    };
    const LayerCounts& c = counts_;
    double run_ms = 0.0;
    for (const char* name : {"core.warmup", "core.measure"}) {
      for (double v : ms[name]) run_ms += v;
    }
    double measure_ms = 0.0;
    for (double v : ms["core.measure"]) measure_ms += v;
    auto& tapes = harness::TapeRegistry::instance();

    out.num("core.construct_ms_p50", p("core.construct", 0.5));
    out.num("core.warmup_ms_p50", p("core.warmup", 0.5));
    out.num("core.measure_ms_p50", p("core.measure", 0.5));
    out.num("core.measure_ms_p90", p("core.measure", 0.9));
    out.num("core.ns_per_cycle", 1e6 * ratio(run_ms, c.simulated_cycles));
    out.num("core.ns_per_committed_uop", 1e6 * ratio(measure_ms, c.committed));
    out.num("core.committed_uops", c.committed);
    out.num("core.renamed_uops", c.renamed);
    out.num("core.rename_blocked_cycles", c.rename_blocked);
    out.num("core.cycles_skipped", c.skipped);
    out.num("core.skip_episodes", c.skip_episodes);
    out.num("core.skip_fraction", ratio(c.skipped, c.measured_cycles));
    out.num("core.events_coalesced", c.coalesced);
    out.num("trace.suite_build_ms", suite_build_ms);
    out.num("trace.attach_ms_p50", p("trace.attach", 0.5));
    out.num("trace.tape_recordings", static_cast<double>(tapes.recordings()));
    out.num("trace.tape_hits", static_cast<double>(tapes.hits()));
    out.num("harness.cells_simulated", static_cast<double>(cache_.misses()));
    out.num("harness.cache_hits", static_cast<double>(cache_.hits()));
    out.num("harness.baselines_simulated", static_cast<double>(baselines_));
    out.num("harness.cache_wait_s", cache_wait);
    out.num("harness.pool_wait_s", pool_wait);
    out.num("harness.tail_idle_s", tail_idle);
    out.num("harness.store_save_ms_p50", p("harness.store_save", 0.5));
    out.num("harness.store_save_ms_p90", p("harness.store_save", 0.9));
    out.num("harness.store_records_written", static_cast<double>(records_));
    out.num("harness.store_bytes_written", static_cast<double>(bytes_));
    out.num("frontend.fetched_uops", c.fetched);
    out.num("frontend.wrong_path_uops", c.wrong_path);
    out.num("frontend.useful_fetch_ratio",
            ratio(c.fetched - c.wrong_path, c.fetched));
    out.num("frontend.bp_lookups", c.bp_lookups);
    out.num("policy.iq_pref_stall_events", c.iq_pref_stalls);
    out.num("policy.flushes", c.flushes);
    out.num("steer.non_preferred_dispatches", c.non_preferred);
    out.num("steer.copies_created", c.copies_created);
    out.num("backend.issued_uops", c.issued);
    out.num("backend.useful_issue_ratio", ratio(c.useful_issued, c.issued));
    out.num("backend.squashed_uops", c.squashed);
    out.num("backend.link_transfers", c.link_transfers);
    out.num("backend.link_denied", c.link_denied);
    out.num("memory.l1_accesses", c.l1_accesses);
    out.num("memory.l1_hit_rate", ratio(c.l1_hits, c.l1_accesses));
    out.num("memory.l2_misses", c.l2_misses);
    out.num("memory.dtlb_misses", c.dtlb_misses);
    out.num("memory.mob_waits", c.mob_waits);
    out.num("memory.mob_forwards", c.mob_forwards);
  }

 private:
  // One pool task: a root span on the calling worker around `body`.
  template <typename F>
  void task(F&& body) {
    const int worker = worker_id();
    const int root = tracer_.open("harness.task", -1, worker);
    body(worker, root);
    tracer_.close(root);
  }

  int worker_id() {
    std::lock_guard lock(mutex_);
    return workers_.try_emplace(std::this_thread::get_id(),
                                static_cast<int>(workers_.size()))
        .first->second;
  }

  void baseline(const harness::RunKey& key, const core::SimConfig& config,
                const trace::TraceSpec& t, int worker, int root) {
    if (lookup(key, harness::baseline_config(config),
               harness::baseline_workload(t), worker, root)) {
      ++baselines_;
    }
  }

  // The RunCache protocol with the store I/O made explicit: the first
  // requester tries the store, simulates, and saves; later requesters
  // block on the in-flight cell (cache wait). Returns true if it simulated.
  bool lookup(const harness::RunKey& key, const core::SimConfig& config,
              const trace::WorkloadSpec& w, int worker, int root) {
    bool computed = false;
    const double t0 = tracer_.now();
    (void)cache_.get_or_run(key, [&] {
      computed = true;
      if (store_) {
        (void)tracer_.span("harness.store_load", root, worker,
                           [&] { return store_->load(key); });
      }
      harness::RunResult r = simulate(config, w, worker, root);
      {
        std::lock_guard lock(mutex_);
        cells_[key] = stats_digest(key, r.stats);
      }
      if (store_) {
        const bool saved = tracer_.span("harness.store_save", root, worker,
                                        [&] { return store_->save(key, r); });
        std::error_code ec;
        const auto size = std::filesystem::file_size(store_->path_of(key), ec);
        std::lock_guard lock(mutex_);
        records_ += saved ? 1 : 0;
        bytes_ += saved && !ec ? size : 0;
      }
      return r;
    });
    // Not the owner: the whole call blocked on another worker's cell.
    if (!computed) {
      tracer_.add("harness.cache_wait", root, worker, t0, tracer_.now());
    }
    return computed;
  }

  // simulate_workload's calls, one span each.
  harness::RunResult simulate(const core::SimConfig& config,
                              const trace::WorkloadSpec& w, int worker,
                              int root) {
    const int cell = tracer_.open("core.cell", root, worker);
    auto sim = tracer_.span("core.construct", cell, worker, [&] {
      return std::make_unique<core::Simulator>(config);
    });
    tracer_.span("trace.attach", cell, worker, [&] {
      auto& tapes = harness::TapeRegistry::instance();
      for (std::size_t t = 0; t < w.threads.size(); ++t) {
        const trace::TraceProfile* profile = nullptr;
        auto source = tapes.source_for(w.threads[t], &profile);
        sim->attach_thread(static_cast<ThreadId>(t), std::move(source), profile,
                           w.threads[t].seed);
      }
    });
    if (spec_.warmup > 0) {
      tracer_.span("core.warmup", cell, worker,
                   [&] { sim->run(spec_.warmup); });
      tracer_.span("core.reset_stats", cell, worker,
                   [&] { sim->reset_stats(); });
    }
    tracer_.span("core.measure", cell, worker, [&] { sim->run(spec_.cycles); });
    {
      std::lock_guard lock(mutex_);
      counts_.add(*sim, spec_.warmup);
    }
    harness::RunResult r;
    r.workload = w.name;
    r.category = w.category;
    r.type = w.type;
    r.stats = sim->stats();
    r.throughput = r.stats.throughput();
    for (int t = 0; t < config.num_threads; ++t) r.ipc[t] = r.stats.ipc(t);
    tracer_.close(cell);
    return r;
  }

  const harness::SweepSpec& spec_;
  const std::optional<harness::RunStore> store_;
  Tracer tracer_;
  harness::RunCache cache_;
  std::atomic<std::uint64_t> baselines_{0};
  std::mutex mutex_;  // guards the fields below
  std::map<std::thread::id, int> workers_;
  LayerCounts counts_;
  std::map<harness::RunKey, std::uint64_t> cells_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  double wall_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string mode = args.get_string("mode", "sweep");
  const std::string name = args.get_string("workload", "headline_cold");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  try {
    const auto t0 = Clock::now();
    const Workload w = make_workload(name, seed, args);
    const double suite_build_ms = 1e3 * seconds_since(t0);
    const std::string store_dir =
        w.uses_store ? args.get_string("store-dir", "") : "";
    if (w.uses_store && store_dir.empty()) {
      throw std::invalid_argument(name + " needs --store-dir");
    }
    if (mode == "setup" || mode == "sweep") {
      harness::RunCache::instance().set_store_dir(store_dir);
      const double handoff = monotonic_now();
      if (mode == "sweep") return run_sweep_mode(w, store_dir, handoff);
      JsonLine out;
      out.num("handoff_monotonic", handoff);
      std::printf("%s\n", out.done().c_str());
      return 0;
    }
    if (mode != "traced") {
      throw std::invalid_argument("unknown mode '" + mode + "'");
    }
    TracedPass pass(w.spec, store_dir);
    pass.run();
    pass.write_spans(args.get_string("spans", ""));
    JsonLine out;
    out.num("traced_wall_s", pass.wall());
    pass.emit(out, suite_build_ms);
    out.raw("cells", cells_json(pass.cells()));
    std::printf("%s\n", out.done().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_bench: %s\n", e.what());
    return 2;
  }
}
