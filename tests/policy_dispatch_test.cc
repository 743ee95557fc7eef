// Differential coverage for the devirtualized policy/steer dispatch: with
// the sealed per-kind switch (PolicyDispatch, the default) the simulator
// must make exactly the decisions it makes through the virtual
// ResourceAssignmentPolicy interface (the retained oracle), for EVERY
// scheme — including the ones the switch collapses to inline constants.
// Identical decisions imply bit-identical SimStats, which is what is
// asserted, across {2T, SMT4} × {bounded, unbounded register files} on
// squash-heavy traces, and across the sealed steering kinds. A policy
// override added without a matching dispatch case diverges here instead of
// silently skewing results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulator.h"
#include "harness/presets.h"
#include "policy/policy.h"
#include "trace/workload.h"
#include "stats_equal.h"

namespace clusmt::core {
namespace {

std::vector<trace::TraceSpec> make_squashy_threads(int num_threads,
                                                   std::uint64_t seed) {
  const trace::TracePool pool(seed);
  std::vector<trace::TraceSpec> threads;
  for (int t = 0; t < num_threads; ++t) {
    trace::TraceSpec spec =
        pool.get(t % 2 == 0 ? trace::Category::kISpec00
                            : trace::Category::kFSpec00,
                 t % 2 == 0 ? trace::TraceKind::kIlp : trace::TraceKind::kMem,
                 t % trace::TracePool::kVariantsPerKind);
    // Squash-heavy: hard-to-predict branches keep recovery (and with it
    // the eligibility/flush queries) permanently busy.
    spec.profile.hard_branch_fraction = 0.5;
    spec.profile.name += "+squashy";
    threads.push_back(std::move(spec));
  }
  return threads;
}

SimStats run_once(const SimConfig& config, bool devirtualized,
                  const std::vector<trace::TraceSpec>& threads) {
  Simulator sim(config);
  sim.set_policy_devirtualized(devirtualized);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    sim.attach_thread(static_cast<ThreadId>(t), threads[t]);
  }
  sim.run(1000);
  sim.reset_stats();
  sim.run(4000);
  EXPECT_TRUE(sim.validate_view());
  return sim.stats();
}

TEST(PolicyDispatchParity, AllSchemesAcrossMachines) {
  struct MachineCase {
    const char* name;
    SimConfig config;
    int threads;
  };
  const MachineCase machines[] = {
      {"bounded-2t", harness::rf_study_config(64), 2},
      {"unbounded-2t", harness::iq_study_config(32), 2},
      {"smt4", harness::smt4_baseline(), 4},
  };

  for (const MachineCase& machine : machines) {
    for (const policy::PolicyKind scheme : policy::all_policy_kinds()) {
      SimConfig config = machine.config;
      config.policy = scheme;
      const auto threads = make_squashy_threads(machine.threads, /*seed=*/5);
      const std::string label =
          std::string(machine.name) + "/" +
          std::string(policy::policy_kind_name(scheme));
      const SimStats sealed = run_once(config, /*devirtualized=*/true,
                                       threads);
      const SimStats virt = run_once(config, /*devirtualized=*/false,
                                     threads);
      expect_stats_equal(sealed, virt, label);
    }
  }
}

TEST(PolicyDispatchParity, SteeringKindsStayDecisionIdentical) {
  // The steering dispatch is sealed too (final class, inline kind switch);
  // exercise each kind under both policy-dispatch modes.
  for (const steer::SteeringKind kind :
       {steer::SteeringKind::kDependenceBalance,
        steer::SteeringKind::kRoundRobin,
        steer::SteeringKind::kLeastLoaded}) {
    SimConfig config = harness::rf_study_config(64);
    config.policy = policy::PolicyKind::kCssp;
    config.steering = kind;
    const auto threads = make_squashy_threads(2, /*seed=*/13);
    const SimStats sealed = run_once(config, /*devirtualized=*/true, threads);
    const SimStats virt = run_once(config, /*devirtualized=*/false, threads);
    expect_stats_equal(sealed, virt,
                       "steering-" + std::to_string(static_cast<int>(kind)));
  }
}

TEST(PolicyDispatchParity, DispatchExposesConfiguredKind) {
  SimConfig config = harness::rf_study_config(64);
  config.policy = policy::PolicyKind::kCdprf;
  Simulator sim(config);
  EXPECT_TRUE(sim.policy_devirtualized());
  EXPECT_EQ(sim.policy().name(), "CDPRF");
  sim.set_policy_devirtualized(false);
  EXPECT_FALSE(sim.policy_devirtualized());
}

}  // namespace
}  // namespace clusmt::core
