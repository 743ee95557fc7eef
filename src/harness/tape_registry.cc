#include "harness/tape_registry.h"

#include <cstdlib>

#include "trace/synthetic.h"

namespace clusmt::harness {

namespace {

/// Chunk-storage pool size: $CLUSMT_TAPE_BUDGET_MB or 1 GiB. When the pool
/// drains, new recording stops and readers continue live from the freeze
/// points — correctness never depends on the budget.
std::uint64_t budget_bytes_from_env() {
  constexpr std::uint64_t kDefaultMb = 1024;
  std::uint64_t mb = kDefaultMb;
  if (const char* env = std::getenv("CLUSMT_TAPE_BUDGET_MB")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') mb = parsed;
  }
  return mb * 1024 * 1024;
}

}  // namespace

TapeRegistry::TapeRegistry()
    : budget_bytes_(budget_bytes_from_env()),
      budget_(std::make_unique<trace::TapeBudget>(budget_bytes_)) {}

TapeRegistry& TapeRegistry::instance() {
  static TapeRegistry* registry = new TapeRegistry();  // never destroyed
  return *registry;
}

std::shared_ptr<trace::TraceSource> TapeRegistry::source_for(
    const trace::TraceSpec& spec, const trace::TraceProfile** profile_out) {
  if (!enabled()) {
    live_sources_.fetch_add(1, std::memory_order_relaxed);
    auto source =
        std::make_shared<trace::SyntheticTrace>(spec.profile, spec.seed);
    if (profile_out != nullptr) {
      // The source's program owns a profile copy that outlives it.
      *profile_out = &source->program().profile();
    }
    return source;
  }

  const RunKey key = trace_content_key(spec);
  std::shared_ptr<trace::TraceTape> tape;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tapes_.find(key);
    if (it != tapes_.end()) {
      tape = it->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      auto program =
          std::make_shared<const trace::SyntheticProgram>(spec.profile,
                                                          spec.seed);
      tape = std::make_shared<trace::TraceTape>(std::move(program), spec.seed,
                                                budget_.get());
      tapes_.emplace(key, tape);
      recordings_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (profile_out != nullptr) *profile_out = &tape->program().profile();
  return std::make_shared<trace::TapeTrace>(std::move(tape));
}

std::size_t TapeRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tapes_.size();
}

std::uint64_t TapeRegistry::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_bytes_ - budget_->remaining();
}

void TapeRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  tapes_.clear();
  budget_ = std::make_unique<trace::TapeBudget>(budget_bytes_);
  hits_.store(0, std::memory_order_relaxed);
  recordings_.store(0, std::memory_order_relaxed);
  live_sources_.store(0, std::memory_order_relaxed);
}

}  // namespace clusmt::harness
