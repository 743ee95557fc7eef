#include "trace/tape.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace clusmt::trace {

namespace {

/// Chunk-table size: max_uops in chunks, capped by the chunks the budget
/// could fund if this tape held all of it.
std::uint64_t max_chunks_for(std::uint64_t max_uops, const TapeBudget* budget) {
  const std::uint64_t by_uops =
      (std::max(max_uops, TraceTape::kChunkUops) + TraceTape::kChunkUops - 1) /
      TraceTape::kChunkUops;
  const std::uint64_t by_budget =
      budget == nullptr ? std::numeric_limits<std::uint64_t>::max()
                        : budget->capacity() / TraceTape::kChunkBytes;
  return std::min(by_uops, by_budget);
}

}  // namespace

TraceTape::TraceTape(std::shared_ptr<const SyntheticProgram> program,
                     std::uint64_t seed, TapeBudget* budget,
                     std::uint64_t max_uops)
    : program_(program),
      seed_(seed),
      budget_(budget),
      recorder_(std::move(program), seed),
      max_chunks_(max_chunks_for(max_uops, budget)),
      chunks_(new std::atomic<PackedUop*>[max_chunks_]) {
  for (std::uint64_t i = 0; i < max_chunks_; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
  chunk_storage_.reserve(16);
}

TraceTape::~TraceTape() {
  if (budget_ != nullptr) {
    budget_->give_back(chunk_storage_.size() * kChunkBytes);
  }
}

void TraceTape::copy(std::uint64_t pos, MicroOp* out, int count) const {
  assert(pos + static_cast<std::uint64_t>(count) <= recorded());
  while (count > 0) {
    const std::uint64_t chunk = pos / kChunkUops;
    const std::uint64_t offset = pos % kChunkUops;
    const int n = static_cast<int>(
        std::min<std::uint64_t>(count, kChunkUops - offset));
    const PackedUop* src =
        chunks_[chunk].load(std::memory_order_relaxed) + offset;
    for (int i = 0; i < n; ++i) out[i] = program_->unpack(src[i]);
    out += n;
    pos += n;
    count -= n;
  }
}

std::uint64_t TraceTape::extend_to(std::uint64_t target) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t size = recorded_.load(std::memory_order_relaxed);
  while (size < target && !frozen_.load(std::memory_order_relaxed)) {
    const std::uint64_t chunk = size / kChunkUops;
    if (chunk >= max_chunks_ ||
        (budget_ != nullptr && !budget_->take(kChunkBytes))) {
      // Out of storage: freeze. recorder_ stays parked at `size`, ready to
      // be cloned by readers that need more.
      frozen_.store(true, std::memory_order_release);
      break;
    }
    // The recorder writes every record, so skip the value-initialisation.
    auto storage = std::make_unique_for_overwrite<PackedUop[]>(kChunkUops);
    recorder_.fill_packed(storage.get(), static_cast<int>(kChunkUops));
    chunks_[chunk].store(storage.get(), std::memory_order_relaxed);
    chunk_storage_.push_back(std::move(storage));
    size += kChunkUops;
    // Publish after the chunk data and pointer are in place.
    recorded_.store(size, std::memory_order_release);
  }
  return size;
}

std::unique_ptr<SyntheticTrace> TraceTape::clone_recorder() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::make_unique<SyntheticTrace>(recorder_);
}

void TapeTrace::fill(MicroOp* out, int count) {
  if (live_ != nullptr) {
    live_->fill(out, count);
    return;
  }
  const std::uint64_t end = pos_ + static_cast<std::uint64_t>(count);
  std::uint64_t avail = tape_->recorded();
  if (end > avail) avail = tape_->extend_to(end);
  if (avail >= end) {
    tape_->copy(pos_, out, count);
    pos_ = end;
    return;
  }
  // The tape froze short of our demand: drain what it holds, then switch
  // this cursor to live generation from the freeze point. The clone's
  // state equals a live cursor that generated `avail` µops, so the stream
  // stays bit-identical across the seam.
  const int from_tape = static_cast<int>(avail - pos_);
  if (from_tape > 0) tape_->copy(pos_, out, from_tape);
  pos_ = avail;
  live_ = tape_->clone_recorder();
  live_->fill(out + from_tape, count - from_tape);
}

}  // namespace clusmt::trace
