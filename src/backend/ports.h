// Issue-port model of one cluster. At the paper's width of 3 (Table 1):
//   Port 0: int, fp, simd     Port 1: int, fp, simd     Port 2: int, mem
// Heterogeneous grids vary the width per cluster; the mix generalizes as
// "last port is int+mem, every earlier port is int+fp/simd" (a width-1
// cluster has one universal port), which reproduces Table 1 exactly at
// width 3. Each port accepts one µop per cycle. Figure 5's workload-
// imbalance accounting asks, per port class, whether a cluster had a free
// compatible port after selection — exposed here via can_book().
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "trace/uop.h"

namespace clusmt::backend {

class PortSet {
 public:
  static constexpr int kNumPorts = 3;  // paper Table 1 width
  static constexpr int kMaxPorts = 8;  // hard bound on per-cluster width

  constexpr PortSet() noexcept : PortSet(kNumPorts) {}
  constexpr explicit PortSet(int num_ports) noexcept
      : num_ports_(num_ports),
        all_(static_cast<std::uint8_t>((1u << num_ports) - 1)) {
    for (int k = 0; k < trace::kNumPortClasses; ++k) {
      for (int p = 0; p < num_ports; ++p) {
        if (compatible(p, static_cast<trace::PortClass>(k), num_ports)) {
          compat_[k] |= static_cast<std::uint8_t>(1u << p);
        }
      }
    }
  }

  [[nodiscard]] int num_ports() const noexcept { return num_ports_; }

  /// Resets all ports to free (start of cycle).
  void new_cycle() noexcept { busy_ = 0; }

  /// Books the lowest-numbered free port compatible with `cls`; false when
  /// none remains. Lowest-first keeps integer µops off the last port
  /// (shared with mem) until the FP/SIMD-capable ones are taken.
  bool try_book(trace::PortClass cls) noexcept {
    const unsigned free = free_mask(cls);
    if (free == 0) return false;
    busy_ |= static_cast<std::uint8_t>(free & (0u - free));
    return true;
  }

  /// True when a port compatible with `cls` is still free.
  [[nodiscard]] bool can_book(trace::PortClass cls) const noexcept {
    return free_mask(cls) != 0;
  }

  /// Number of free ports still compatible with `cls`.
  [[nodiscard]] int free_compatible(trace::PortClass cls) const noexcept {
    return std::popcount(free_mask(cls));
  }

  [[nodiscard]] bool port_busy(int port) const noexcept {
    return ((busy_ >> port) & 1u) != 0;
  }

  /// True when every port is booked this cycle (no class can issue).
  [[nodiscard]] bool all_booked() const noexcept { return busy_ == all_; }

  /// Compatibility under the generalized mix: can `port` of a
  /// `num_ports`-wide cluster execute µops of `cls`?
  [[nodiscard]] static constexpr bool compatible(
      int port, trace::PortClass cls, int num_ports = kNumPorts) noexcept {
    switch (cls) {
      case trace::PortClass::kInt:
        return true;  // every port executes integer µops
      case trace::PortClass::kFpSimd:
        return num_ports == 1 || port < num_ports - 1;
      case trace::PortClass::kMem:
        return port == num_ports - 1;
    }
    return false;
  }

 private:
  [[nodiscard]] unsigned free_mask(trace::PortClass cls) const noexcept {
    return compat_[static_cast<int>(cls)] & ~unsigned{busy_};
  }

  int num_ports_;
  std::uint8_t all_;       // one bit per port
  std::uint8_t busy_ = 0;  // bit p: port p booked this cycle
  std::array<std::uint8_t, trace::kNumPortClasses> compat_ = {};
};

}  // namespace clusmt::backend
