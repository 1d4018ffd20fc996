// Do not edit the reference loop: its figures are only comparable across
// commits while it stays the same.
#include "hostref.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace mccls::perfbench {

namespace {

/// Four independent 64x64->128 multiply-fold chains, the shape of one
/// 4-limb multiply row.
std::uint64_t ref_loop(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t a[4] = {seed | 1, seed * 3 + 7, seed * 5 + 11, seed * 7 + 13};
  const std::uint64_t b[4] = {0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL,
                              0x165667B19E3779F9ULL, 0xD6E8FEB86659FD93ULL};
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (int k = 0; k < 4; ++k) {
      const unsigned __int128 p = static_cast<unsigned __int128>(a[k]) * b[k];
      a[k] = static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
    }
  }
  return a[0] ^ a[1] ^ a[2] ^ a[3];
}

std::atomic<std::uint64_t> g_sink{0};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

double host_ref_ns() {
  constexpr std::uint64_t kIters = 1 << 20;
  std::vector<double> per_iter;
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    // The seed is read at run time so the loop cannot be folded away.
    const std::uint64_t seed =
        static_cast<std::uint64_t>(rep) + g_sink.load(std::memory_order_relaxed);
    g_sink.fetch_add(ref_loop(kIters, seed), std::memory_order_relaxed);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    per_iter.push_back(static_cast<double>(ns) / static_cast<double>(kIters));
  }
  return median_of(std::move(per_iter));
}

}  // namespace mccls::perfbench
