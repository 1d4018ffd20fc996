// Signer material shared by the verify workloads, and the per-layer timings
// of the crypto stack (math, ec, pairing, crypto, cls) taken on a
// workload's own keys and signatures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cls/batch.hpp"
#include "cls/keys.hpp"
#include "common.hpp"

namespace mccls::perfbench {

/// One enrolled McCLS signer with its signed messages.
struct Signer {
  std::string id;      ///< base identity (what kgcd stores)
  std::string scoped;  ///< "id@epoch-0": what the signer signs and verifies as
  cls::UserKeys keys;
  crypto::Bytes pk_bytes;
  std::vector<cls::BatchItem> items;
};

/// Generates signers `first..first+count` of the namespace `prefix`: secret,
/// partial key from `kgc` for the epoch-0 scoped identity, public key, and
/// `messages` signed 64-byte messages each. Every signer draws from its own
/// DRBG keyed by (seed, index), so the output does not depend on the thread
/// count used to build it.
std::vector<Signer> make_signers(const cls::Kgc& kgc, const std::string& prefix,
                                 std::size_t first, std::size_t count, std::size_t messages,
                                 std::uint64_t seed);

/// Median ns per call of `fn(i)` over `slices` slices of `calls` calls each;
/// `i` counts calls so the body can rotate through its inputs.
template <class Fn>
double time_ns(Fn&& fn, std::size_t calls, int slices = 5) {
  std::vector<double> per_call;
  for (int s = 0; s < slices; ++s) {
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn(static_cast<std::size_t>(s) * calls + i);
    per_call.push_back(static_cast<double>(now_ns() - start) / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

/// Times the public functions of math, ec, pairing, crypto and cls on
/// `signers` (at least 2, each with at least one item). The batch equation
/// and the MSM are timed on 4 items of the first signer (signing more
/// messages with its keys where it has fewer) and multi_pair on 4 pairs:
/// the coalescer's mean batch and width under a saturating burst.
std::vector<Metric> time_crypto_layers(const cls::SystemParams& params,
                                       const std::vector<Signer>& signers, std::uint64_t seed);

}  // namespace mccls::perfbench
