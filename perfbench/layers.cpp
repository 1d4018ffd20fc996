#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "cls/epoch.hpp"
#include "cls/mccls.hpp"
#include "crypto/sha256.hpp"
#include "pairing/pairing.hpp"

namespace mccls::perfbench {

namespace {

volatile std::uint64_t g_sink = 0;

void keep(bool v) { g_sink = g_sink + (v ? 1 : 0); }
void keep(const ec::G1& p) { keep(p.is_infinity()); }

/// Runs fn(i) for i in [0, n) over a few threads (the machine's cores,
/// capped at 4).
template <class Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::jthread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += threads) fn(i);
    });
  }
}

/// Batch size and multi_pair width the batch kernels are timed at: the
/// coalescer's means (4.2 and 4.5 on a 4-core VM) under a saturating
/// pk-inline stream from 256 Zipf(1.0) signers, 4 connections x 32 in
/// flight, 3 workers. The registered workloads hardly batch (verify_paced's
/// rare same-signer pairs give a mean of 2 in some runs and none in
/// others), so sizes taken from them would switch between runs.
constexpr std::size_t kBurstBatch = 4;
constexpr std::size_t kBurstWidth = 4;

}  // namespace

std::vector<Signer> make_signers(const cls::Kgc& kgc, const std::string& prefix,
                                 std::size_t first, std::size_t count, std::size_t messages,
                                 std::uint64_t seed) {
  std::vector<Signer> out(count);
  const cls::Mccls scheme;
  const cls::SystemParams& params = kgc.params();
  (void)params.p_is_generator();  // fill the lazy cache before threads read it
  parallel_for(count, [&](std::size_t k) {
    const std::size_t index = first + k;
    crypto::HmacDrbg rng(seed * 0x9E3779B97F4A7C15ULL ^ (index + 1) * 0xD1B54A32D192ED03ULL);
    Signer& s = out[k];
    s.id = prefix + std::to_string(index);
    s.scoped = cls::scoped_identity(s.id, 0);
    s.keys = scheme.keygen(params, s.scoped, kgc.extract_partial_key(s.scoped), rng);
    s.pk_bytes = s.keys.public_key.to_bytes();
    for (std::size_t m = 0; m < messages; ++m) {
      crypto::Bytes message = rng.generate(64);
      const auto sig = cls::Mccls::sign_typed(params, s.keys, message, rng);
      s.items.push_back(cls::BatchItem{.message = std::move(message), .signature = sig});
    }
  });
  return out;
}

std::vector<Metric> time_crypto_layers(const cls::SystemParams& params,
                                       const std::vector<Signer>& signers, std::uint64_t seed) {
  std::vector<Metric> out;
  const auto put = [&](const char* name, double ns, bool micro) {
    out.push_back(Metric{name, micro ? ns / 1e3 : ns, micro ? "us" : "ns"});
  };
  const std::size_t n = signers.size();
  const auto signer = [&](std::size_t i) -> const Signer& { return signers[i % n]; };
  const auto item = [&](std::size_t i) -> const cls::BatchItem& {
    const Signer& s = signer(i);
    return s.items[(i / n) % s.items.size()];
  };
  crypto::HmacDrbg rng(seed ^ 0x7143ULL);
  std::vector<math::Fq> scalars;
  for (int i = 0; i < 16; ++i) scalars.push_back(rng.next_nonzero_fq());

  // ---- cls -----------------------------------------------------------------
  cls::PairingCache warm;
  for (const Signer& s : signers) (void)warm.get(params, s.scoped);
  put("cls.verify_us", time_ns([&](std::size_t i) {
        const Signer& s = signer(i);
        keep(cls::Mccls::verify_typed(params, s.scoped, s.keys.public_key.primary(),
                                      item(i).message, item(i).signature, &warm));
      }, 8), true);
  put("cls.verify_cold_us", time_ns([&](std::size_t i) {
        cls::PairingCache empty;
        const Signer& s = signer(i);
        keep(cls::Mccls::verify_typed(params, s.scoped, s.keys.public_key.primary(),
                                      item(i).message, item(i).signature, &empty));
      }, 8), true);
  // One signer's batch: its own items, topped up with messages it signs now.
  const Signer& batch_signer = signers.front();
  std::vector<cls::BatchItem> batch(
      batch_signer.items.begin(),
      batch_signer.items.begin() +
          static_cast<std::ptrdiff_t>(std::min(kBurstBatch, batch_signer.items.size())));
  while (batch.size() < kBurstBatch) {
    crypto::Bytes message = rng.generate(64);
    const auto sig = cls::Mccls::sign_typed(params, batch_signer.keys, message, rng);
    batch.push_back(cls::BatchItem{.message = std::move(message), .signature = sig});
  }
  put("cls.batch_equation_us", time_ns([&](std::size_t) {
        const auto eq = cls::batch_equation(params, batch_signer.scoped,
                                            batch_signer.keys.public_key.primary(), batch,
                                            rng, &warm);
        keep(eq.has_value());
      }, 8), true);
  put("cls.challenge_us", time_ns([&](std::size_t i) {
        const auto h = cls::mccls_challenge(item(i).message, item(i).signature.r,
                                            signer(i).keys.public_key.primary());
        keep(h.is_zero());
      }, 256), true);

  // ---- pairing ---------------------------------------------------------------
  const auto pair_args = [&](std::size_t i) {
    return std::pair<ec::G1, ec::G1>(signer(i).keys.public_key.primary(),
                                     signer(i).keys.partial_key);
  };
  put("pairing.pair_us", time_ns([&](std::size_t i) {
        const auto [p, q] = pair_args(i);
        keep(pairing::pair(p, q).is_one());
      }, 8), true);
  std::vector<std::pair<ec::G1, ec::G1>> product;
  for (std::size_t i = 0; i < kBurstWidth; ++i) product.push_back(pair_args(i));
  put("pairing.multi_pair_us", time_ns([&](std::size_t) {
        keep(pairing::multi_pair(product).is_one());
      }, 4), true);
  std::vector<math::Fp2> miller;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [p, q] = pair_args(i);
    miller.push_back(pairing::miller_loop(p, q));
  }
  put("pairing.final_exp_us", time_ns([&](std::size_t i) {
        keep(pairing::final_exponentiation(miller[i % n]).is_one());
      }, 64), true);

  // ---- ec ------------------------------------------------------------------
  put("ec.mul_us", time_ns([&](std::size_t i) {
        keep(signer(i).keys.public_key.primary().mul(scalars[i % scalars.size()]));
      }, 16), true);
  put("ec.mul2_us", time_ns([&](std::size_t i) {
        const cls::McclsSignature& sig = item(i).signature;
        keep(ec::G1::mul2(sig.v.to_u256(), params.p,
                          scalars[i % scalars.size()].neg().to_u256(), sig.r));
      }, 16), true);
  put("ec.mul_generator_us", time_ns([&](std::size_t i) {
        keep(ec::G1::mul_generator(scalars[i % scalars.size()]));
      }, 64), true);
  std::vector<math::U256> deltas;
  std::vector<ec::G1> bases;
  for (const cls::BatchItem& b : batch) {
    deltas.push_back(math::U256::from_u64(rng.next_nonzero_fq().to_u256().w[0] | 1));
    bases.push_back(b.signature.r);
  }
  put("ec.msm_us", time_ns([&](std::size_t) { keep(ec::G1::msm(deltas, bases)); }, 16), true);
  put("ec.in_subgroup_us", time_ns([&](std::size_t i) {
        keep(signer(i).keys.public_key.primary().in_subgroup());
      }, 16), true);
  put("ec.decode_us", time_ns([&](std::size_t i) {
        const auto p = ec::G1::from_bytes(
            std::span<const std::uint8_t>(signer(i).pk_bytes).subspan(1, ec::G1::kEncodedSize));
        keep(p.has_value());
      }, 64), true);

  // ---- math ----------------------------------------------------------------
  // 256 operands spread from the signers' key coordinates, so workloads with
  // few signers do not time a handful of inputs the branch predictor learns
  // (the inversion's cost depends on its input).
  constexpr std::size_t kOperands = 256;
  std::vector<math::Fp> xs;
  std::vector<math::Fp2> x2s;
  for (std::size_t i = 0; i < kOperands; ++i) {
    const ec::G1& p = signer(i).keys.public_key.primary();
    const math::Fp spread = math::Fp::from_u64(i / n + 1);
    xs.push_back(p.x() * spread);
    x2s.emplace_back(p.x() * spread, p.y());
  }
  math::Fp acc = xs.front();
  put("math.fp_mul_ns", time_ns([&](std::size_t i) { acc = acc * xs[i % kOperands]; }, 100000),
      false);
  math::Fp2 acc2 = x2s.front();
  put("math.fp2_mul_ns",
      time_ns([&](std::size_t i) { acc2 = acc2 * x2s[i % kOperands]; }, 50000), false);
  put("math.fp_inv_ns",
      time_ns([&](std::size_t i) { acc = acc + xs[i % kOperands].inv(); }, 2000), false);
  keep(acc.is_zero() && acc2.norm().is_zero());

  // ---- crypto ----------------------------------------------------------------
  put("crypto.hash_to_g1_us", time_ns([&](std::size_t i) {
        keep(cls::hash_id(signer(i).scoped));
      }, 64), true);
  put("crypto.sha256_64b_ns", time_ns([&](std::size_t i) {
        const auto d = crypto::Sha256::digest(item(i).message);
        g_sink = g_sink + d[0];
      }, 20000), false);
  return out;
}

}  // namespace mccls::perfbench
