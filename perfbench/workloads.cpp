#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "cls/epoch.hpp"
#include "cls/mccls.hpp"
#include "kgc/logstore.hpp"
#include "kgc/wire.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "netd/frame.hpp"
#include "pairing/pairing.hpp"
#include "scen/matrix.hpp"
#include "sim/rng.hpp"
#include "stack.hpp"
#include "svc/wire.hpp"

namespace mccls::perfbench {

namespace {

namespace fs = std::filesystem;

constexpr unsigned kVerifyWorkers = 3;

// A set-up sample repeats the set-up until it lasts kSetupSampleS; setup_s
// is the median over kSetupSamples samples of the time per call.
constexpr double kSetupSampleS = 1.0;
constexpr int kSetupSamples = 5;

math::Fq master_key(std::uint64_t seed) {
  crypto::HmacDrbg rng(seed ^ 0x4B4743ULL);
  return rng.next_nonzero_fq();
}

void put(std::vector<Metric>& out, const char* name, double value, const char* unit) {
  out.push_back(Metric{name, value, unit});
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// setup_s: `once()` sets up and tears down once and returns the seconds
/// its set-up part took (negative on failure). One untimed call first, then
/// the samples above. Negative if any call fails.
template <class Once>
double setup_seconds(Once&& once) {
  if (once() < 0) return -1;
  std::vector<double> per_call;
  for (int s = 0; s < kSetupSamples; ++s) {
    const std::uint64_t t0 = now_ns();
    double timed = 0;
    std::uint64_t calls = 0;
    while (static_cast<double>(now_ns() - t0) < kSetupSampleS * 1e9) {
      const double one = once();
      if (one < 0) return -1;
      timed += one;
      ++calls;
    }
    per_call.push_back(timed / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

// ---- kgcd store ------------------------------------------------------------

struct StoreEntry {
  std::string id;
  crypto::Bytes pk_bytes;
};

/// Leaves on disk what a kgcd that enrolled `entries` over the wire would
/// have logged (serve never compacts): per identity an enroll record and a
/// voucher record in its shard's WAL. Written with fsync off, off the clock.
bool write_store(const std::string& dir, const std::vector<StoreEntry>& entries) {
  kgc::LogStore store(kgc::LogStoreConfig{.dir = dir, .fsync = false});
  store.recover({}, {});
  std::uint64_t serial = 0;
  for (const StoreEntry& e : entries) {
    const std::size_t shard = kgc::shard_index(e.id, store.shards());
    if (!store.append(shard, kgc::WalRecord{.type = kgc::WalRecordType::kEnroll,
                                            .epoch = 0,
                                            .id = e.id,
                                            .pk_bytes = e.pk_bytes}) ||
        !store.append(shard, kgc::WalRecord{.type = kgc::WalRecordType::kVoucher,
                                            .epoch = 0,
                                            .id = cls::scoped_identity(e.id, 0),
                                            .serial = ++serial})) {
      return false;
    }
  }
  return true;
}

std::vector<StoreEntry> store_entries(const std::vector<Signer>& signers) {
  std::vector<StoreEntry> out;
  out.reserve(signers.size());
  for (const Signer& s : signers) out.push_back(StoreEntry{s.id, s.pk_bytes});
  return out;
}

// ---- verify traffic --------------------------------------------------------

/// A verify-by-identity (kind 3) svc wire request with request_id 0 for one
/// of the signer's valid signatures.
crypto::Bytes verify_frame(const Signer& s, const cls::BatchItem& item) {
  return svc::encode_request(svc::VerifyRequest{.scheme = "McCLS",
                                                .id = s.scoped,
                                                .by_identity = true,
                                                .message = item.message,
                                                .signature = item.signature.to_bytes()});
}

/// Sends the frames `pick` chooses (each a valid signature, so the only
/// correct verdict is verified).
class VerifyTraffic final : public Traffic {
 public:
  VerifyTraffic(const std::vector<crypto::Bytes>& frames, std::function<std::size_t()> pick)
      : frames_(frames), pick_(std::move(pick)) {}

  std::optional<std::uint32_t> next(std::uint64_t id, crypto::Bytes& payload) override {
    const std::size_t index = pick_();
    if (index >= frames_.size()) return std::nullopt;
    payload.assign(frames_[index].begin(), frames_[index].end());
    for (int i = 0; i < 8; ++i) payload[2 + i] = static_cast<std::uint8_t>(id >> (56 - 8 * i));
    return static_cast<std::uint32_t>(index);
  }

  std::optional<std::uint64_t> response_id(std::span<const std::uint8_t> payload) override {
    last_ = svc::decode_response(payload);
    if (!last_) return std::nullopt;
    return last_->request_id;
  }

  Verdict judge(std::uint32_t) override {
    switch (last_->status) {
      case svc::Status::kVerified: return Verdict::kOk;
      case svc::Status::kRejected: return wrong("a valid signature was rejected");
      case svc::Status::kUnknownSigner:
        return wrong("an enrolled signer got unknown-signer");
      case svc::Status::kMalformed:
        return wrong("a well-formed request was answered malformed");
      case svc::Status::kBusy:
      case svc::Status::kUnavailable:
        return Verdict::kNoAnswer;
    }
    return wrong("unknown status");
  }

  std::string error;

 private:
  Verdict wrong(const char* why) {
    if (error.empty()) error = why;
    return Verdict::kWrong;
  }

  const std::vector<crypto::Bytes>& frames_;
  std::function<std::size_t()> pick_;
  std::optional<svc::VerifyResponse> last_;
};

// ---- kgc traffic -----------------------------------------------------------

class KgcTraffic final : public Traffic {
 public:
  KgcTraffic(const std::vector<StoreEntry>& known, const std::vector<StoreEntry>& fresh,
             std::uint64_t seed)
      : known_(known), fresh_(fresh), zipf_(known.size(), 1.0), rng_(seed ^ 0x6B6763ULL) {
    // Zipf rank -> identity, shuffled so the hot set spreads over shards.
    rank_.resize(known.size());
    for (std::size_t i = 0; i < rank_.size(); ++i) rank_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = rank_.size(); i > 1; --i) {
      std::swap(rank_[i - 1], rank_[rng_.uniform_int(i)]);
    }
  }

  std::optional<std::uint32_t> next(std::uint64_t id, crypto::Bytes& payload) override {
    if (rng_.chance(kEnrollShare) && next_fresh_ < fresh_.size()) {
      const std::size_t j = next_fresh_++;
      payload = kgc::encode_kgc_request(kgc::KgcRequest{.op = kgc::KgcOp::kEnroll,
                                                        .request_id = id,
                                                        .id = fresh_[j].id,
                                                        .pk_bytes = fresh_[j].pk_bytes});
      return (1u << 24) | static_cast<std::uint32_t>(j);
    }
    const std::uint32_t k = rank_[zipf_.sample(rng_.uniform())];
    payload = kgc::encode_kgc_request(
        kgc::KgcRequest{.op = kgc::KgcOp::kLookup, .request_id = id, .id = known_[k].id});
    return k;
  }

  std::optional<std::uint64_t> response_id(std::span<const std::uint8_t> payload) override {
    last_ = kgc::decode_kgc_response(payload);
    if (!last_) return std::nullopt;
    return last_->request_id;
  }

  Verdict judge(std::uint32_t tag) override {
    const std::uint32_t index = tag & 0xFFFFFFu;
    if ((tag >> 24) == 0) {
      if (last_->op != kgc::KgcOp::kLookup || last_->status != kgc::KgcStatus::kOk) {
        return wrong("a lookup of an enrolled id was not answered kOk");
      }
      if (last_->payload != known_[index].pk_bytes) {
        return wrong("a lookup returned bytes other than the enrolled ones");
      }
      return Verdict::kOk;
    }
    if (last_->op != kgc::KgcOp::kEnroll || last_->status != kgc::KgcStatus::kOk) {
      return wrong("an enroll was not answered kOk");
    }
    const auto partial = ec::G1::from_bytes(last_->payload);
    if (!partial) return wrong("an enroll returned an undecodable partial key");
    partials.emplace_back(index, *partial);
    return Verdict::kOk;
  }

  static constexpr double kEnrollShare = 0.01;
  /// (fresh index, partial key) of every acknowledged enroll, checked later.
  std::vector<std::pair<std::uint32_t, ec::G1>> partials;
  std::string error;
  [[nodiscard]] std::size_t fresh_used() const { return next_fresh_; }

 private:
  Verdict wrong(const char* why) {
    if (error.empty()) error = why;
    return Verdict::kWrong;
  }

  const std::vector<StoreEntry>& known_;
  const std::vector<StoreEntry>& fresh_;
  Zipf zipf_;
  sim::Rng rng_;
  std::vector<std::uint32_t> rank_;
  std::size_t next_fresh_ = 0;
  std::optional<kgc::KgcResponse> last_;
};

// ---- one phase on the server stack -----------------------------------------

/// Everything a phase measured. Counter snapshots bracket the window.
struct Phase {
  bool ok = true;
  std::string error;
  double setup_s = 0;
  double rss_mb = 0;
  LoadResult load;
  svc::ServiceMetrics::Snapshot svc0, svc1, kgc0, kgc1;
  netd::NetdMetrics::Snapshot net0, net1;
  double resolve_hot_ns = 0;
  double resolve_cold_us = 0;
  CpuTicks cpu0, cpu1;
};

struct ServerSpec {
  std::string base_store;  ///< copied before every phase so phases start equal
  math::Fq master;
  std::uint64_t seed = 0;
  bool kgc_listener = false;  ///< drive kgcd (else verifyd)
  LoadConfig load;            ///< port, tracer and hooks are filled in here
  /// Off-clock preparation on the booted stack (e.g. a priming pass).
  std::function<bool(Stack&, std::uint64_t& next_id)> prime;
  std::function<std::unique_ptr<Traffic>()> traffic;
  /// Identities whose directory resolution the phase times afterwards.
  std::vector<std::string> resolve_ids;
};

/// Boots the stack on `config`, warms it up and measures the window.
/// False, with phase.error set, on failure.
bool serve_window(const ServerSpec& spec, const StackConfig& config, Tracer* tracer,
                  std::uint64_t trace_sample, Traffic& traffic, Phase& phase) {
  // peak_rss_mb is the peak growth from here: the stack that serves the
  // window, and the load generator's fixed sample buffers.
  const double base_mb = reset_peak_rss();
  const auto stack = std::make_unique<Stack>(spec.master, config);
  if (!stack->start()) {
    phase.error = stack->error();
    return false;
  }

  std::uint64_t next_id = 1;
  if (spec.prime && !spec.prime(*stack, next_id)) {
    phase.error = "priming pass failed";
    return false;
  }
  const netd::NetServer& server =
      spec.kgc_listener ? stack->kgc_server() : stack->verify_server();
  LoadConfig load = spec.load;
  load.port = server.port();
  load.tracer = tracer;
  load.on_window_start = [&] {
    phase.svc0 = stack->service().metrics().snapshot();
    phase.kgc0 = stack->daemon().metrics().snapshot();
    phase.net0 = server.metrics().snapshot();
    phase.cpu0 = cpu_ticks();
    if (tracer != nullptr) tracer->start(trace_sample);
  };
  load.on_window_end = [&] {
    if (tracer != nullptr) tracer->stop();
    phase.svc1 = stack->service().metrics().snapshot();
    phase.kgc1 = stack->daemon().metrics().snapshot();
    phase.net1 = server.metrics().snapshot();
    phase.cpu1 = cpu_ticks();
  };
  phase.load = run_load(load, traffic, next_id);
  phase.rss_mb = peak_rss_mb() - base_mb;
  if (!phase.load.ok) {
    phase.error = phase.load.error;
    return false;
  }

  if (tracer != nullptr && !spec.resolve_ids.empty()) {
    // Off the clock: the directory's resolve cost with a warm decoded-key
    // LRU and with an empty one.
    kgc::KeyDirectory& directory = stack->daemon().directory();
    const std::string& hot = spec.resolve_ids.front();
    (void)directory.resolve(hot);
    phase.resolve_hot_ns = time_ns([&](std::size_t) { (void)directory.resolve(hot); }, 20000);
    const std::size_t n = std::min<std::size_t>(spec.resolve_ids.size(), 256);
    std::vector<double> cold;
    for (int rep = 0; rep < 5; ++rep) {
      directory.drop_caches();
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) (void)directory.resolve(spec.resolve_ids[i]);
      cold.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n) / 1e3);
    }
    phase.resolve_cold_us = median(cold);
  }
  return true;
}

Phase run_phase(const ServerSpec& spec, const std::string& dir, Tracer* tracer,
                std::uint64_t trace_sample, Traffic& traffic) {
  Phase phase;
  // One copy of the store for the stack that serves the window (its enrolls
  // append to it) and one for the set-up samples.
  const std::string setup_dir = dir + "-setup";
  for (const std::string& d : {dir, setup_dir}) {
    std::error_code ec;
    fs::remove_all(d, ec);
    fs::copy(spec.base_store, d, fs::copy_options::recursive, ec);
    if (ec) {
      phase.ok = false;
      phase.error = "cannot copy the kgcd store: " + ec.message();
      return phase;
    }
  }
  const StackConfig config{
      .data_dir = dir, .workers = kVerifyWorkers, .seed = spec.seed, .tracer = tracer};
  if (!serve_window(spec, config, tracer, trace_sample, traffic, phase)) {
    phase.ok = false;
    return phase;
  }

  // Set-up is timed after the window, when the host is past the slow start
  // it shows under a new load. Boot (WAL replay until both listeners
  // accept) is timed; teardown is not.
  StackConfig setup_config = config;
  setup_config.data_dir = setup_dir;
  phase.setup_s = setup_seconds([&]() -> double {
    const std::uint64_t t0 = now_ns();
    Stack boot(spec.master, setup_config);
    if (!boot.start()) {
      phase.error = boot.error();
      return -1;
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  });
  phase.ok = phase.setup_s >= 0;
  return phase;
}

std::vector<Metric> end_to_end(double setup_s, double rss_mb, double ops_per_s,
                               double p50_ms) {
  std::vector<Metric> out;
  put(out, "setup_s", setup_s, "s");
  put(out, "peak_rss_mb", rss_mb, "MB");
  put(out, "ops_per_s", ops_per_s, "1/s");
  put(out, "latency_p50_ms", p50_ms, "ms");
  return out;
}

std::vector<Metric> phase_end_to_end(const Phase& p) {
  return end_to_end(p.setup_s, p.rss_mb,
                    ratio(static_cast<double>(p.load.completed), p.load.window_s),
                    p.load.latency_ms[0].quantile(0.50));
}

/// Traced-minus-untraced, one entry per end-to-end metric.
std::vector<Metric> overhead(const std::vector<Metric>& untraced,
                             const std::vector<Metric>& traced) {
  std::vector<Metric> out;
  for (std::size_t i = 0; i < untraced.size() && i < traced.size(); ++i) {
    out.push_back(Metric{"overhead." + untraced[i].name, traced[i].value - untraced[i].value,
                         untraced[i].unit});
  }
  return out;
}


/// Per-layer metrics a traced server phase yields from its spans and from the
/// program's own counters.
std::vector<Metric> server_layers(const Phase& p, const Tracer& tracer, bool kgc_listener) {
  struct PerTrace {
    std::uint64_t client = 0, sink = 0, handler = 0;
  };
  std::unordered_map<std::uint64_t, PerTrace> by_trace;
  std::vector<double> sink_ms, resolve_us, enroll_us, lookup_us;
  for (const Span& s : tracer.spans()) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    switch (s.name) {
      case SpanName::kRequest: by_trace[s.trace].client = dur; break;
      case SpanName::kSvcSink:
      case SpanName::kKgcSink:
        by_trace[s.trace].sink = dur;
        sink_ms.push_back(static_cast<double>(dur) / 1e6);
        break;
      case SpanName::kKgcHandler:
        by_trace[s.trace].handler = dur;
        if (s.attr == static_cast<std::uint8_t>(kgc::KgcOp::kEnroll)) {
          enroll_us.push_back(static_cast<double>(dur) / 1e3);
        } else if (s.attr == static_cast<std::uint8_t>(kgc::KgcOp::kLookup)) {
          lookup_us.push_back(static_cast<double>(dur) / 1e3);
        }
        break;
      case SpanName::kResolve: resolve_us.push_back(static_cast<double>(dur) / 1e3); break;
      case SpanName::kScenJob: break;
    }
  }
  std::vector<double> transport_us, queue_wait_us;
  for (const auto& [id, t] : by_trace) {
    if (t.client != 0 && t.sink != 0 && t.client >= t.sink) {
      transport_us.push_back(static_cast<double>(t.client - t.sink) / 1e3);
    }
    if (t.sink != 0 && t.handler != 0 && t.sink >= t.handler) {
      queue_wait_us.push_back(static_cast<double>(t.sink - t.handler) / 1e3);
    }
  }

  const auto& a = p.svc0;
  const auto& b = p.svc1;
  const double verdicts =
      static_cast<double>((b.verified - a.verified) + (b.rejected - a.rejected));
  const double dir_hits = static_cast<double>(p.kgc1.dir_hits - p.kgc0.dir_hits);
  const double dir_misses = static_cast<double>(p.kgc1.dir_misses - p.kgc0.dir_misses);

  std::vector<Metric> out;
  put(out, "netd.transport_p50_us", quantile(transport_us, 0.50), "us");
  put(out, "netd.transport_p99_us", quantile(transport_us, 0.99), "us");
  put(out, "netd.sink_refusals", static_cast<double>(tracer.refusals()), "count");
  put(out, "netd.backpressure_pauses",
      static_cast<double>(p.net1.backpressure_pauses - p.net0.backpressure_pauses), "count");
  put(out, "svc.sink_p50_ms", kgc_listener ? 0 : quantile(sink_ms, 0.50), "ms");
  put(out, "svc.sink_p99_ms", kgc_listener ? 0 : quantile(sink_ms, 0.99), "ms");
  put(out, "svc.batched_share",
      ratio(static_cast<double>(b.batched_signatures - a.batched_signatures), verdicts),
      "ratio");
  put(out, "svc.mean_batch_size",
      ratio(static_cast<double>(b.batched_signatures - a.batched_signatures),
            static_cast<double>(b.batches - a.batches)),
      "count");
  put(out, "svc.multi_pair_width",
      ratio(static_cast<double>(b.multi_pair_groups - a.multi_pair_groups),
            static_cast<double>(b.multi_pair_batches - a.multi_pair_batches)),
      "count");
  put(out, "svc.single_verifies", static_cast<double>(b.single_verifies - a.single_verifies),
      "count");
  put(out, "svc.batch_fallbacks", static_cast<double>(b.batch_fallbacks - a.batch_fallbacks),
      "count");
  put(out, "svc.queue_depth_peak", static_cast<double>(b.queue_depth_peak), "count");
  put(out, "svc.resolve_p50_us", quantile(resolve_us, 0.50), "us");
  put(out, "svc.resolve_p99_us", quantile(resolve_us, 0.99), "us");
  put(out, "kgc.dir_hit_rate", ratio(dir_hits, dir_hits + dir_misses), "ratio");
  put(out, "kgc.resolve_hot_ns", p.resolve_hot_ns, "ns");
  put(out, "kgc.resolve_cold_us", p.resolve_cold_us, "us");
  put(out, "kgc.handle_enroll_us", median(enroll_us), "us");
  put(out, "kgc.handle_lookup_us", median(lookup_us), "us");
  put(out, "kgc.queue_wait_p99_us", quantile(queue_wait_us, 0.99), "us");
  put(out, "kgc.enroll_p50_ms", p.load.latency_ms[1].quantile(0.50), "ms");
  put(out, "kgc.enroll_p99_ms", p.load.latency_ms[1].quantile(0.99), "ms");
  put(out, "loadgen.lag_p99_ms", quantile(p.load.lag_ms, 0.99), "ms");
  put(out, "host.steal_frac", steal_frac(p.cpu0, p.cpu1), "ratio");
  return out;
}

/// Frame-layer timings on the workload's own request payloads.
void time_codecs(std::vector<Metric>& out, const std::vector<crypto::Bytes>& payloads,
                 bool svc_frames) {
  const std::size_t n = payloads.size();
  crypto::Bytes stream;
  netd::FrameDecoder decoder;
  put(out, "netd.frame_codec_ns", time_ns([&](std::size_t i) {
        stream.clear();
        netd::append_frame(stream, payloads[i % n]);
        decoder.feed(stream);
        (void)decoder.next();
      }, 20000), "ns");
  double decode_ns = 0;
  if (svc_frames) {
    decode_ns = time_ns([&](std::size_t i) { (void)svc::decode_request(payloads[i % n]); },
                        2000);
  }
  put(out, "svc.wire_decode_ns", decode_ns, "ns");
}

std::string span_path(const Options& o) {
  return o.out_dir + "/spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".jsonl";
}

std::string phase_dir(const Options& o, const char* name) { return o.work_dir + "/" + name; }

/// Median per-append cost of a durable (fsync) WAL append, on a throwaway
/// store in `dir`.
double time_wal_append_us(const std::string& dir) {
  kgc::LogStore store(kgc::LogStoreConfig{.dir = dir});
  store.recover({}, {});
  std::vector<double> us;
  for (int i = 0; i < 64; ++i) {
    const kgc::WalRecord record{.type = kgc::WalRecordType::kEnroll,
                                .epoch = 0,
                                .id = "wal-probe-" + std::to_string(i),
                                .pk_bytes = crypto::Bytes(34, 0x02)};
    const std::uint64_t t0 = now_ns();
    if (!store.append(kgc::shard_index(record.id, store.shards()), record)) return 0;
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

/// Runs the untraced phase and, when tracing, the traced one with the same
/// layout; fills the end-to-end metrics, and with tracing the server-side
/// per-layer metrics and the tracing overhead. `check` judges each phase's
/// answers (and may add info lines).
bool run_server(const Options& o, ServerSpec& spec, std::uint64_t trace_sample,
                RunResult& result, Tracer& tracer,
                const std::function<void(const Phase&, bool traced)>& check) {
  Phase measured;
  {
    auto traffic = spec.traffic();
    measured = run_phase(spec, phase_dir(o, "phase-a"), nullptr, 1, *traffic);
    if (!measured.ok) {
      std::fprintf(stderr, "perfbench: %s\n", measured.error.c_str());
      return false;
    }
    check(measured, false);
  }
  result.attempted = measured.load.attempted;
  result.failed = measured.load.failed;
  result.end_to_end = phase_end_to_end(measured);
  put(result.info, "error_frac",
      ratio(static_cast<double>(measured.load.failed),
            static_cast<double>(measured.load.attempted)),
      "ratio");
  put(result.info, "lag_p99_ms", quantile(measured.load.lag_ms, 0.99), "ms");
  put(result.info, "latency_samples", static_cast<double>(measured.load.latency_ms[0].count()),
      "count");
  // The window's p99 is shown but not bounded: on a shared 4-vCPU VM the
  // host's scheduling stalls decide it. Over eight verify_paced runs of one
  // binary its spread (quartile distance over median) was 0.70, against
  // 0.07 for the p50 (see README, "Noise").
  const double p99_ms = measured.load.latency_ms[0].quantile(0.99);
  put(result.info, "latency_p99_ms", p99_ms, "ms");
  put(result.info, "steal_frac", steal_frac(measured.cpu0, measured.cpu1), "ratio");
  if (!o.trace || !result.correct) return true;
  put(result.per_layer, "loadgen.latency_p99_ms", p99_ms, "ms");

  auto traffic = spec.traffic();
  const Phase traced = run_phase(spec, phase_dir(o, "phase-b"), &tracer, trace_sample, *traffic);
  if (!traced.ok) {
    std::fprintf(stderr, "perfbench: traced phase: %s\n", traced.error.c_str());
    return false;
  }
  check(traced, true);
  for (const Metric& m : overhead(result.end_to_end, phase_end_to_end(traced))) {
    result.per_layer.push_back(m);
  }
  for (const Metric& m : server_layers(traced, tracer, spec.kgc_listener)) {
    result.per_layer.push_back(m);
  }
  return true;
}

/// The traced run's remaining per-layer metrics: frame codecs on the
/// workload's own payloads, the WAL append cost, the crypto stack on the
/// workload's own signers, and the span file.
void finish_traced(const Options& o, RunResult& result, const Tracer& tracer,
                   const std::vector<crypto::Bytes>& payloads, bool svc_frames,
                   double wal_append_us, const cls::SystemParams& params,
                   const std::vector<Signer>& signers) {
  time_codecs(result.per_layer, payloads, svc_frames);
  put(result.per_layer, "kgc.wal_append_us", wal_append_us, "us");
  for (const Metric& m : time_crypto_layers(params, signers, o.seed)) {
    result.per_layer.push_back(m);
  }
  if (!tracer.write(span_path(o))) {
    std::fprintf(stderr, "perfbench: cannot write the span file\n");
  }
}

// ---- verify_paced ----------------------------------------------------------

constexpr std::size_t kPacedKnown = 1024;
constexpr std::size_t kPacedMessages = 2;
constexpr double kPacedRate = 400;    ///< requests/s, Poisson arrivals
constexpr std::size_t kPacedBlock = 10;  ///< one request per block is a first-seen signer
constexpr std::size_t kPrimeDepth = 32;

RunResult run_verify_paced(const Options& o) {
  RunResult result;
  const math::Fq master = master_key(o.seed);
  const cls::Kgc kgc = cls::Kgc::from_master_key(master);
  // Requests over warm-up + window, a tenth of them first-seen signers, with
  // a margin so Poisson variation never exhausts the pool.
  const auto fresh_count = static_cast<std::size_t>(
      std::ceil(kPacedRate * (kWarmupS + o.seconds) / kPacedBlock * 1.25) + 64);
  const std::vector<Signer> known =
      make_signers(kgc, "node-", 0, kPacedKnown, kPacedMessages, o.seed);
  const std::vector<Signer> fresh =
      make_signers(kgc, "node-", kPacedKnown, fresh_count, 1, o.seed);

  std::vector<crypto::Bytes> frames;
  for (const Signer& s : known) {
    for (const cls::BatchItem& item : s.items) frames.push_back(verify_frame(s, item));
  }
  const std::size_t first_fresh = frames.size();
  for (const Signer& s : fresh) frames.push_back(verify_frame(s, s.items.front()));

  std::vector<StoreEntry> entries = store_entries(known);
  for (const StoreEntry& e : store_entries(fresh)) entries.push_back(e);
  const std::string base = phase_dir(o, "store");
  if (!write_store(base, entries)) {
    result.fail("cannot write the kgcd store");
    return result;
  }

  ServerSpec spec;
  spec.base_store = base;
  spec.master = master;
  spec.seed = o.seed;
  spec.load = LoadConfig{.rate = kPacedRate,
                         .seed = o.seed,
                         .measure_s = o.seconds};
  // Off the clock, every known signer is seen once, so only the designated
  // first-seen requests pay the per-signer fill.
  spec.prime = [&](Stack& stack, std::uint64_t& next_id) {
    std::size_t next = 0;
    VerifyTraffic prime(frames, [&next] { return kPacedMessages * next++; });
    const LoadResult r = run_load(LoadConfig{.port = stack.verify_port(),
                                             .depth = kPrimeDepth,
                                             .max_requests = kPacedKnown},
                                  prime, next_id);
    return r.ok && r.wrong == 0 && r.failed == 0 && prime.error.empty();
  };
  std::vector<VerifyTraffic*> live;
  spec.traffic = [&]() -> std::unique_ptr<Traffic> {
    struct Picker {
      sim::Rng rng;
      std::size_t position = 0;
      std::size_t fresh_slot = 0;
      std::size_t next_fresh = 0;
    };
    auto state = std::make_shared<Picker>(Picker{.rng = sim::Rng(o.seed ^ 0x9ACEDULL)});
    auto traffic = std::make_unique<VerifyTraffic>(
        frames, [state, first_fresh, fresh_count] {
          Picker& p = *state;
          if (p.position == 0) p.fresh_slot = p.rng.uniform_int(kPacedBlock);
          const bool first_seen = p.position == p.fresh_slot;
          p.position = (p.position + 1) % kPacedBlock;
          if (first_seen && p.next_fresh < fresh_count) return first_fresh + p.next_fresh++;
          return kPacedMessages * p.rng.uniform_int(kPacedKnown) +
                 p.rng.uniform_int(kPacedMessages);
        });
    live.push_back(traffic.get());
    return traffic;
  };
  for (const Signer& s : known) spec.resolve_ids.push_back(s.scoped);

  Tracer tracer;
  const bool ran = run_server(o, spec, 1, result, tracer, [&](const Phase& p, bool t) {
    if (!live.back()->error.empty()) result.fail(live.back()->error);
    if (p.load.wrong > 0) result.fail("unexpected reply");
    if (!t) {
      put(result.info, "verified_per_s",
          ratio(static_cast<double>(p.load.completed), p.load.window_s), "1/s");
    }
  });
  if (!ran) result.fail("the stack or the load generator failed");
  if (!result.correct || !o.trace) return result;
  finish_traced(o, result, tracer, frames, true, 0, kgc.params(), known);
  return result;
}

// ---- kgc_mixed -------------------------------------------------------------

constexpr std::size_t kKgcIdentities = 100000;
constexpr std::size_t kKgcDepth = 8;
constexpr double kKgcMaxRate = 250000;  ///< sizes the fresh-identity pool
constexpr std::uint64_t kKgcTraceSample = 32;

/// Public keys k·G, (k+1)·G, ... for a seeded k: distinct, valid subgroup
/// points at one point addition each. Built in a few parallel runs.
std::vector<crypto::Bytes> key_chain(std::size_t count, std::uint64_t seed) {
  crypto::HmacDrbg rng(seed ^ 0xC4A1ULL);
  const math::Fq start = rng.next_nonzero_fq();
  constexpr std::size_t kRuns = 4;
  const std::size_t per_run = (count + kRuns - 1) / kRuns;
  std::vector<crypto::Bytes> out(count);
  std::vector<std::jthread> pool;
  for (std::size_t r = 0; r < kRuns; ++r) {
    pool.emplace_back([&, r] {
      const std::size_t lo = r * per_run;
      const std::size_t hi = std::min(count, lo + per_run);
      if (lo >= hi) return;
      ec::G1 point = ec::G1::mul_generator(start + math::Fq::from_u64(lo));
      for (std::size_t i = lo; i < hi; ++i) {
        out[i] = cls::PublicKey{.points = {point}}.to_bytes();
        point += ec::G1::generator();
      }
    });
  }
  pool.clear();  // join before `out` is handed back
  return out;
}

RunResult run_kgc_mixed(const Options& o) {
  RunResult result;
  const math::Fq master = master_key(o.seed);
  const cls::Kgc kgc = cls::Kgc::from_master_key(master);
  const auto fresh_count = static_cast<std::size_t>(
      std::ceil(KgcTraffic::kEnrollShare * kKgcMaxRate * (kWarmupS + o.seconds)));
  std::vector<StoreEntry> known, fresh;
  {
    std::vector<crypto::Bytes> keys = key_chain(kKgcIdentities + fresh_count, o.seed);
    for (std::size_t i = 0; i < kKgcIdentities; ++i) {
      known.push_back(StoreEntry{"dev-" + std::to_string(i), std::move(keys[i])});
    }
    for (std::size_t i = 0; i < fresh_count; ++i) {
      fresh.push_back(
          StoreEntry{"new-" + std::to_string(i), std::move(keys[kKgcIdentities + i])});
    }
  }
  const std::string base = phase_dir(o, "store");
  if (!write_store(base, known)) {
    result.fail("cannot write the kgcd store");
    return result;
  }

  ServerSpec spec;
  spec.base_store = base;
  spec.master = master;
  spec.seed = o.seed;
  spec.kgc_listener = true;
  spec.load = LoadConfig{.depth = kKgcDepth, .measure_s = o.seconds};
  std::vector<KgcTraffic*> live;
  spec.traffic = [&]() -> std::unique_ptr<Traffic> {
    auto traffic = std::make_unique<KgcTraffic>(known, fresh, o.seed);
    live.push_back(traffic.get());
    return traffic;
  };
  for (std::size_t i = 0; i < 256; ++i) spec.resolve_ids.push_back(known[i].id);

  Tracer tracer;
  const bool ran = run_server(o, spec, kKgcTraceSample, result, tracer,
                              [&](const Phase& p, bool t) {
    KgcTraffic& traffic = *live.back();
    if (!traffic.error.empty()) result.fail(traffic.error);
    if (p.load.wrong > 0) result.fail("unexpected reply");
    if (traffic.fresh_used() >= fresh.size()) {
      std::fprintf(stderr, "perfbench: the fresh-identity pool ran out\n");
    }
    // Off the clock: every partial key D kgcd returned must satisfy
    // ê(D, P) = ê(Q_ID, Ppub), i.e. ê(D, P)·ê(−Q_ID, Ppub) = 1.
    std::atomic<std::size_t> bad{0};
    const cls::SystemParams& params = kgc.params();
    const std::size_t n = traffic.partials.size();
    std::vector<std::jthread> pool;
    for (std::size_t w = 0; w < 4; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t i = w; i < n; i += 4) {
          const auto& [index, partial] = traffic.partials[i];
          const ec::G1 q = cls::hash_id(cls::scoped_identity(fresh[index].id, 0));
          const std::pair<ec::G1, ec::G1> product[] = {{partial, params.p},
                                                       {q.neg(), params.p_pub}};
          if (!pairing::multi_pair(product).is_one()) bad.fetch_add(1);
        }
      });
    }
    pool.clear();
    if (bad.load() > 0) result.fail("a returned partial key fails e(D, P) = e(Q_ID, Ppub)");
    if (!t) {
      put(result.info, "kgc_ops_per_s",
          ratio(static_cast<double>(p.load.completed), p.load.window_s), "1/s");
      put(result.info, "enroll_p50_ms", p.load.latency_ms[1].quantile(0.50), "ms");
      put(result.info, "enroll_p99_ms", p.load.latency_ms[1].quantile(0.99), "ms");
      put(result.info, "enrolls_checked", static_cast<double>(n), "count");
    }
  });
  if (!ran) result.fail("the stack or the load generator failed");
  if (!result.correct || !o.trace) return result;

  std::vector<crypto::Bytes> payloads;
  for (std::size_t i = 0; i < 1024; ++i) {
    payloads.push_back(kgc::encode_kgc_request(kgc::KgcRequest{
        .op = kgc::KgcOp::kLookup, .request_id = i + 1, .id = known[i].id}));
  }
  const double wal_us = time_wal_append_us(phase_dir(o, "wal-probe"));
  const std::vector<Signer> probes = make_signers(kgc, "probe-", 0, 8, 8, o.seed);
  finish_traced(o, result, tracer, payloads, false, wal_us, kgc.params(), probes);
  return result;
}

// ---- scen_sweep ------------------------------------------------------------

constexpr unsigned kScenWorkers = 3;
constexpr unsigned kScenSeeds = 4;

/// The swept cells, costliest first so the pool's tail stays short. The
/// 20-node black-hole cell is the paper's own setting (300 s, 2 attackers,
/// traffic from 5-15 s); the others follow scenario_matrix's full preset.
std::vector<scen::Cell> sweep_cells(std::uint64_t seed, unsigned seeds) {
  const auto cell = [&](std::size_t nodes, scen::Protocol protocol, aodv::AttackType attack,
                        double duration, const char* name) {
    scen::Cell c;
    c.name = name;
    c.protocol = protocol;
    c.seeds = seeds;
    c.seed_base = seed * 1000 + 1;
    aodv::ScenarioConfig& b = c.base;
    b.num_nodes = nodes;
    const double scale = std::sqrt(static_cast<double>(nodes) / 20.0);
    b.area_width = 1500.0 * scale;
    b.area_height = 300.0 * scale;
    b.duration = duration;
    b.num_flows = std::max<std::size_t>(10, nodes / 10);
    b.security = aodv::SecurityMode::kModeled;
    b.attack = attack;
    if (nodes > 20) {
      b.num_attackers = attack == aodv::AttackType::kNone ? 0 : std::max<std::size_t>(2, nodes / 5);
      b.traffic_start_min = 1.0;
      b.traffic_start_max = 3.0;
    }
    return c;
  };
  using aodv::AttackType;
  return {cell(500, scen::Protocol::kAodv, AttackType::kNone, 12, "aodv_500_none_sec"),
          cell(100, scen::Protocol::kDsr, AttackType::kReplayStorm, 30, "dsr_100_replay_sec"),
          cell(100, scen::Protocol::kAodv, AttackType::kReplayStorm, 30, "aodv_100_replay_sec"),
          cell(20, scen::Protocol::kAodv, AttackType::kBlackHole, 300, "aodv_20_blackhole_sec")};
}

/// The per-seed counts that must repeat exactly between runs of one cell.
struct SeedCounts {
  std::uint64_t frames = 0;
  std::uint64_t verify_ops = 0;
  std::uint64_t delivered = 0;
  friend bool operator==(const SeedCounts&, const SeedCounts&) = default;
};

SeedCounts counts_of(const aodv::ScenarioResult& r) {
  return SeedCounts{r.channel.frames_transmitted, r.metrics.verify_ops, r.metrics.data_delivered};
}

/// One sweep's results as [cell][seed] counts, plus its wall time.
struct Sweep {
  std::vector<std::vector<SeedCounts>> counts;
  double seconds = 0;
  std::vector<double> job_s;  ///< traced sweeps only: per-job wall time
};

Sweep sweep_untraced(const std::vector<scen::Cell>& cells) {
  Sweep sweep;
  const std::uint64_t t0 = now_ns();
  const scen::MatrixResult r = scen::run_matrix(cells, kScenWorkers);
  sweep.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  for (const scen::CellResult& c : r.cells) {
    std::vector<SeedCounts> row;
    for (const aodv::ScenarioResult& s : c.per_seed) row.push_back(counts_of(s));
    sweep.counts.push_back(std::move(row));
  }
  return sweep;
}

/// The traced form of run_matrix: the same flattened (cell, seed) job order
/// on the same number of threads, with a span around each run_cell_seed.
Sweep sweep_traced(const std::vector<scen::Cell>& cells, Tracer& tracer) {
  struct Job {
    std::size_t cell;
    unsigned seed;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (unsigned s = 0; s < cells[c].seeds; ++s) jobs.push_back(Job{c, s});
  }
  std::vector<aodv::ScenarioResult> results(jobs.size());
  std::vector<double> job_s(jobs.size());
  std::atomic<std::size_t> next{0};
  Sweep sweep;
  const std::uint64_t t0 = now_ns();
  {
    std::vector<std::jthread> pool;
    for (unsigned w = 0; w < kScenWorkers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
          const std::uint64_t start = now_ns();
          results[j] = scen::run_cell_seed(cells[jobs[j].cell], jobs[j].seed);
          const std::uint64_t end = now_ns();
          job_s[j] = static_cast<double>(end - start) / 1e9;
          tracer.record(Span{.trace = j + 1,
                             .start_ns = start,
                             .end_ns = end,
                             .name = SpanName::kScenJob,
                             .attr = static_cast<std::uint8_t>(jobs[j].cell)});
        }
      });
    }
  }
  sweep.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  sweep.counts.resize(cells.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sweep.counts[jobs[j].cell].push_back(counts_of(results[j]));
  }
  sweep.job_s = std::move(job_s);
  return sweep;
}

struct ScenPhase {
  double setup_s = 0;
  double rss_mb = 0;
  std::vector<Sweep> sweeps;
  std::uint64_t jobs = 0;
  double seconds = 0;
  double steal = 0;
};

ScenPhase run_scen_phase(const Options& o, Tracer* tracer, RunResult& result) {
  ScenPhase phase;
  // Warm-up: the first seed of every cell on the full pool.
  const Sweep warm = sweep_untraced(sweep_cells(o.seed, 1));
  const std::vector<scen::Cell> cells = sweep_cells(o.seed, kScenSeeds);
  // peak_rss_mb is the whole process's peak over the measured sweeps: there
  // are no generator inputs to leave out, and what the heap trim leaves
  // resident varies from run to run by more than the sweeps' own growth.
  reset_peak_rss();
  const std::uint64_t t0 = now_ns();
  const CpuTicks cpu0 = cpu_ticks();
  if (tracer != nullptr) tracer->start(1);
  do {
    phase.sweeps.push_back(tracer != nullptr ? sweep_traced(cells, *tracer)
                                             : sweep_untraced(cells));
    phase.jobs += cells.size() * kScenSeeds;
  } while (static_cast<double>(now_ns() - t0) / 1e9 < o.seconds);
  phase.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  phase.steal = steal_frac(cpu0, cpu_ticks());
  if (tracer != nullptr) tracer->stop();
  phase.rss_mb = peak_rss_mb();

  // Set-up, timed after the sweeps as on the server stack: build (and tear
  // down) the world of every (cell, seed) job of one sweep without
  // simulating it.
  std::vector<scen::Cell> empty = cells;
  for (scen::Cell& c : empty) c.base.duration = 0;
  phase.setup_s = setup_seconds([&] {
    const std::uint64_t start = now_ns();
    for (const scen::Cell& c : empty) {
      for (unsigned s = 0; s < c.seeds; ++s) (void)scen::run_cell_seed(c, s);
    }
    return static_cast<double>(now_ns() - start) / 1e9;
  });

  // Every repetition of a (cell, seed) job must produce the same counts.
  const Sweep& first = phase.sweeps.front();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!(warm.counts[c][0] == first.counts[c][0])) {
      result.fail("scen counts differ between runs of cell " + cells[c].name);
    }
    for (const Sweep& s : phase.sweeps) {
      if (s.counts[c] != first.counts[c]) {
        result.fail("scen counts differ between runs of cell " + cells[c].name);
      }
    }
  }
  return phase;
}

std::vector<Metric> scen_end_to_end(const ScenPhase& p) {
  std::vector<double> sweep_ms;
  for (const Sweep& s : p.sweeps) sweep_ms.push_back(s.seconds * 1e3);
  return end_to_end(p.setup_s, p.rss_mb, ratio(static_cast<double>(p.jobs), p.seconds),
                    quantile(sweep_ms, 0.50));
}

RunResult run_scen_sweep(const Options& o) {
  RunResult result;
  const ScenPhase untraced = run_scen_phase(o, nullptr, result);
  if (!result.correct) return result;
  result.attempted = untraced.jobs;
  result.end_to_end = scen_end_to_end(untraced);
  put(result.info, "sim_jobs_per_s", result.end_to_end[2].value, "1/s");
  put(result.info, "sweeps", static_cast<double>(untraced.sweeps.size()), "count");
  put(result.info, "steal_frac", untraced.steal, "ratio");
  if (!o.trace) return result;

  Tracer tracer;
  const ScenPhase traced = run_scen_phase(o, &tracer, result);
  if (!result.correct) return result;
  result.per_layer = overhead(result.end_to_end, scen_end_to_end(traced));
  std::vector<double> job_s;
  for (const Sweep& s : traced.sweeps) job_s.insert(job_s.end(), s.job_s.begin(), s.job_s.end());
  double frames = 0;
  double verify_ops = 0;
  for (const auto& row : traced.sweeps.front().counts) {
    for (const SeedCounts& c : row) {
      frames += static_cast<double>(c.frames);
      verify_ops += static_cast<double>(c.verify_ops);
    }
  }
  double job_total = 0;
  for (const double s : job_s) job_total += s;
  put(result.per_layer, "scen.job_p50_s", median(job_s), "s");
  put(result.per_layer, "scen.job_max_s", quantile(job_s, 1.0), "s");
  put(result.per_layer, "scen.frames_per_s",
      ratio(frames * static_cast<double>(traced.sweeps.size()), job_total), "1/s");
  put(result.per_layer, "scen.frames", frames, "count");
  put(result.per_layer, "scen.verify_ops", verify_ops, "count");
  put(result.per_layer, "host.steal_frac", traced.steal, "ratio");
  // No stack and no keys of its own: the crypto layers are timed on a small
  // seeded signer set, for host comparison only.
  const cls::Kgc kgc = cls::Kgc::from_master_key(master_key(o.seed));
  const std::vector<Signer> probes = make_signers(kgc, "probe-", 0, 8, 8, o.seed);
  for (const Metric& m : time_crypto_layers(kgc.params(), probes, o.seed)) {
    result.per_layer.push_back(m);
  }
  if (!tracer.write(span_path(o))) {
    std::fprintf(stderr, "perfbench: cannot write the span file\n");
  }
  return result;
}

}  // namespace

RunResult run_workload(const Options& options) {
  RunResult result;
  if (options.workload == "verify_paced") return run_verify_paced(options);
  if (options.workload == "kgc_mixed") return run_kgc_mixed(options);
  if (options.workload == "scen_sweep") return run_scen_sweep(options);
  result.fail("unknown workload " + options.workload);
  return result;
}

}  // namespace mccls::perfbench
