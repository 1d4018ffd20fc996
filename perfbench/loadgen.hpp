// The benchmark's load generator: ONE thread driving up to a few loopback
// TCP connections with netd framing, either closed loop (each connection
// keeps `depth` requests outstanding) or open loop (seeded arrival times;
// the sender never waits for replies, and latency is timed from each
// request's due time).
//
// Every response is judged by the workload (see Traffic), during warm-up
// too. Latency, throughput and failure counts cover only the measured
// window, which opens after the warm-up.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "crypto/encoding.hpp"

namespace mccls::perfbench {

/// What a workload tells the generator about one response.
enum class Verdict : std::uint8_t {
  kOk = 0,      ///< definitive and correct
  kNoAnswer,    ///< not definitive (busy, unavailable, unknown signer...)
  kWrong,       ///< definitive but wrong: the run fails
};

class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Fills `payload` (unframed wire request) for request `id`; returns a tag
  /// the generator hands back to judge(). `tag >> 24` is the latency class.
  /// nullopt: nothing more to send.
  virtual std::optional<std::uint32_t> next(std::uint64_t id, crypto::Bytes& payload) = 0;
  /// Decodes a response and returns its request id (nullopt if undecodable).
  virtual std::optional<std::uint64_t> response_id(std::span<const std::uint8_t> payload) = 0;
  /// Judges the response last passed to response_id() against request `tag`.
  virtual Verdict judge(std::uint32_t tag) = 0;
};

/// Connections every workload spreads its load over.
inline constexpr std::size_t kConnections = 4;
/// Full-load warm-up before every measured window: the host runs slow for
/// the first seconds of multi-core load.
inline constexpr double kWarmupS = 3.0;

struct LoadConfig {
  std::uint16_t port = 0;
  std::size_t depth = 32;        ///< closed loop: outstanding per connection
  double rate = 0;               ///< > 0: open loop at this many requests/s
  std::uint64_t seed = 1;        ///< open loop: arrival-gap stream
  double measure_s = 10;
  /// Stop after this many requests in total (0 = run by time). With a
  /// limit there is no warm-up and every request is measured.
  std::uint64_t max_requests = 0;
  Tracer* tracer = nullptr;      ///< records a request span per sampled id
  /// Called on the generator thread when the measured window opens and
  /// closes (timed runs only): counter snapshots, tracer start/stop.
  std::function<void()> on_window_start;
  std::function<void()> on_window_end;
};

struct LoadResult {
  bool ok = true;                ///< sockets worked and every reply arrived in time
  std::string error;
  std::uint64_t wrong = 0;       ///< kWrong verdicts (any phase)
  std::uint64_t attempted = 0;   ///< requests due in the measured window
  std::uint64_t failed = 0;      ///< of those: no definitive answer, lost or late
  std::uint64_t completed = 0;   ///< definitive answers received in the window
  double window_s = 0;           ///< measured window length
  /// Latencies (ms) of measured requests with a definitive answer, by class.
  Reservoir latency_ms[2];
  std::vector<double> lag_ms;    ///< open loop: send time minus due time
};

/// `next_id` is the first request id to use; on return it is one past the
/// last id used (ids stay unique across the calls of one stack).
LoadResult run_load(const LoadConfig& config, Traffic& traffic, std::uint64_t& next_id);

}  // namespace mccls::perfbench
