// Shared pieces of the benchmark program: clocks, exact percentiles, the
// seeded samplers, the result record every workload fills in, and the span
// recorder behind the traced run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mccls::perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  /// `u` uniform in [0, 1).
  [[nodiscard]] std::size_t sample(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Fixed-capacity uniform sample of a stream (Vitter's algorithm R). The
/// storage is allocated and touched up front, so the benchmark's own memory
/// does not grow with the program's throughput.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = std::size_t{1} << 17) : buf_(capacity) {}

  void add(double v);
  [[nodiscard]] std::uint64_t count() const { return seen_; }
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> buf_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x5EED;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `correct` false means an answer check
/// failed; the run then prints no numbers and exits nonzero.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed as `info <name> = <value> <unit>` lines only (workload-specific
  /// names and diagnostics that are not part of the JSON contract).
  std::vector<Metric> info;

  void fail(const std::string& why);
};

/// Machine-wide CPU time counters from /proc/stat (all zero if unreadable).
struct CpuTicks {
  std::uint64_t steal = 0;  ///< time the hypervisor ran someone else
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();
/// Share of CPU time stolen by the hypervisor between two readings: on a
/// shared VM the main source of run-to-run noise.
double steal_frac(const CpuTicks& before, const CpuTicks& after);

/// Peak resident set since the last reset_peak_rss(), in MB.
double peak_rss_mb();
/// Hands freed heap pages back to the kernel, then resets the kernel's
/// peak-RSS watermark to what is left resident. Returns that resident set
/// (MB), so peak_rss_mb() minus it is the peak growth since the reset.
double reset_peak_rss();

// ---- spans -----------------------------------------------------------------

/// Span names: one per seam the benchmark wraps.
enum class SpanName : std::uint8_t {
  kRequest = 0,     ///< load generator: request written -> response read
  kSvcSink = 1,     ///< verifyd FrameSink: dispatch accepted -> reply (verify completion)
  kKgcSink = 2,     ///< kgcd FrameSink: dispatch accepted -> reply
  kKgcHandler = 3,  ///< kgcd front end Handler call
  kResolve = 4,     ///< svc::PkResolver::resolve as the service calls it
  kScenJob = 5,     ///< one scen::run_cell_seed job
};
const char* span_name(SpanName name);

struct Span {
  std::uint64_t trace = 0;  ///< request id (shared by all spans of one request)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanName name = SpanName::kRequest;
  std::uint8_t attr = 0;  ///< op / class tag, name-specific
};

/// In-memory span store. Recording is on only between start() and stop();
/// requests are sampled by id (`trace % sample == 0`) so a fast workload
/// keeps a bounded span count. Spans are written out once, at exit.
class Tracer {
 public:
  void start(std::uint64_t sample);
  void stop();
  [[nodiscard]] bool sampled(std::uint64_t trace) const {
    return on_.load(std::memory_order_relaxed) &&
           trace % sample_.load(std::memory_order_relaxed) == 0;
  }
  void record(const Span& span);
  /// Counts a FrameSink refusal (kept here: it outlives every stack).
  void count_refusal();

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t refusals() const;
  /// JSON lines, one span per line. False on I/O failure.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t refusals_ = 0;
  std::atomic<std::uint64_t> sample_{1};
  std::atomic<bool> on_{false};
};

}  // namespace mccls::perfbench
