#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sys/resource.h>

namespace mccls::perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
}

void Reservoir::add(double v) {
  if (seen_ < buf_.size()) {
    buf_[seen_] = v;
  } else {
    state_ += 0x9E3779B97F4A7C15ULL;  // splitmix64
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    const std::uint64_t j = (z ^ (z >> 31)) % (seen_ + 1);
    if (j < buf_.size()) buf_[j] = v;
  }
  ++seen_;
}

double Reservoir::quantile(double q) const {
  const auto kept = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(seen_, buf_.size()));
  return perfbench::quantile(std::vector<double>(buf_.begin(), buf_.begin() + kept), q);
}

void RunResult::fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: answer check failed: %s\n", why.c_str());
  correct = false;
}

CpuTicks cpu_ticks() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  stat >> cpu;
  for (std::uint64_t& f : field) stat >> f;
  if (!stat || cpu != "cpu") return {};
  CpuTicks ticks;
  for (const std::uint64_t f : field) ticks.total += f;
  ticks.steal = field[7];
  return ticks;
}

double steal_frac(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

namespace {
/// A "Key:  N kB" line of /proc/self/status in MB; negative if absent.
double status_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return -1;
}
}  // namespace

double peak_rss_mb() {
  // VmHWM honours the clear_refs reset below; ru_maxrss does not.
  const double hwm = status_mb("VmHWM");
  if (hwm >= 0) return hwm;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double reset_peak_rss() {
  ::malloc_trim(0);
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
  }
  return std::max(status_mb("VmRSS"), 0.0);
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "loadgen.request";
    case SpanName::kSvcSink: return "svc.sink";
    case SpanName::kKgcSink: return "kgc.sink";
    case SpanName::kKgcHandler: return "kgc.handler";
    case SpanName::kResolve: return "svc.resolve";
    case SpanName::kScenJob: return "scen.job";
  }
  return "?";
}

namespace {
const char* span_parent(SpanName name) {
  switch (name) {
    case SpanName::kSvcSink:
    case SpanName::kKgcSink: return "loadgen.request";
    case SpanName::kKgcHandler: return "kgc.sink";
    case SpanName::kResolve: return "svc.sink";
    default: return "";
  }
}
}  // namespace

void Tracer::start(std::uint64_t sample) {
  sample_.store(sample == 0 ? 1 : sample, std::memory_order_relaxed);
  on_.store(true, std::memory_order_release);
}

void Tracer::stop() { on_.store(false, std::memory_order_release); }

void Tracer::record(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

void Tracer::count_refusal() {
  if (!on_.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(mutex_);
  ++refusals_;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::uint64_t Tracer::refusals() const {
  std::lock_guard lock(mutex_);
  return refusals_;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard lock(mutex_);
  for (const Span& s : spans_) {
    // Resolver calls carry no request id (the seam only sees an identity),
    // so their trace is 0 and their parent is implied, not linked.
    std::fprintf(out,
                 "{\"trace\":%llu,\"name\":\"%s\",\"parent\":\"%s\",\"start_ns\":%llu,"
                 "\"dur_ns\":%llu,\"attr\":%u}\n",
                 static_cast<unsigned long long>(s.trace), span_name(s.name),
                 span_parent(s.name), static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns - s.start_ns),
                 static_cast<unsigned>(s.attr));
  }
  return std::fclose(out) == 0;
}

}  // namespace mccls::perfbench
