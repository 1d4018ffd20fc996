// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints one `metric`/`info` line per measurement, then, as the last line
// of standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1, with no metrics, when any answer check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "hostref.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload verify_paced|kgc_mixed|scen_sweep\n"
               "                 --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

void print_lines(const char* kind, const std::vector<mccls::perfbench::Metric>& metrics) {
  for (const mccls::perfbench::Metric& m : metrics) {
    std::printf("%s %s = %.6g %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer reports its metrics as 0, so every traced run prints the
/// same set (BENCHMARK.json lists exactly these).
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"overhead.setup_s", "s"},           {"overhead.peak_rss_mb", "MB"},
    {"overhead.ops_per_s", "1/s"},       {"overhead.latency_p50_ms", "ms"},
    {"netd.transport_p50_us", "us"},     {"netd.transport_p99_us", "us"},
    {"netd.frame_codec_ns", "ns"},       {"netd.sink_refusals", "count"},
    {"netd.backpressure_pauses", "count"}, {"svc.sink_p50_ms", "ms"},
    {"svc.sink_p99_ms", "ms"},           {"svc.wire_decode_ns", "ns"},
    {"svc.batched_share", "ratio"},      {"svc.mean_batch_size", "count"},
    {"svc.multi_pair_width", "count"},   {"svc.single_verifies", "count"},
    {"svc.batch_fallbacks", "count"},    {"svc.queue_depth_peak", "count"},
    {"svc.resolve_p50_us", "us"},        {"svc.resolve_p99_us", "us"},
    {"kgc.dir_hit_rate", "ratio"},       {"kgc.resolve_hot_ns", "ns"},
    {"kgc.resolve_cold_us", "us"},       {"kgc.handle_enroll_us", "us"},
    {"kgc.handle_lookup_us", "us"},      {"kgc.queue_wait_p99_us", "us"},
    {"kgc.wal_append_us", "us"},         {"kgc.enroll_p50_ms", "ms"},
    {"kgc.enroll_p99_ms", "ms"},         {"cls.verify_us", "us"},
    {"cls.verify_cold_us", "us"},        {"cls.batch_equation_us", "us"},
    {"cls.challenge_us", "us"},          {"pairing.pair_us", "us"},
    {"pairing.multi_pair_us", "us"},     {"pairing.final_exp_us", "us"},
    {"ec.mul_us", "us"},                 {"ec.mul2_us", "us"},
    {"ec.mul_generator_us", "us"},       {"ec.msm_us", "us"},
    {"ec.in_subgroup_us", "us"},         {"ec.decode_us", "us"},
    {"math.fp_mul_ns", "ns"},            {"math.fp2_mul_ns", "ns"},
    {"math.fp_inv_ns", "ns"},            {"crypto.hash_to_g1_us", "us"},
    {"crypto.sha256_64b_ns", "ns"},      {"scen.job_p50_s", "s"},
    {"scen.job_max_s", "s"},             {"scen.frames_per_s", "1/s"},
    {"scen.frames", "count"},            {"scen.verify_ops", "count"},
    {"host.ref_ns", "ns"},               {"host.steal_frac", "ratio"},
    {"loadgen.lag_p99_ms", "ms"},        {"loadgen.latency_p99_ms", "ms"},
};

std::vector<mccls::perfbench::Metric> complete_per_layer(
    const std::vector<mccls::perfbench::Metric>& measured) {
  std::vector<mccls::perfbench::Metric> out;
  for (const auto& [name, unit] : kPerLayer) {
    mccls::perfbench::Metric m{name, 0, unit};
    for (const mccls::perfbench::Metric& x : measured) {
      if (x.name == name) m.value = x.value;
    }
    out.push_back(m);
  }
  return out;
}

std::string json_metrics(const std::vector<mccls::perfbench::Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  mccls::perfbench::Options options;
  options.out_dir = ".bench_build/perfbench/out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || options.seconds <= 0) return usage();

  std::error_code ec;
  options.work_dir = options.out_dir + "/work-" + std::to_string(::getpid());
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", options.work_dir.c_str());
    return 1;
  }

  const double ref_before = mccls::perfbench::host_ref_ns();
  mccls::perfbench::RunResult result = mccls::perfbench::run_workload(options);
  const double ref_after = mccls::perfbench::host_ref_ns();
  std::filesystem::remove_all(options.work_dir, ec);

  std::printf("workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("info host.ref_before_ns = %.4f ns\ninfo host.ref_after_ns = %.4f ns\n",
              ref_before, ref_after);
  if (!result.correct) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {}}\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    return 1;
  }
  result.per_layer.push_back(
      mccls::perfbench::Metric{"host.ref_ns", (ref_before + ref_after) / 2, "ns"});
  if (options.trace) result.per_layer = complete_per_layer(result.per_layer);
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: nothing was measured\n");
    return 1;
  }
  print_lines("metric", result.end_to_end);
  print_lines("layer", result.per_layer);
  print_lines("info", result.info);
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              json_metrics(options.trace ? result.per_layer : result.end_to_end).c_str());
  return 0;
}
