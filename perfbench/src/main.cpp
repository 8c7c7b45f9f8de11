// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --selftest
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, and the spans go to --trace-out. Exits 1 when any answer
// was wrong or missing, 2 on bad usage. README.md describes the workloads
// and which layer metric should move which end-to-end metric.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"prove_total_s", "s"},
    {"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"peak_rss_mib", "MiB"},
};

// A layer the workload never calls reads 0 (no work done there).
const MetricSpec kPerLayer[] = {
    {"route.global_s", "s"},
    {"conflict_graph.build_s", "s"},
    {"flow.widths_solved", "count"},
    {"flow.useful_solve_ratio", "ratio"},
    {"symmetry.sequence_s", "s"},
    {"encode.s", "s"},
    {"encode.vars", "count"},
    {"encode.clauses", "count"},
    {"sat.solve_unsat_s", "s"},
    {"sat.solve_sat_s", "s"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.decisions", "count"},
    {"sat.timeouts", "count"},
    {"track_check.s", "s"},
    {"track_check.failures", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.hit_latency_p50_ms", "ms"},
    {"service.miss_latency_p50_ms", "ms"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.encode_s", "s"},
    {"service.solve_s", "s"},
    {"service.steals", "count/answer"},
    {"service.cache_evictions", "count/answer"},
    {"session.apply_p50_us", "us"},
    {"session.apply_p99_us", "us"},
    {"session.solve_p50_ms", "ms"},
    {"harness.stage_sum_ratio", "ratio"},
    {"harness.tracing_overhead", "ratio"},
    {"harness.generator_lag_p99_ms", "ms"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2-prove|service-shared|service-cold --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --selftest\n",
               message);
  std::exit(2);
}

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool selftest_only = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config.seconds > 0.0;
    } else if (arg == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }

  const int selftest_failures = RunSelfTest();
  if (selftest_only || selftest_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                 selftest_failures);
    return selftest_failures == 0 ? 0 : 1;
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }

  WorkloadResult (*run)(const RunConfig&, TraceWriter*) = nullptr;
  if (config.workload == "table2-prove") run = RunTable2Prove;
  if (config.workload == "service-shared") run = RunServiceShared;
  if (config.workload == "service-cold") run = RunServiceCold;
  if (run == nullptr) {
    Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  std::unique_ptr<TraceWriter> trace;
  if (config.trace) trace = std::make_unique<TraceWriter>();
  WorkloadResult result = run(config, trace.get());
  result.Set("peak_rss_mib", PeakRssMib());

  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "  WRONG: %s\n", failure.c_str());
  }
  if (trace != nullptr && !config.trace_path.empty()) {
    std::string error;
    if (!trace->WriteFile(config.trace_path, &error)) {
      std::fprintf(stderr, "perfbench: cannot write trace '%s': %s\n",
                   config.trace_path.c_str(), error.c_str());
      return 2;
    }
    std::fprintf(stderr, "  trace: %s\n", config.trace_path.c_str());
  }

  std::string metrics;
  for (const MetricSpec& spec :
       config.trace ? std::vector<MetricSpec>(std::begin(kPerLayer),
                                              std::end(kPerLayer))
                    : std::vector<MetricSpec>(std::begin(kEndToEnd),
                                              std::end(kEndToEnd))) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && !config.trace) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   config.workload.c_str(), spec.name);
      return 2;
    }
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    std::fprintf(stderr, "  %-30s %16.6f %s\n", spec.name, value, spec.unit);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + spec.name +
               "\": {\"value\": " + JsonNumber(value) + ", \"unit\": \"" +
               spec.unit + "\"}";
  }
  const bool correct = result.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}
