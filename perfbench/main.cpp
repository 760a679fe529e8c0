// qmg_perfbench: one workload of the end-to-end benchmark per process.
//
//   qmg_perfbench --workload <propagator|sequential|stream|service>
//                 --seed <n> --seconds <s> --trace <0|1> [--threads <t>]
//                 [--smoke 1] [--trace-out <file>] [--tune-out <file>]
//                 [--commit <id>]
//
// Prints an environment line, then as its last line one JSON object with
// the correctness gate's counts and every metric the run measured.  Exits
// 1 when the gate missed, 2 on bad arguments, 3 when the workload threw.
// perfbench/run.py builds this binary and narrows the metrics to the set
// BENCHMARK.json declares for the run's mode.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"
#include "linalg/simd.h"
#include "util/logger.h"
#include "workloads.h"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_MAX_SIMD_WIDTH
#define PERFBENCH_MAX_SIMD_WIDTH 0
#endif

const char* isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__)
  return "sse2";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "scalar";
#endif
}

void print_env(const perfbench::Args& a, const std::string& commit) {
  std::printf(
      "env: {\"commit\": \"%s\", \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"cxx_flags\": \"%s\", \"isa\": \"%s\", "
      "\"QMG_MAX_SIMD_WIDTH\": %d, \"simd_pack_width\": %d, \"threads\": %d, "
      "\"nproc\": %u, \"seed\": %llu, \"workload\": \"%s\", \"seconds\": "
      "%g, \"trace\": %d, \"smoke\": %d}\n",
      commit.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__, PERFBENCH_CXX_FLAGS,
      isa(), PERFBENCH_MAX_SIMD_WIDTH, qmg::simd::kMaxSimdWidth, a.threads,
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(a.seed), a.workload.c_str(), a.seconds,
      a.trace ? 1 : 0, a.smoke ? 1 : 0);
}

int usage(const char* msg) {
  std::fprintf(stderr, "qmg_perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  std::string commit = "unknown";
  if (argc % 2 == 0) return usage("options come as --name value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--threads") a.threads = std::stoi(v);
      else if (k == "--smoke") a.smoke = std::stoi(v) != 0;
      else if (k == "--trace-out") a.trace_out = v;
      else if (k == "--tune-out") a.tune_out = v;
      else if (k == "--commit") commit = v;
      else return usage(("unknown option " + k).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + k).c_str());
    }
  }
  const auto& all = perfbench::workloads();
  const auto it = all.find(a.workload);
  if (it == all.end()) return usage("unknown --workload");
  if (a.seconds <= 0 || a.threads <= 0) return usage("bad --seconds/--threads");

  qmg::set_log_level(qmg::LogLevel::Silent);
  print_env(a, commit);
  std::fflush(stdout);

  perfbench::Gate gate;
  perfbench::Tracer tracer;
  perfbench::Metrics metrics;
  try {
    it->second(a, gate, tracer, metrics);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "qmg_perfbench: workload %s failed: %s\n",
                 a.workload.c_str(), ex.what());
    return 3;
  }
  if (a.trace && !a.trace_out.empty() &&
      !tracer.write_chrome_json(a.trace_out)) {
    std::fprintf(stderr, "qmg_perfbench: cannot write %s\n",
                 a.trace_out.c_str());
    return 3;
  }
  for (const auto& miss : gate.misses())
    std::fprintf(stderr, "qmg_perfbench: gate miss: %s\n", miss.c_str());
  for (const auto& [name, v] : gate.worst())
    std::fprintf(stderr, "qmg_perfbench: %s %.3g\n", name.c_str(), v);

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              gate.failed() == 0 ? "true" : "false", gate.attempted(),
              gate.failed());
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return gate.failed() == 0 ? 0 : 1;
}
