// End-to-end benchmark of the SQL einsum system through its public entry
// points. One workload per process:
//
//   e2ebench --workload sat_count|inference_batch|served_triples
//            --seed N --seconds S --trace 0|1
//            --sat-limit-ms L --inference-limit-ms L
//            --served-rate R --served-limit-ms L
//            [--held-out-seed N] [--spans-out FILE] [--source-id ID]
//            [--inject-wrong-answer]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; see e2ebench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "e2ebench: %s\n", message);
  return 2;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-answer") {
      options.inject_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--source-id") {
      options.source_id = value;
    } else if (!ParseDouble(value, &number)) {
      return Usage(("malformed number for " + flag).c_str());
    } else if (flag == "--seed") {
      if (number < 0) return Usage("--seed must be non-negative");
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--held-out-seed") {
      if (number < 0) return Usage("--held-out-seed must be non-negative");
      options.held_out_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0.0;
    } else if (flag == "--sat-limit-ms") {
      options.sat_limit_ms = number;
    } else if (flag == "--inference-limit-ms") {
      options.inference_limit_ms = number;
    } else if (flag == "--served-rate") {
      options.served_rate = number;
    } else if (flag == "--served-limit-ms") {
      options.served_limit_ms = number;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  // The rate and the limits are part of the benchmark's definition, fixed
  // in BENCHMARK.json's command; no defaults here to drift from them.
  if (options.seconds <= 0.0 || options.served_rate <= 0.0 ||
      options.sat_limit_ms <= 0.0 || options.inference_limit_ms <= 0.0 ||
      options.served_limit_ms <= 0.0) {
    return Usage("--seconds, --served-rate and the three --*-limit-ms "
                 "flags must be given and positive");
  }
  const std::string forbidden = e2ebench::ForbiddenEnvOverride();
  if (!forbidden.empty()) {
    std::fprintf(stderr,
                 "e2ebench: %s is set; the benchmark measures library "
                 "defaults, unset it\n",
                 forbidden.c_str());
    return 2;
  }
  std::printf("%s\n", e2ebench::RunInfoJson(options).c_str());
  if (options.workload == "sat_count") return e2ebench::RunSatCount(options);
  if (options.workload == "inference_batch") {
    return e2ebench::RunInferenceBatch(options);
  }
  if (options.workload == "served_triples") {
    return e2ebench::RunServedTriples(options);
  }
  return Usage("unknown --workload (sat_count, inference_batch, "
               "served_triples)");
}
