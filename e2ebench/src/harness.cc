#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/trace.h"

namespace e2ebench {

namespace {

// %.17g keeps every digit of a measured value; JSON has no inf/nan, so
// those become null, which no reader accepts as a measurement.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  out += einsql::JsonEscape(text);
  out += '"';
  return out;
}

}  // namespace

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) line += ", ";
    line += JsonString(metrics[k].name) + ": {\"value\": " +
            JsonNumber(metrics[k].value) +
            ", \"unit\": " + JsonString(metrics[k].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * fraction;
}

int64_t SamplesForTail(double q) {
  return static_cast<int64_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() {
  // Linux resets VmHWM to the current RSS on "5"; elsewhere this is a
  // no-op and the high-water mark covers the whole process.
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string ForbiddenEnvOverride() {
  for (const char* name : {"MINIDB_PARALLEL", "MINIDB_MORSEL_ROWS",
                           "MINIDB_VECTORIZED", "MINIDB_CACHE",
                           "MINIDB_NO_SIMD"}) {
    if (std::getenv(name) != nullptr) return name;
  }
  return "";
}

std::string RunInfoJson(const Options& options) {
#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif
  std::string line = "{\"run_info\": {\"workload\": " +
                     JsonString(options.workload) +
                     ", \"seed\": " + std::to_string(options.seed) +
                     ", \"seconds\": " + JsonNumber(options.seconds) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"build_type\": " + JsonString(E2EBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + JsonString(E2EBENCH_COMPILER) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"source_id\": " + JsonString(options.source_id) +
                     ", \"held_out_seed\": " +
                     std::to_string(options.held_out_seed) +
                     "}}";
  return line;
}

uint64_t MixSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace e2ebench
