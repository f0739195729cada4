// Shared plumbing of the end-to-end benchmark: command-line options, the
// result line the benchmark contract asks for, percentiles and
// configuration hygiene.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Open-loop offered rate of served_triples, requests per second.
  double served_rate = 0.0;
  /// Latency limit per workload for goodput_qps, in milliseconds.
  double sat_limit_ms = 0.0;
  double inference_limit_ms = 0.0;
  double served_limit_ms = 0.0;
  /// Test hook: corrupts the first answer before it is checked, so a run
  /// proves its oracle gate fails it.
  bool inject_wrong_answer = false;
  /// Where the traced run writes its spans (Chrome trace_event JSON).
  std::string spans_out;
  /// Identity of the measured sources (git sha, or a digest of src/ when
  /// the checkout is not a git repository), recorded with the result.
  std::string source_id = "unknown";
  /// The seed reserved for confirming claims, recorded with every result.
  uint64_t held_out_seed = 0;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the contract's last line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Sample count a tail quantile q needs so that at least ten samples lie
/// beyond it (100 for p90, 1000 for p99).
int64_t SamplesForTail(double q);

double Median(std::vector<double> values);

/// Resident set high-water mark of this process since the last
/// ResetPeakRss(), in MiB.
double PeakRssMb();

/// Restarts the high-water mark at the current resident set size.
void ResetPeakRss();

/// Empty when no engine-tuning environment override is set; otherwise the
/// name of the first one found. The benchmark measures library defaults.
std::string ForbiddenEnvOverride();

/// Build type, compiler, core count and source identity, as one JSON line
/// printed before the result.
std::string RunInfoJson(const Options& options);

/// splitmix64: derives independent per-instance seeds from the workload
/// seed, so input i is a pure function of (seed, i).
uint64_t MixSeed(uint64_t seed, uint64_t index);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
