// sat_count and inference_batch: closed loops with one caller. Each call is
// the public entry point with library defaults; the traced run replays the
// same inputs layer by layer on a freshly set-up engine.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backends/einsum_cache.h"
#include "backends/einsum_engine.h"
#include "backends/minidb_backend.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "graphical/generator.h"
#include "graphical/inference.h"
#include "harness.h"
#include "replay.h"
#include "sat/count.h"
#include "sat/generator.h"
#include "sat/tensorize.h"
#include "workloads.h"

namespace e2ebench {

namespace {

using einsql::CooTensor;
using einsql::DenseTensor;
using einsql::Digest128;
using einsql::Result;
using einsql::Stopwatch;

// Set-up is timed this many times per run and reported as the median.
constexpr int kSetupRepetitions = 11;

// peak_rss_mb is the median, over the first this-many answered calls, of
// the resident high-water mark during each call. Per call, so an oracle's
// allocations between calls do not count; over a fixed count, so it does
// not grow with how many calls a faster build fits in a run; a median, so
// one input with an outsized intermediate does not set it.
constexpr size_t kRssSamples = 100;

// Relative tolerance against oracles that sum in another order.
constexpr double kRelTolerance = 1e-9;

bool Close(double a, double b) {
  return a == b ||
         std::fabs(a - b) <= kRelTolerance * std::max(std::fabs(a), std::fabs(b));
}

bool SameBytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBytes(const DenseTensor& a, const DenseTensor& b) {
  return a.shape() == b.shape() && a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

std::string CompareDense(const DenseTensor& got, const DenseTensor& want,
                         const char* oracle) {
  if (got.shape() != want.shape()) {
    return std::string("posterior shape differs from ") + oracle;
  }
  for (size_t k = 0; k < got.data().size(); ++k) {
    if (!Close(got.data()[k], want.data()[k])) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "posterior entry %zu is %.17g, %s says %.17g", k,
                    got.data()[k], oracle, want.data()[k]);
      return buffer;
    }
  }
  return "";
}

// The engine a user builds: MiniDB with its default (greedy) planner
// behind the SQL einsum engine. Not movable: the engine points at the
// backend.
struct SqlEngine {
  einsql::MiniDbBackend backend;
  einsql::SqlEinsumEngine engine{&backend};
};

// ---------------------------------------------------------------- sat_count

// Conda-like dependency formulas (the Figure 4 instance family): 189
// packages x 2 versions, 1.25 dependencies per version, one seed per
// instance, truncated to 80..200 clauses.
constexpr int kSatPackages = 189;
constexpr int kSatMinClauses = 80;
constexpr int kSatMaxClauses = 200;

einsql::sat::CnfFormula SatFormula(uint64_t instance_seed, int clauses) {
  einsql::sat::PackageFormulaOptions options;
  options.num_packages = kSatPackages;
  options.versions_per_package = 2;
  options.dependencies_per_version = 1.25;
  options.seed = instance_seed;
  return einsql::sat::TruncateClauses(
      einsql::sat::PackageDependencyFormula(options), clauses);
}

class SatCount {
 public:
  using Engine = SqlEngine;
  using Input = einsql::sat::CnfFormula;
  using Answer = double;

  explicit SatCount(uint64_t seed)
      : seed_(seed),
        phase_(static_cast<double>(MixSeed(seed, ~0ULL) >> 11) * 0x1p-53),
        warm_up_(SatFormula(0x5eed, kSatMinClauses)) {}

  // Cold start: a fresh engine answering a fixed warm-up formula. The
  // process-global pipeline cache is cleared first so every repetition is
  // cold.
  Result<std::unique_ptr<Engine>> Setup() const {
    einsql::EinsumPipelineCache::Global().Clear();
    auto engine = std::make_unique<Engine>();
    EINSQL_RETURN_IF_ERROR(
        einsql::sat::CountSolutionsEinsum(&engine->engine, warm_up_).status());
    return engine;
  }

  // Input i: its own formula seed; clause counts follow a seeded
  // golden-ratio sequence over [80, 200], so every run, however long,
  // covers the size range evenly and runs on different seeds stay
  // comparable.
  Input Generate(int64_t index) const {
    const double u = std::fmod(
        phase_ + 0.6180339887498949 * static_cast<double>(index), 1.0);
    const int clauses =
        kSatMinClauses +
        static_cast<int>(u * (kSatMaxClauses - kSatMinClauses + 1));
    return SatFormula(MixSeed(seed_, static_cast<uint64_t>(index)), clauses);
  }

  static void DigestInput(const Input& formula, Digest128* digest) {
    digest->Update(static_cast<int64_t>(formula.num_variables));
    digest->Update(static_cast<int64_t>(formula.clauses.size()));
    for (const auto& clause : formula.clauses) {
      digest->Update(static_cast<int64_t>(clause.literals.size()));
      for (auto literal : clause.literals) {
        digest->Update(static_cast<int64_t>(literal));
      }
    }
  }

  static Result<double> Call(Engine* engine, const Input& formula) {
    return einsql::sat::CountSolutionsEinsum(&engine->engine, formula);
  }

  // Oracle: the dense engine along an elimination-order path — another
  // engine and another contraction order than the call under test.
  std::string Check(int64_t /*index*/, const Input& formula,
                    double answer) const {
    einsql::DenseEinsumEngine dense;
    einsql::EinsumOptions options;
    options.path = einsql::PathAlgorithm::kElimination;
    options.reuse_caches = false;  // leave the measured caches untouched
    Result<double> want =
        einsql::sat::CountSolutionsEinsum(&dense, formula, options);
    if (!want.ok()) return "dense oracle failed: " + want.status().ToString();
    if (!Close(answer, *want)) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "model count %.17g, dense oracle says %.17g", answer,
                    *want);
      return buffer;
    }
    return "";
  }

  static Result<double> Replay(Engine* engine, const Input& formula,
                               einsql::Trace* trace, ReplayCounts* counts) {
    einsql::ScopedSpan encode(trace, kEncodeSpan);
    EINSQL_ASSIGN_OR_RETURN(einsql::sat::SatTensorNetwork network,
                            einsql::sat::BuildTensorNetwork(formula));
    encode.End();
    EINSQL_ASSIGN_OR_RETURN(
        CooTensor result,
        ReplayEinsum(&engine->backend, network.spec, network.operands(), trace,
                     counts));
    einsql::ScopedSpan decode(trace, kDecodeSpan);
    EINSQL_ASSIGN_OR_RETURN(double count, result.At({}));
    return einsql::sat::ScaleByFreeVariables(network, count);
  }

  static double Corrupt(double answer) { return answer * 2.0 + 1.0; }
  static bool SameAnswer(double a, double b) { return SameBytes(a, b); }

 private:
  uint64_t seed_;
  double phase_;
  Input warm_up_;
};

// ---------------------------------------------------------- inference_batch

constexpr int kBatchPatients = 64;
// One query in this many is also checked against brute-force enumeration
// of all joint states, on this many of its patients (outside the timed
// region; about 0.1 s per check).
constexpr uint64_t kBruteForceEvery = 8;
constexpr int kBruteForceRows = 4;

struct InferenceEngine : SqlEngine {
  einsql::graphical::PairwiseModel model;
};

// Posterior's last step, which the library keeps internal; the replay
// repeats it operation for operation. The byte-identity check of the
// traced run fails if the library's version changes.
Result<DenseTensor> NormalizeRows(DenseTensor raw) {
  const int64_t rows = raw.shape()[0];
  const int64_t columns = raw.shape()[1];
  for (int64_t b = 0; b < rows; ++b) {
    double total = 0.0;
    for (int64_t x = 0; x < columns; ++x) total += raw[b * columns + x];
    if (total <= 0.0) {
      return einsql::Status::InvalidArgument("evidence of batch row ", b,
                                             " has zero probability");
    }
    for (int64_t x = 0; x < columns; ++x) raw[b * columns + x] /= total;
  }
  return raw;
}

class InferenceBatch {
 public:
  using Engine = InferenceEngine;
  using Input = einsql::graphical::InferenceQuery;
  using Answer = DenseTensor;

  explicit InferenceBatch(uint64_t seed)
      : seed_(seed), model_(einsql::graphical::BreastCancerLikeModel()) {
    einsql::Rng rng(0x5eed);
    warm_up_ = einsql::graphical::RandomQuery(model_, 0, kBatchPatients, &rng);
  }

  // Cold start: load the model into a fresh engine and answer a fixed
  // warm-up batch.
  Result<std::unique_ptr<Engine>> Setup() const {
    einsql::EinsumPipelineCache::Global().Clear();
    auto engine = std::make_unique<Engine>();
    engine->model = einsql::graphical::BreastCancerLikeModel();
    EINSQL_RETURN_IF_ERROR(einsql::graphical::Posterior(
                               &engine->engine, engine->model, warm_up_)
                               .status());
    return engine;
  }

  // Input i: 64 patients with uniformly drawn evidence on every variable
  // but the query variable (class), from the instance's own seed.
  Input Generate(int64_t index) const {
    einsql::Rng rng(MixSeed(seed_, static_cast<uint64_t>(index)));
    return einsql::graphical::RandomQuery(model_, 0, kBatchPatients, &rng);
  }

  static void DigestInput(const Input& query, Digest128* digest) {
    digest->Update(static_cast<int64_t>(query.query_variable));
    for (int v : query.evidence_variables) {
      digest->Update(static_cast<int64_t>(v));
    }
    for (const auto& row : query.evidence_values) {
      for (int value : row) digest->Update(static_cast<int64_t>(value));
    }
  }

  static Result<DenseTensor> Call(Engine* engine, const Input& query) {
    return einsql::graphical::Posterior(&engine->engine, engine->model, query);
  }

  // Oracles: the dense engine on every query; brute-force enumeration of
  // all joint states on a seeded sample of queries.
  std::string Check(int64_t index, const Input& query,
                    const DenseTensor& answer) const {
    einsql::DenseEinsumEngine dense;
    einsql::EinsumOptions options;
    options.reuse_caches = false;  // leave the measured caches untouched
    Result<DenseTensor> want =
        einsql::graphical::Posterior(&dense, model_, query, options);
    if (!want.ok()) return "dense oracle failed: " + want.status().ToString();
    std::string problem = CompareDense(answer, *want, "the dense engine");
    if (!problem.empty()) return problem;
    const uint64_t pick = MixSeed(seed_ ^ 0xb5, static_cast<uint64_t>(index));
    if (pick % kBruteForceEvery != 0) return "";
    // Brute force enumerates every joint state once per patient row, so it
    // checks a seeded sample of the batch's rows (each row of the
    // posterior depends only on that patient's evidence).
    Input sample = query;
    sample.evidence_values.clear();
    std::vector<int> rows;
    for (int k = 0; k < kBruteForceRows; ++k) {
      rows.push_back(static_cast<int>((pick >> (8 * k + 8)) % kBatchPatients));
      sample.evidence_values.push_back(query.evidence_values[rows.back()]);
    }
    Result<DenseTensor> exact =
        einsql::graphical::PosteriorBruteForce(model_, sample);
    if (!exact.ok()) {
      return "brute-force oracle failed: " + exact.status().ToString();
    }
    const int64_t columns = answer.shape()[1];
    for (int k = 0; k < kBruteForceRows; ++k) {
      for (int64_t x = 0; x < columns; ++x) {
        const double got = answer.data()[rows[k] * columns + x];
        const double want = exact->data()[k * columns + x];
        if (!Close(got, want)) {
          char buffer[160];
          std::snprintf(buffer, sizeof(buffer),
                        "posterior of patient %d state %lld is %.17g, brute "
                        "force says %.17g",
                        rows[k], static_cast<long long>(x), got, want);
          return buffer;
        }
      }
    }
    return "";
  }

  static Result<DenseTensor> Replay(Engine* engine, const Input& query,
                                    einsql::Trace* trace,
                                    ReplayCounts* counts) {
    einsql::ScopedSpan encode(trace, kEncodeSpan);
    EINSQL_ASSIGN_OR_RETURN(
        einsql::graphical::InferenceNetwork network,
        einsql::graphical::BuildInferenceNetwork(engine->model, query));
    encode.End();
    EINSQL_ASSIGN_OR_RETURN(
        CooTensor raw,
        ReplayEinsum(&engine->backend, network.spec, network.operands(), trace,
                     counts));
    einsql::ScopedSpan decode(trace, kDecodeSpan);
    EINSQL_ASSIGN_OR_RETURN(DenseTensor dense, DenseTensor::FromCoo(raw));
    return NormalizeRows(std::move(dense));
  }

  static DenseTensor Corrupt(DenseTensor answer) {
    answer.data()[0] += 0.25;
    return answer;
  }
  static bool SameAnswer(const DenseTensor& a, const DenseTensor& b) {
    return SameBytes(a, b);
  }

 private:
  uint64_t seed_;
  einsql::graphical::PairwiseModel model_;
  Input warm_up_;
};

// -------------------------------------------------------------- the loop

template <class W>
struct Loop {
  int64_t attempted = 0;
  int64_t failed = 0;  // errors
  int64_t wrong = 0;   // answers the oracle rejected
  int64_t within_limit = 0;
  double busy_seconds = 0.0;
  std::vector<double> call_peak_rss_mb;
  std::string first_problem;
  // The answered calls: input index, input, answer and untraced call time.
  std::vector<int64_t> indices;
  std::vector<typename W::Input> inputs;
  std::vector<typename W::Answer> answers;
  std::vector<double> seconds;

  std::vector<double> LatencyMs() const {
    std::vector<double> ms;
    for (double s : seconds) ms.push_back(s * 1e3);
    return ms;
  }
};

// Calls the workload until `seconds` of call time and `min_samples`
// answers are reached (or a hard wall-clock cap), then checks every answer
// against the oracles. Input generation and checks stay outside the timed
// calls.
template <class W>
Loop<W> RunLoop(const W& workload, typename W::Engine* engine,
                const Options& options, double seconds, int64_t min_samples,
                double limit_ms) {
  const double max_wall_seconds = std::min(3.0 * seconds, 140.0);
  Loop<W> loop;
  Stopwatch wall;
  for (int64_t i = 0;; ++i) {
    const bool done =
        loop.busy_seconds >= seconds &&
        static_cast<int64_t>(loop.seconds.size()) >= min_samples;
    if (done || wall.ElapsedSeconds() > max_wall_seconds) break;
    typename W::Input input = workload.Generate(i);
    ResetPeakRss();
    Stopwatch call;
    Result<typename W::Answer> answer = W::Call(engine, input);
    const double elapsed = call.ElapsedSeconds();
    if (loop.call_peak_rss_mb.size() < kRssSamples) {
      loop.call_peak_rss_mb.push_back(PeakRssMb());
    }
    loop.busy_seconds += elapsed;
    ++loop.attempted;
    if (!answer.ok()) {
      ++loop.failed;
      if (loop.first_problem.empty()) {
        loop.first_problem = "call failed: " + answer.status().ToString();
      }
      continue;
    }
    loop.indices.push_back(i);
    loop.inputs.push_back(std::move(input));
    loop.answers.push_back(std::move(*answer));
    loop.seconds.push_back(elapsed);
  }
  for (size_t k = 0; k < loop.answers.size(); ++k) {
    if (options.inject_wrong_answer && k == 0) {
      loop.answers[k] = W::Corrupt(loop.answers[k]);
    }
    const std::string problem =
        workload.Check(loop.indices[k], loop.inputs[k], loop.answers[k]);
    if (!problem.empty()) {
      ++loop.wrong;
      if (loop.first_problem.empty()) {
        loop.first_problem =
            "input " + std::to_string(loop.indices[k]) + ": " + problem;
      }
    } else if (loop.seconds[k] * 1e3 <= limit_ms) {
      ++loop.within_limit;
    }
  }
  return loop;
}

// The input digest covers the first this-many inputs of the seed's
// stream. The loop consumes inputs in stream order, but how many it
// reaches depends on the build's speed; a fixed prefix keeps the digest
// equal across builds run on the same seed.
constexpr int64_t kDigestedInputs = 100;

template <class W>
std::string DigestInputs(const W& workload) {
  Digest128 digest;
  for (int64_t i = 0; i < kDigestedInputs; ++i) {
    W::DigestInput(workload.Generate(i), &digest);
  }
  return digest.ToHex();
}

template <class W>
int RunClosedLoop(const W& workload, const Options& options,
                  double limit_ms) {
  std::vector<double> setup_seconds;
  std::unique_ptr<typename W::Engine> engine;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    Stopwatch watch;
    Result<std::unique_ptr<typename W::Engine>> made = workload.Setup();
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_seconds.push_back(watch.ElapsedSeconds());
    engine = std::move(*made);
  }

  const double run_seconds = options.trace ? options.seconds / 2 : options.seconds;
  Loop<W> loop = RunLoop(workload, engine.get(), options, run_seconds,
                         options.trace ? 0 : SamplesForTail(0.9), limit_ms);
  std::printf(
      "{\"inputs\": {\"digest\": \"%s\", \"digested\": %lld, "
      "\"used\": %lld}}\n",
      DigestInputs(workload).c_str(),
      static_cast<long long>(kDigestedInputs),
      static_cast<long long>(loop.attempted));
  if (!loop.first_problem.empty()) {
    std::fprintf(stderr, "%s\n", loop.first_problem.c_str());
  }
  const int64_t failed = loop.failed + loop.wrong;
  const double error_frac =
      loop.attempted > 0 ? static_cast<double>(loop.failed) /
                               static_cast<double>(loop.attempted)
                         : 0.0;
  bool correct = loop.wrong == 0 && loop.attempted > 0;

  if (!options.trace) {
    const std::vector<double> latency_ms = loop.LatencyMs();
    const double answered =
        static_cast<double>(static_cast<int64_t>(latency_ms.size()) - loop.wrong);
    const std::vector<Metric> metrics = {
        {"throughput_qps", answered / loop.busy_seconds, "1/s"},
        {"goodput_qps",
         static_cast<double>(loop.within_limit) / loop.busy_seconds, "1/s"},
        {"latency_ms.p50", Quantile(latency_ms, 0.5), "ms"},
        {"latency_ms.p90", Quantile(latency_ms, 0.9), "ms"},
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", Median(loop.call_peak_rss_mb), "MiB"},
    };
    PrintResult(correct, loop.attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced replay of the same answered inputs on a freshly set-up engine,
  // so caches start from the state the untraced calls started from.
  Result<std::unique_ptr<typename W::Engine>> fresh = workload.Setup();
  if (!fresh.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 fresh.status().ToString().c_str());
    return 1;
  }
  engine.reset();
  einsql::Trace trace;
  ReplayCounts counts;
  const einsql::minidb::QueryCacheStats before =
      (*fresh)->backend.database().cache().stats();
  double e2e_seconds = 0.0;
  for (size_t q = 0; q < loop.inputs.size(); ++q) {
    const int64_t query = static_cast<int64_t>(q);
    einsql::ScopedSpan root(&trace, kQuerySpan, einsql::Trace::kNoParent);
    root.SetAttribute("query", query);
    Result<typename W::Answer> replayed =
        W::Replay(fresh->get(), loop.inputs[q], &trace, &counts);
    root.End();
    ++counts.queries;
    e2e_seconds += loop.seconds[q];
    if (!replayed.ok()) {
      std::fprintf(stderr, "replay of input %zu failed: %s\n", q,
                   replayed.status().ToString().c_str());
      correct = false;
    } else if (!W::SameAnswer(*replayed, loop.answers[q])) {
      std::fprintf(stderr,
                   "replay of input %zu is not byte-identical to the call\n",
                   q);
      correct = false;
    }
  }
  const einsql::minidb::QueryCacheStats after =
      (*fresh)->backend.database().cache().stats();
  Result<std::map<std::string, double>> span_seconds =
      SpanSecondsByName(trace);
  if (!span_seconds.ok()) {
    std::fprintf(stderr, "cannot read the replay's spans: %s\n",
                 span_seconds.status().ToString().c_str());
    return 1;
  }
  const std::vector<Metric> metrics = ClosedLoopLayerMetrics(
      *span_seconds, counts, before, after, e2e_seconds, error_frac);
  if (!options.spans_out.empty()) {
    einsql::Status written = trace.WriteJsonFile(options.spans_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write spans: %s\n",
                   written.ToString().c_str());
      return 1;
    }
  }
  PrintResult(correct, loop.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int RunSatCount(const Options& options) {
  const SatCount workload(options.seed);
  return RunClosedLoop(workload, options, options.sat_limit_ms);
}

int RunInferenceBatch(const Options& options) {
  const InferenceBatch workload(options.seed);
  return RunClosedLoop(workload, options, options.inference_limit_ms);
}

}  // namespace e2ebench
