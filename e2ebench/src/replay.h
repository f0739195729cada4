// The traced replay of one einsum call: the steps SqlEinsumEngine and
// MiniDbBackend take for EinsumSpecified, re-issued one public function at
// a time, each inside its own einsql::Trace span, against the same caches
// and executor settings the default call uses. The replay repeats what
// those two classes do internally; the traced run checks that its answer
// is byte-identical to the default call's, so a library change the replay
// does not follow fails the run instead of skewing the layer split.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backends/einsum_cache.h"
#include "backends/minidb_backend.h"
#include "common/result.h"
#include "common/trace.h"
#include "harness.h"
#include "minidb/query_cache.h"
#include "tensor/coo.h"

namespace e2ebench {

/// Counts gathered where the work happens during the replay.
struct ReplayCounts {
  int64_t queries = 0;
  double est_flops = 0.0;
  double sql_bytes = 0.0;
  int64_t ctes = 0;
  double hash_aggregate_seconds = 0.0;
  double hash_join_seconds = 0.0;
  double scan_seconds = 0.0;
  int64_t rows_aggregated = 0;
  int64_t rows_joined = 0;
  std::vector<double> qerrors;
  double peak_bytes = 0.0;
  int64_t bytes_reused = 0;
  int64_t program_lookups = 0;
  int64_t program_hits = 0;
  int64_t sql_lookups = 0;
  int64_t sql_hits = 0;
  int64_t plan_lookups = 0;
  int64_t plan_hits = 0;
};

/// Span names of the replay. Layer spans nest under the query span open on
/// the calling thread. kLex is measurement-only: ParseStatement lexes
/// again internally, so the lex span is subtracted from both the parse
/// layer and the replay's wall time.
inline constexpr const char* kQuerySpan = "query";
inline constexpr const char* kEncodeSpan = "domain.encode";
inline constexpr const char* kCacheSpan = "cache.lookup";
inline constexpr const char* kPathSpan = "core.path";
inline constexpr const char* kSqlgenSpan = "core.sqlgen";
inline constexpr const char* kLexSpan = "minidb.lex";
inline constexpr const char* kParseSpan = "minidb.parse";
inline constexpr const char* kPlanSpan = "minidb.plan";
inline constexpr const char* kExecSpan = "minidb.exec";
inline constexpr const char* kDecodeSpan = "backends.decode";

/// Replays `engine.EinsumSpecified(spec, operands, EinsumOptions{})` for a
/// SqlEinsumEngine over `backend`, up to and including ParseCooResult.
einsql::Result<einsql::CooTensor> ReplayEinsum(
    einsql::MiniDbBackend* backend, const einsql::EinsumSpec& spec,
    const std::vector<const einsql::CooTensor*>& operands,
    einsql::Trace* trace, ReplayCounts* counts);

/// Total duration of the trace's spans, in seconds, by span name.
einsql::Result<std::map<std::string, double>> SpanSecondsByName(
    const einsql::Trace& trace);

/// The per-layer metrics of a closed-loop replay: layer times as means per
/// query from the span totals, counts and ratios with their bases.
/// `e2e_seconds` is the untraced calls' total wall time over the same
/// queries.
std::vector<Metric> ClosedLoopLayerMetrics(
    const std::map<std::string, double>& span_seconds,
    const ReplayCounts& counts,
    const einsql::minidb::QueryCacheStats& relation_before,
    const einsql::minidb::QueryCacheStats& relation_after,
    double e2e_seconds, double error_frac);

/// Every per-layer metric the benchmark declares, in declaration order:
/// measured values from `measured`, 0 for layers the workload never
/// enters (the server layer on closed-loop workloads, and so on).
std::vector<Metric> CompleteLayerMetrics(
    const std::map<std::string, double>& measured);

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAY_H_
