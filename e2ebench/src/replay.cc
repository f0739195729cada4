#include "replay.h"

#include <memory>
#include <utility>

#include "backends/einsum_engine.h"
#include "core/format.h"
#include "core/program.h"
#include "core/sqlgen.h"
#include "common/json.h"
#include "minidb/executor.h"
#include "minidb/lexer.h"
#include "minidb/parser.h"
#include "minidb/planner.h"
#include "tensor/digest.h"
#include "tensor/semiring.h"

namespace e2ebench {

using einsql::ContractionProgram;
using einsql::CooTensor;
using einsql::EinsumPipelineCache;
using einsql::Result;
using einsql::Shape;
using einsql::Status;
namespace minidb = einsql::minidb;

namespace {

// Self time of every operator, bucketed by kind; inclusive times of the
// profile minus the children's inclusive times.
void AddOperator(const minidb::OperatorProfile& op, ReplayCounts* counts) {
  double child_seconds = 0.0;
  for (const auto& child : op.children) {
    child_seconds += child.wall_seconds;
    AddOperator(child, counts);
  }
  const double self = op.wall_seconds - child_seconds;
  switch (op.kind) {
    case minidb::PlanKind::kAggregate:
      counts->hash_aggregate_seconds += self;
      counts->rows_aggregated += op.input_rows;
      break;
    case minidb::PlanKind::kJoin:
      counts->hash_join_seconds += self;
      counts->rows_joined += op.actual_rows;
      break;
    case minidb::PlanKind::kScan:
    case minidb::PlanKind::kCteScan:
    case minidb::PlanKind::kValues:
      counts->scan_seconds += self;
      break;
    default:
      break;
  }
  counts->qerrors.push_back(op.est_error());
}

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

Result<CooTensor> ReplayEinsum(einsql::MiniDbBackend* backend,
                               const einsql::EinsumSpec& spec,
                               const std::vector<const CooTensor*>& operands,
                               einsql::Trace* trace, ReplayCounts* counts) {
  // Defaults of EinsumOptions{}: kAuto path search, decomposed simplified
  // SQL, plus_times, epsilon 0, caches on.
  const einsql::EinsumOptions defaults;
  einsql::SqlGenOptions sql_options;
  sql_options.decompose = defaults.decompose;
  sql_options.simplify = defaults.simplify;
  EinsumPipelineCache& pipeline = EinsumPipelineCache::Global();

  std::vector<Shape> shapes;
  shapes.reserve(operands.size());
  for (const CooTensor* t : operands) shapes.push_back(t->shape());

  ContractionProgram program;
  {
    einsql::ScopedSpan lookup(trace, kCacheSpan);
    const std::string key = einsql::ProgramCacheKey(
        spec, shapes, defaults.path, defaults.semiring);
    std::shared_ptr<const ContractionProgram> hit =
        pipeline.LookupProgram(key);
    ++counts->program_lookups;
    lookup.End();
    if (hit != nullptr) {
      ++counts->program_hits;
      program = *hit;
    } else {
      einsql::ScopedSpan path(trace, kPathSpan);
      EINSQL_ASSIGN_OR_RETURN(
          program, einsql::BuildProgram(spec, shapes, defaults.path,
                                        defaults.semiring));
      path.End();
      einsql::ScopedSpan insert(trace, kCacheSpan);
      pipeline.InsertProgram(key, program);
    }
  }
  counts->est_flops += program.est_flops;

  std::string sql;
  {
    einsql::ScopedSpan lookup(trace, kCacheSpan);
    std::vector<std::string> digests;
    digests.reserve(operands.size());
    for (const CooTensor* t : operands) {
      digests.push_back(einsql::TensorContentDigest(*t));
    }
    const std::string key = einsql::SqlCacheKey(program, digests, sql_options,
                                                /*complex_values=*/false);
    std::shared_ptr<const std::string> hit = pipeline.LookupSql(key);
    ++counts->sql_lookups;
    lookup.End();
    if (hit != nullptr) {
      ++counts->sql_hits;
      sql = *hit;
    } else {
      einsql::ScopedSpan gen(trace, kSqlgenSpan);
      EINSQL_ASSIGN_OR_RETURN(
          sql, einsql::GenerateEinsumSql(program, operands, sql_options));
      gen.End();
      einsql::ScopedSpan insert(trace, kCacheSpan);
      pipeline.InsertSql(key, sql);
    }
  }
  counts->sql_bytes += static_cast<double>(sql.size());

  // Database::Execute for a SELECT: plan cache first, then lex/parse/plan
  // on a miss, then the executor with the database's own options, memo and
  // catalog version.
  minidb::Database& db = backend->database();
  std::shared_ptr<const minidb::QueryPlan> plan;
  {
    einsql::ScopedSpan lookup(trace, kCacheSpan);
    const std::string key = minidb::PlanCacheKey(sql, db.options(),
                                                  db.catalog().version());
    std::shared_ptr<const minidb::QueryCache::PlanEntry> hit =
        db.cache().LookupPlan(key);
    ++counts->plan_lookups;
    lookup.End();
    if (hit != nullptr) {
      ++counts->plan_hits;
      plan = hit->plan;
    } else {
      {
        einsql::ScopedSpan lex(trace, kLexSpan);
        EINSQL_RETURN_IF_ERROR(minidb::Tokenize(sql).status());
      }
      einsql::ScopedSpan parse(trace, kParseSpan);
      EINSQL_ASSIGN_OR_RETURN(minidb::Statement stmt,
                              minidb::ParseStatement(sql));
      parse.End();
      if (stmt.kind != minidb::StatementKind::kSelect) {
        return Status::Internal("generated SQL is not a SELECT");
      }
      einsql::ScopedSpan planning(trace, kPlanSpan);
      EINSQL_ASSIGN_OR_RETURN(
          minidb::QueryPlan planned,
          minidb::PlanSelect(*stmt.select, db.catalog(), db.options()));
      plan = std::make_shared<const minidb::QueryPlan>(std::move(planned));
      planning.End();
      einsql::ScopedSpan insert(trace, kCacheSpan);
      db.cache().InsertPlan(key, minidb::QueryCache::PlanEntry{
                                     plan, stmt.select->explain,
                                     stmt.select->explain_analyze});
    }
  }

  minidb::QueryProfile profile;
  einsql::ScopedSpan exec(trace, kExecSpan);
  minidb::ExecutorOptions exec_options = db.executor_options();
  exec_options.trace = nullptr;
  exec_options.cache = &db.cache();
  exec_options.catalog_version = db.catalog().version();
  EINSQL_ASSIGN_OR_RETURN(minidb::Relation relation,
                          minidb::ExecutePlan(*plan, exec_options, &profile));
  exec.End();
  counts->ctes += static_cast<int64_t>(profile.ctes.size());
  for (const auto& cte : profile.ctes) AddOperator(cte.root, counts);
  AddOperator(profile.root, counts);
  counts->peak_bytes += static_cast<double>(profile.peak_memory_bytes);
  counts->bytes_reused += profile.cache_bytes_reused;

  einsql::ScopedSpan decode(trace, kDecodeSpan);
  EINSQL_ASSIGN_OR_RETURN(Shape output_shape,
                          einsql::OutputShape(program.spec, program.extents));
  return einsql::ParseCooResult(relation, output_shape, defaults.epsilon,
                                einsql::Semiring(program.semiring));
}

Result<std::map<std::string, double>> SpanSecondsByName(
    const einsql::Trace& trace) {
  EINSQL_ASSIGN_OR_RETURN(einsql::JsonValue doc,
                          einsql::JsonValue::Parse(trace.ToChromeJson()));
  std::map<std::string, double> seconds;
  for (const einsql::JsonValue& event : doc["traceEvents"].items()) {
    if (event["ph"].AsString() != "X") continue;
    seconds[event["name"].AsString()] += event["dur"].AsDouble() * 1e-6;
  }
  return seconds;
}

std::vector<Metric> ClosedLoopLayerMetrics(
    const std::map<std::string, double>& span_seconds,
    const ReplayCounts& counts,
    const minidb::QueryCacheStats& relation_before,
    const minidb::QueryCacheStats& relation_after, double e2e_seconds,
    double error_frac) {
  const double n = counts.queries > 0 ? static_cast<double>(counts.queries)
                                      : 1.0;
  auto total_seconds = [&](const char* span) {
    auto it = span_seconds.find(span);
    return it == span_seconds.end() ? 0.0 : it->second;
  };
  auto mean_ms = [&](const char* span) {
    return total_seconds(span) * 1e3 / n;
  };
  const double lex_ms = mean_ms(kLexSpan);
  const double exec_ms = mean_ms(kExecSpan);
  // The lex span is measurement-only (ParseStatement lexes again), so it
  // is taken out of the replay's wall time.
  const double replay_seconds =
      total_seconds(kQuerySpan) - total_seconds(kLexSpan);
  std::map<std::string, double> m;
  m["domain.encode_ms"] = mean_ms(kEncodeSpan);
  m["core.path_ms"] = mean_ms(kPathSpan);
  m["core.path_est_flops"] = counts.est_flops / n;
  m["core.sqlgen_ms"] = mean_ms(kSqlgenSpan);
  m["core.sql_kb"] = counts.sql_bytes / 1024.0 / n;
  m["minidb.lex_ms"] = lex_ms;
  m["minidb.parse_ms"] = mean_ms(kParseSpan) - lex_ms;
  m["minidb.plan_ms"] = mean_ms(kPlanSpan);
  m["minidb.exec_ms"] = exec_ms;
  m["minidb.exec.ctes"] = static_cast<double>(counts.ctes) / n;
  m["minidb.exec.us_per_cte"] =
      counts.ctes > 0 ? exec_ms * 1e3 * n / static_cast<double>(counts.ctes)
                      : 0.0;
  m["minidb.exec.hash_aggregate_ms"] = counts.hash_aggregate_seconds * 1e3 / n;
  m["minidb.exec.hash_join_ms"] = counts.hash_join_seconds * 1e3 / n;
  m["minidb.exec.scan_ms"] = counts.scan_seconds * 1e3 / n;
  m["minidb.exec.rows_aggregated"] =
      static_cast<double>(counts.rows_aggregated) / n;
  m["minidb.exec.rows_joined"] = static_cast<double>(counts.rows_joined) / n;
  m["minidb.exec.qerror_p90"] = Quantile(counts.qerrors, 0.9);
  m["minidb.exec.peak_bytes"] = counts.peak_bytes / n;
  m["cache.lookup_ms"] = mean_ms(kCacheSpan);
  m["cache.plan_lookups"] = static_cast<double>(counts.plan_lookups);
  m["cache.plan_hit_ratio"] = Ratio(static_cast<double>(counts.plan_hits),
                                    static_cast<double>(counts.plan_lookups));
  const int64_t relation_hits =
      relation_after.relation_hits - relation_before.relation_hits;
  const int64_t relation_lookups =
      relation_hits + relation_after.relation_misses -
      relation_before.relation_misses;
  m["cache.relation_lookups"] = static_cast<double>(relation_lookups);
  m["cache.relation_hit_ratio"] =
      Ratio(static_cast<double>(relation_hits),
            static_cast<double>(relation_lookups));
  m["cache.relation_evictions"] = static_cast<double>(
      relation_after.relation_evictions - relation_before.relation_evictions);
  m["cache.bytes_reused"] = static_cast<double>(counts.bytes_reused) / n;
  m["cache.program_lookups"] = static_cast<double>(counts.program_lookups);
  m["cache.program_hit_ratio"] =
      Ratio(static_cast<double>(counts.program_hits),
            static_cast<double>(counts.program_lookups));
  m["cache.sql_lookups"] = static_cast<double>(counts.sql_lookups);
  m["cache.sql_hit_ratio"] = Ratio(static_cast<double>(counts.sql_hits),
                                   static_cast<double>(counts.sql_lookups));
  m["backends.decode_ms"] = mean_ms(kDecodeSpan);
  double layer_ms = 0.0;
  for (const char* layer : {"domain.encode_ms", "core.path_ms",
                            "core.sqlgen_ms", "minidb.lex_ms",
                            "minidb.parse_ms", "minidb.plan_ms",
                            "minidb.exec_ms", "cache.lookup_ms",
                            "backends.decode_ms"}) {
    layer_ms += m[layer];
  }
  const double replay_ms = replay_seconds * 1e3 / n;
  m["unattributed.share"] = Ratio(replay_ms - layer_ms, replay_ms);
  m["trace.overhead_share"] =
      e2e_seconds > 0.0 ? replay_seconds / e2e_seconds - 1.0 : 0.0;
  m["trace.queries"] = static_cast<double>(counts.queries);
  m["error_frac"] = error_frac;
  return CompleteLayerMetrics(m);
}

std::vector<Metric> CompleteLayerMetrics(
    const std::map<std::string, double>& measured) {
  // Must list exactly the per_layer metrics of BENCHMARK.json.
  static const std::pair<const char*, const char*> kLayers[] = {
      {"domain.encode_ms", "ms"},
      {"core.path_ms", "ms"},
      {"core.path_est_flops", "flops"},
      {"core.sqlgen_ms", "ms"},
      {"core.sql_kb", "KiB"},
      {"minidb.lex_ms", "ms"},
      {"minidb.parse_ms", "ms"},
      {"minidb.plan_ms", "ms"},
      {"minidb.exec_ms", "ms"},
      {"minidb.exec.ctes", "count"},
      {"minidb.exec.us_per_cte", "us"},
      {"minidb.exec.hash_aggregate_ms", "ms"},
      {"minidb.exec.hash_join_ms", "ms"},
      {"minidb.exec.scan_ms", "ms"},
      {"minidb.exec.rows_aggregated", "count"},
      {"minidb.exec.rows_joined", "count"},
      {"minidb.exec.qerror_p90", "ratio"},
      {"minidb.exec.peak_bytes", "bytes"},
      {"cache.lookup_ms", "ms"},
      {"cache.plan_hit_ratio", "share"},
      {"cache.plan_lookups", "count"},
      {"cache.relation_hit_ratio", "share"},
      {"cache.relation_lookups", "count"},
      {"cache.relation_evictions", "count"},
      {"cache.bytes_reused", "bytes"},
      {"cache.program_hit_ratio", "share"},
      {"cache.program_lookups", "count"},
      {"cache.sql_hit_ratio", "share"},
      {"cache.sql_lookups", "count"},
      {"backends.decode_ms", "ms"},
      {"server.round_trip_ms", "ms"},
      {"server.engine_ms", "ms"},
      {"server.overhead_ms", "ms"},
      {"server.codec_ms", "ms"},
      {"server.write_ms", "ms"},
      {"server.rejected", "count"},
      {"server.queue_depth_max", "count"},
      {"unattributed.share", "share"},
      {"trace.overhead_share", "share"},
      {"trace.queries", "count"},
      {"generator.late_ms.p99", "ms"},
      {"generator.backlog", "count"},
      {"error_frac", "share"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayers) {
    auto it = measured.find(name);
    out.push_back(Metric{name, it == measured.end() ? 0.0 : it->second, unit});
  }
  return out;
}

}  // namespace e2ebench
