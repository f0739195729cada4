// served_triples: an open loop of Listing-7-style BGP reads plus a few
// writes against an in-process einsum server over the Olympics triple
// table, sent on seeded Poisson arrivals over at most nproc connections.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backends/minidb_backend.h"
#include "common/fnv.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "harness.h"
#include "minidb/session.h"
#include "replay.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "triplestore/generator.h"
#include "triplestore/query.h"
#include "workloads.h"

namespace e2ebench {

namespace {

using einsql::Digest128;
using einsql::Result;
using einsql::Status;
using einsql::Stopwatch;
namespace minidb = einsql::minidb;
namespace server = einsql::server;
namespace ts = einsql::triplestore;
using Clock = std::chrono::steady_clock;

// Set-up takes about 10 ms, and the machine's speed drifts over seconds.
// So a run times it this many times before serving and as many times
// after, and reports the median of all.
constexpr int kSetupRepetitions = 25;
constexpr int kAthletes = 5000;
// Every this-many-th request is a write (an INSERT, later its DELETE):
// 2.5% of requests. Fixed positions rather than random draws keep the
// number of cache invalidations, and with it the share of cold reads,
// equal across runs.
constexpr int64_t kWriteEvery = 40;
// Zipf exponent of read popularity over the query family. Each write
// makes the next read of every template cold, so this exponent and
// kWriteEvery set the share of cold reads. A simulation of the pick
// sequence gives 17% (24 templates, a write every 40 requests). The
// measured share is a little higher: reads of the top template that
// arrive while its first cold read is still running miss too. p50 then
// falls among warm reads, and p90 in the lower half of the cold reads,
// where their latencies lie close together. At exponent 1.75 (26%), p90
// fell in the long upper tail of the cold reads and spread 0.26 over ten
// seeds. At 1.0 (47%), p50 sat on the edge between warm and cold reads.
constexpr double kZipfExponent = 2.25;
// Requests still unsent this long after the schedule ends are abandoned
// and count as failed.
constexpr double kDrainSeconds = 20.0;

// The fixed query family, in popularity-rank order. Constants vary the
// medal, games and event of Listing 7's gold-medal query; every template
// selects athlete names.
std::vector<ts::PatternQuery> QueryFamily() {
  std::vector<ts::PatternQuery> family;
  family.push_back(ts::GoldMedalQuery());
  const char* medals[] = {"medal:Gold", "medal:Silver", "medal:Bronze"};
  for (int games = 0; games < 3; ++games) {
    for (const char* medal : medals) {
      family.push_back(ts::PatternQuery{
          {{"?instance", "walls:games", "games:" + std::to_string(games)},
           {"?instance", "walls:medal", medal},
           {"?instance", "walls:athlete", "?athlete"},
           {"?athlete", "rdfs:label", "?name"}},
          "?name"});
    }
  }
  for (int event = 0; event < 8; ++event) {
    family.push_back(ts::PatternQuery{
        {{"?instance", "walls:event", "event:" + std::to_string(event)},
         {"?instance", "walls:athlete", "?athlete"},
         {"?athlete", "rdfs:label", "?name"}},
        "?name"});
  }
  for (int event = 8; event < 10; ++event) {
    for (const char* medal : medals) {
      family.push_back(ts::PatternQuery{
          {{"?instance", "walls:event", "event:" + std::to_string(event)},
           {"?instance", "walls:medal", medal},
           {"?instance", "walls:athlete", "?athlete"},
           {"?athlete", "rdfs:label", "?name"}},
          "?name"});
    }
  }
  // A fixed shuffle (independent of the workload seed) mixes the
  // templates across popularity ranks.
  einsql::Rng rng(0xfa11);
  for (size_t k = family.size(); k > 1; --k) {
    std::swap(family[k - 1],
              family[static_cast<size_t>(rng.UniformInt(0, k - 1))]);
  }
  return family;
}

// Canonical text of an answer: (term, count) rows by descending count,
// ties by term — AnswerNaive's order.
std::string Canonical(std::vector<ts::CountedTerm> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const ts::CountedTerm& a, const ts::CountedTerm& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.term < b.term;
            });
  std::string out;
  char buffer[40];
  for (const auto& row : rows) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", row.count);
    out += row.term + "\t" + buffer + "\n";
  }
  return out;
}

Result<std::string> CanonicalFromRelation(const ts::TripleStore& store,
                                          const minidb::Relation& relation) {
  std::vector<ts::CountedTerm> rows;
  for (const minidb::Row& row : relation.rows) {
    if (row.size() != 2) return Status::Internal("expected (id, count) rows");
    EINSQL_ASSIGN_OR_RETURN(int64_t id, minidb::AsInt(row[0]));
    EINSQL_ASSIGN_OR_RETURN(std::string term, store.dictionary().TermOf(id));
    EINSQL_ASSIGN_OR_RETURN(double count, minidb::AsDouble(row[1]));
    rows.push_back({std::move(term), count});
  }
  return Canonical(std::move(rows));
}

std::string RelationDigest(const minidb::Relation& relation) {
  Digest128 digest;
  digest.Update(static_cast<int64_t>(relation.rows.size()));
  for (const minidb::Row& row : relation.rows) {
    for (const minidb::Value& value : row) {
      digest.Update(static_cast<int64_t>(value.index()));
      if (const int64_t* i = std::get_if<int64_t>(&value)) {
        digest.Update(*i);
      } else if (const double* d = std::get_if<double>(&value)) {
        digest.Update(*d);
      } else if (const std::string* s = std::get_if<std::string>(&value)) {
        digest.Update(*s);
      }
    }
  }
  return digest.ToHex();
}

// The server a client talks to, with its data loaded and its queries
// compiled. Members are destroyed clients first, then the server, then
// the catalog it serves.
struct ServedSystem {
  explicit ServedSystem(minidb::Catalog loaded) : catalog(std::move(loaded)) {}
  minidb::SharedCatalog catalog;
  std::unique_ptr<server::Server> server;
  std::vector<std::string> read_sql;
  std::vector<server::Client> clients;
};

struct Request {
  double due_seconds = 0.0;  // scheduled send time from the run's start
  int query = -1;            // family index for reads, -1 for writes
  std::string write_sql;
};

struct Record {
  int query = -1;  // family index for reads, -1 for writes
  double due = 0.0, sent = 0.0, done = 0.0;  // seconds from the run start
  double free = 0.0;  // when the connection became free for this request
  bool sent_at_all = false;
  bool ok = false;
  std::string error;
  std::string digest;  // reads: digest of the returned relation
  double engine_ms = 0.0, parse_ms = 0.0, plan_ms = 0.0, exec_ms = 0.0;
};

class ServedTriples {
 public:
  explicit ServedTriples(const Options& options)
      : options_(options), family_(QueryFamily()) {
    ts::OlympicsOptions olympics;
    olympics.num_athletes = kAthletes;
    store_ = ts::GenerateOlympics(olympics);
    // A predicate id no triple uses and no template reads: writes change
    // T (copy on write, catalog version bump) but no expected answer.
    unused_predicate_ = store_.num_terms() + 17;
  }

  // Expected answers, from the interpreted matcher (outside any timing).
  Status ComputeExpected() {
    for (const ts::PatternQuery& query : family_) {
      EINSQL_ASSIGN_OR_RETURN(std::vector<ts::CountedTerm> rows,
                              ts::AnswerNaive(store_, query));
      expected_.push_back(Canonical(std::move(rows)));
    }
    return Status::OK();
  }

  // Set-up a deployment pays: load T into a catalog, compile the query
  // family to SQL, start the server and open the client connections.
  Result<std::unique_ptr<ServedSystem>> Setup(int connections) const {
    einsql::MiniDbBackend loader;
    EINSQL_RETURN_IF_ERROR(store_.LoadInto(&loader, "T"));
    auto system = std::make_unique<ServedSystem>(
        std::move(loader.database().catalog()));
    for (const ts::PatternQuery& query : family_) {
      EINSQL_ASSIGN_OR_RETURN(std::string sql,
                              ts::CompileQueryToSql(store_, query));
      system->read_sql.push_back(std::move(sql));
    }
    system->server = std::make_unique<server::Server>(&system->catalog,
                                                      server::ServerOptions{});
    EINSQL_RETURN_IF_ERROR(system->server->Start());
    for (int c = 0; c < connections; ++c) {
      EINSQL_ASSIGN_OR_RETURN(
          server::Client client,
          server::Client::Connect("127.0.0.1", system->server->port()));
      EINSQL_RETURN_IF_ERROR(client.Ping());
      system->clients.push_back(std::move(client));
    }
    return system;
  }

  // Seeded Poisson arrivals at the offered rate over `seconds`; reads pick
  // from the family Zipf-skewed, every kWriteEvery-th request is a write,
  // and writes alternate INSERT / DELETE of one throw-away triple each.
  std::vector<Request> Schedule(double seconds) const {
    einsql::Rng rng(MixSeed(options_.seed, 0x5c4ed));
    std::vector<double> cumulative;
    double total = 0.0;
    for (size_t rank = 0; rank < family_.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      cumulative.push_back(total);
    }
    std::vector<Request> schedule;
    int64_t writes = 0;
    double t = 0.0;
    double phase = rng.UniformDouble();
    while (true) {
      t += -std::log(1.0 - rng.UniformDouble()) / options_.served_rate;
      if (t >= seconds) break;
      Request request;
      request.due_seconds = t;
      const int64_t index = static_cast<int64_t>(schedule.size());
      if (index % kWriteEvery == kWriteEvery / 2) {
        const int64_t triple = 1000000 + writes / 2;
        const std::string values = std::to_string(triple) + ", " +
                                   std::to_string(unused_predicate_) + ", " +
                                   std::to_string(triple);
        request.write_sql =
            writes % 2 == 0
                ? "INSERT INTO T VALUES (" + values + ", 1.0)"
                : "DELETE FROM T WHERE i1 = " +
                      std::to_string(unused_predicate_) +
                      " AND i0 = " + std::to_string(triple);
        ++writes;
      } else {
        // Read popularity is Zipf over the family ranks. The uniform
        // behind each draw is a seeded golden-ratio sequence rather than
        // independent draws, so every stretch between two writes touches
        // nearly the same number of distinct queries: the share of cold
        // reads, which sets the p90, then holds steady from run to run.
        phase = std::fmod(phase + 0.6180339887498949, 1.0);
        request.query = static_cast<int>(
            std::upper_bound(cumulative.begin(), cumulative.end(),
                             phase * total) -
            cumulative.begin());
        request.query = std::min<int>(request.query,
                                      static_cast<int>(family_.size()) - 1);
      }
      schedule.push_back(std::move(request));
    }
    return schedule;
  }

  static std::string DigestSchedule(const std::vector<Request>& schedule) {
    Digest128 digest;
    for (const Request& request : schedule) {
      digest.Update(static_cast<int64_t>(std::llround(request.due_seconds * 1e9)));
      digest.Update(static_cast<int64_t>(request.query));
      digest.Update(request.write_sql);
    }
    return digest.ToHex();
  }

  // Sends the schedule open-loop: each connection's thread takes the next
  // request in order, sleeps until it is due, sends it and waits for the
  // reply. Latency counts from the due time, so waiting for a free
  // connection is charged to the request. With a trace, each round trip
  // is recorded as a span with its request index.
  std::vector<Record> Drive(ServedSystem* system,
                            const std::vector<Request>& schedule,
                            einsql::Trace* trace = nullptr) const {
    std::vector<Record> records(schedule.size());
    std::atomic<size_t> next{0};
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    const double schedule_end =
        schedule.empty() ? 0.0 : schedule.back().due_seconds;
    auto since_start = [start] {
      return std::chrono::duration<double>(Clock::now() - start).count();
    };
    std::vector<std::thread> threads;
    for (server::Client& client : system->clients) {
      threads.emplace_back([&, client_ptr = &client] {
        double free_at = 0.0;
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= schedule.size()) break;
          const Request& request = schedule[i];
          Record& record = records[i];
          record.query = request.query;
          record.due = request.due_seconds;
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(request.due_seconds)));
          if (since_start() > schedule_end + kDrainSeconds) {
            record.error = "abandoned: backlog did not drain";
            continue;
          }
          record.free = std::max(free_at, request.due_seconds);
          record.sent = since_start();
          record.sent_at_all = true;
          const std::string& sql = request.query >= 0
                                       ? system->read_sql[request.query]
                                       : request.write_sql;
          einsql::ScopedSpan span(
              trace, request.query >= 0 ? "read" : "write",
              einsql::Trace::kNoParent);
          Result<minidb::QueryResult> result = client_ptr->Query(sql);
          record.done = since_start();
          span.End();
          if (trace != nullptr) {
            trace->SetAttribute(span.id(), "request", static_cast<int64_t>(i));
          }
          free_at = record.done;
          if (!result.ok()) {
            record.error = result.status().ToString();
            continue;
          }
          record.ok = true;
          if (request.query >= 0) {
            record.digest = RelationDigest(result->relation);
            record.parse_ms = result->stats.parse_seconds * 1e3;
            record.plan_ms = result->stats.plan_seconds * 1e3;
            record.exec_ms = result->stats.exec_seconds * 1e3;
            record.engine_ms = record.parse_ms + record.plan_ms + record.exec_ms;
            std::lock_guard<std::mutex> lock(answers_mutex_);
            answers_.try_emplace(std::make_pair(request.query, record.digest),
                                 std::move(result->relation));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return records;
  }

  // Checks every distinct (query, answer) pair against the expected
  // answer. Empty when all match.
  std::string VerifyAnswers() const {
    std::lock_guard<std::mutex> lock(answers_mutex_);
    for (const auto& [key, relation] : answers_) {
      Result<std::string> got = CanonicalFromRelation(store_, relation);
      if (!got.ok()) return "undecodable answer: " + got.status().ToString();
      std::string text = *got;
      if (options_.inject_wrong_answer) text += "corrupted\n";
      if (text != expected_[key.first]) {
        return "query " + std::to_string(key.first) +
               " answered differently from AnswerNaive";
      }
    }
    return "";
  }

  // Encode + parse + decode of every read's result, as the server and a
  // client do it, in ms per read.
  double CodecMsPerRead(const std::vector<Record>& records) const {
    std::lock_guard<std::mutex> lock(answers_mutex_);
    double total_ms = 0.0;
    int64_t reads = 0;
    std::map<std::pair<int, std::string>, double> cost_ms;
    for (const auto& [key, relation] : answers_) {
      minidb::QueryResult result;
      result.relation = relation;
      Stopwatch watch;
      const std::string line = server::EncodeQueryResponse(result);
      Result<einsql::JsonValue> parsed = einsql::JsonValue::Parse(line);
      if (parsed.ok()) (void)server::DecodeRelation(*parsed);
      cost_ms[key] = watch.ElapsedMillis();
    }
    for (const Record& record : records) {
      if (!record.ok || record.query < 0) continue;
      auto it = cost_ms.find({record.query, record.digest});
      if (it == cost_ms.end()) continue;
      total_ms += it->second;
      ++reads;
    }
    return reads > 0 ? total_ms / static_cast<double>(reads) : 0.0;
  }

  void ClearAnswers() {
    std::lock_guard<std::mutex> lock(answers_mutex_);
    answers_.clear();
  }

 private:
  const Options& options_;
  std::vector<ts::PatternQuery> family_;
  ts::TripleStore store_;
  int64_t unused_predicate_ = 0;
  std::vector<std::string> expected_;
  mutable std::mutex answers_mutex_;
  // One relation per distinct (query, answer digest).
  mutable std::map<std::pair<int, std::string>, minidb::Relation> answers_;
};

// Summary of one driven schedule.
struct Summary {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t good = 0;  // answered within the latency limit
  int64_t answered = 0;
  int64_t backlog = 0;
  // Answered reads, from the due time. Writes are a different operation
  // with their own figure (server.write_ms). Counted here, those 2.5% of
  // requests, at 12-17 ms, would sit just above the p90 and move it with
  // every change of the machine's speed.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;           // generator lateness
  std::vector<double> read_round_trip_ms;
  std::vector<double> write_round_trip_ms;
  double engine_ms = 0.0, parse_ms = 0.0, plan_ms = 0.0, exec_ms = 0.0;
  std::string first_error;
};

Summary Summarize(const std::vector<Request>& schedule,
                  const std::vector<Record>& records, double limit_ms) {
  Summary s;
  const double schedule_end =
      schedule.empty() ? 0.0 : schedule.back().due_seconds;
  int64_t reads = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const bool write = schedule[i].query < 0;
    ++s.attempted;
    if (r.sent_at_all) {
      s.late_ms.push_back((r.sent - r.free) * 1e3);
      if (r.sent > schedule_end) ++s.backlog;
    }
    if (!r.ok) {
      ++s.failed;
      if (s.first_error.empty()) s.first_error = r.error;
      continue;
    }
    ++s.answered;
    const double latency_ms = (r.done - r.due) * 1e3;
    const double round_trip_ms = (r.done - r.sent) * 1e3;
    if (latency_ms <= limit_ms) ++s.good;
    if (write) {
      s.write_round_trip_ms.push_back(round_trip_ms);
    } else {
      ++reads;
      s.latency_ms.push_back(latency_ms);
      s.read_round_trip_ms.push_back(round_trip_ms);
      s.engine_ms += r.engine_ms;
      s.parse_ms += r.parse_ms;
      s.plan_ms += r.plan_ms;
      s.exec_ms += r.exec_ms;
    }
  }
  if (reads > 0) {
    s.engine_ms /= static_cast<double>(reads);
    s.parse_ms /= static_cast<double>(reads);
    s.plan_ms /= static_cast<double>(reads);
    s.exec_ms /= static_cast<double>(reads);
  }
  return s;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

// Server-side counters read through the protocol's metrics op.
struct ServerCounters {
  int64_t rejected = 0;
  double queue_depth = 0.0;
};

Result<ServerCounters> FetchServerCounters(server::Client* client) {
  EINSQL_ASSIGN_OR_RETURN(std::string text, client->FetchMetrics());
  EINSQL_ASSIGN_OR_RETURN(einsql::JsonValue doc,
                          einsql::JsonValue::Parse(text));
  const einsql::JsonValue& metrics = doc.Has("metrics") ? doc["metrics"] : doc;
  ServerCounters counters;
  counters.rejected = metrics["counters"]["server.rejected"].AsInt();
  counters.queue_depth = metrics["gauges"]["server.queue_depth"].AsDouble();
  return counters;
}

}  // namespace

int RunServedTriples(const Options& options) {
  ServedTriples workload(options);
  Status expected = workload.ComputeExpected();
  if (!expected.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n", expected.ToString().c_str());
    return 1;
  }
  const int connections = static_cast<int>(std::max<unsigned>(
      1, std::min<unsigned>(4, std::thread::hardware_concurrency())));
  std::vector<double> setup_seconds;
  std::unique_ptr<ServedSystem> system;
  // Replaces `system` with a freshly set-up one `times` times, timing each.
  auto set_up = [&](int times) {
    for (int rep = 0; rep < times; ++rep) {
      system.reset();  // stop the previous server before timing the next
      Stopwatch watch;
      Result<std::unique_ptr<ServedSystem>> made = workload.Setup(connections);
      if (!made.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     made.status().ToString().c_str());
        return false;
      }
      setup_seconds.push_back(watch.ElapsedSeconds());
      system = std::move(*made);
    }
    return true;
  };
  if (!set_up(kSetupRepetitions)) return 1;

  const double run_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<Request> schedule = workload.Schedule(run_seconds);
  std::printf("{\"inputs\": {\"count\": %zu, \"digest\": \"%s\"}}\n",
              schedule.size(), ServedTriples::DigestSchedule(schedule).c_str());
  if (schedule.empty()) {
    std::fprintf(stderr, "empty request schedule\n");
    return 1;
  }

  ResetPeakRss();  // the high-water mark of serving, not of set-up
  std::vector<Record> records = workload.Drive(system.get(), schedule);
  const double peak_rss_mb = PeakRssMb();
  Summary untraced = Summarize(schedule, records, options.served_limit_ms);
  std::string problem = workload.VerifyAnswers();
  if (!options.trace && !set_up(kSetupRepetitions)) return 1;

  Summary reported = untraced;
  std::map<std::string, double> layers;
  if (options.trace) {
    // The same schedule again on a freshly set-up server, now with the
    // per-request engine stats kept and an observer polling the metrics op.
    workload.ClearAnswers();
    if (!set_up(1)) return 1;
    Result<server::Client> observer =
        server::Client::Connect("127.0.0.1", system->server->port());
    if (!observer.ok()) {
      std::fprintf(stderr, "observer connect failed: %s\n",
                   observer.status().ToString().c_str());
      return 1;
    }
    Result<ServerCounters> counters_before = FetchServerCounters(&*observer);
    const minidb::QueryCacheStats cache_before = system->catalog.cache().stats();
    std::atomic<bool> stop{false};
    double queue_depth_max = 0.0;
    std::thread poller([&] {
      while (!stop.load()) {
        Result<ServerCounters> now = FetchServerCounters(&*observer);
        if (now.ok()) queue_depth_max = std::max(queue_depth_max, now->queue_depth);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    einsql::Trace trace;
    records = workload.Drive(system.get(), schedule, &trace);
    stop.store(true);
    poller.join();
    Result<ServerCounters> counters_after = FetchServerCounters(&*observer);
    const minidb::QueryCacheStats cache_after = system->catalog.cache().stats();
    reported = Summarize(schedule, records, options.served_limit_ms);
    const std::string traced_problem = workload.VerifyAnswers();
    if (problem.empty()) problem = traced_problem;
    if (!options.spans_out.empty()) {
      einsql::Status written = trace.WriteJsonFile(options.spans_out);
      if (!written.ok()) {
        std::fprintf(stderr, "cannot write spans: %s\n",
                     written.ToString().c_str());
        return 1;
      }
    }
    const double round_trip_ms = Mean(reported.read_round_trip_ms);
    const double codec_ms = workload.CodecMsPerRead(records);
    layers["minidb.parse_ms"] = reported.parse_ms;
    layers["minidb.plan_ms"] = reported.plan_ms;
    layers["minidb.exec_ms"] = reported.exec_ms;
    layers["server.round_trip_ms"] = round_trip_ms;
    layers["server.engine_ms"] = reported.engine_ms;
    layers["server.overhead_ms"] = round_trip_ms - reported.engine_ms;
    layers["server.codec_ms"] = codec_ms;
    layers["server.write_ms"] = Mean(reported.write_round_trip_ms);
    if (counters_before.ok() && counters_after.ok()) {
      layers["server.rejected"] = static_cast<double>(
          counters_after->rejected - counters_before->rejected);
    }
    layers["server.queue_depth_max"] = queue_depth_max;
    const int64_t plan_lookups = (cache_after.plan_hits + cache_after.plan_misses) -
                                 (cache_before.plan_hits + cache_before.plan_misses);
    layers["cache.plan_lookups"] = static_cast<double>(plan_lookups);
    layers["cache.plan_hit_ratio"] =
        plan_lookups > 0
            ? static_cast<double>(cache_after.plan_hits - cache_before.plan_hits) /
                  static_cast<double>(plan_lookups)
            : 0.0;
    const int64_t relation_hits = cache_after.relation_hits - cache_before.relation_hits;
    const int64_t relation_lookups =
        relation_hits + cache_after.relation_misses - cache_before.relation_misses;
    layers["cache.relation_lookups"] = static_cast<double>(relation_lookups);
    layers["cache.relation_hit_ratio"] =
        relation_lookups > 0 ? static_cast<double>(relation_hits) /
                                   static_cast<double>(relation_lookups)
                             : 0.0;
    layers["cache.relation_evictions"] = static_cast<double>(
        cache_after.relation_evictions - cache_before.relation_evictions);
    layers["unattributed.share"] =
        round_trip_ms > 0.0
            ? (round_trip_ms - reported.engine_ms - codec_ms) / round_trip_ms
            : 0.0;
    const double untraced_mean = Mean(untraced.latency_ms);
    layers["trace.overhead_share"] =
        untraced_mean > 0.0 ? Mean(reported.latency_ms) / untraced_mean - 1.0
                            : 0.0;
    layers["trace.queries"] = static_cast<double>(reported.attempted);
  }

  const double late_p99 = Quantile(reported.late_ms, 0.99);
  std::printf("{\"generator\": {\"late_ms_p99\": %.6f, \"backlog\": %lld}}\n",
              late_p99, static_cast<long long>(reported.backlog));
  // The generator shares the machine with the server; when it cannot send
  // on schedule within the latency limit at p99, the offered load was not
  // the one configured and the run is invalid.
  if (late_p99 > options.served_limit_ms) {
    std::fprintf(stderr,
                 "invalid run: the load generator ran %.3f ms late at p99 "
                 "(limit %.1f ms); no result reported\n",
                 late_p99, options.served_limit_ms);
    return 3;
  }
  if (!problem.empty()) std::fprintf(stderr, "%s\n", problem.c_str());
  if (!reported.first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", reported.first_error.c_str());
  }
  const bool correct = problem.empty() && reported.attempted > 0;
  const double error_frac =
      static_cast<double>(reported.failed) /
      static_cast<double>(std::max<int64_t>(1, reported.attempted));
  const double span = schedule.back().due_seconds;
  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"throughput_qps", static_cast<double>(reported.answered) / span, "1/s"},
        {"goodput_qps", static_cast<double>(reported.good) / span, "1/s"},
        {"latency_ms.p50", Quantile(reported.latency_ms, 0.5), "ms"},
        {"latency_ms.p90", Quantile(reported.latency_ms, 0.9), "ms"},
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    layers["generator.late_ms.p99"] = late_p99;
    layers["generator.backlog"] = static_cast<double>(reported.backlog);
    layers["error_frac"] = error_frac;
    metrics = CompleteLayerMetrics(layers);
  }
  PrintResult(correct, reported.attempted, reported.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace e2ebench
