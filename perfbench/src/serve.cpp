// serve_explore and serve_ingest: the yProv service wired the way
// `yprov serve` wires it (HttpServer with its shipped ServerConfig, the
// YProvHttpApp with its shipped options, a 4-shard YProvService with a
// WAL data dir under fsync every_write, an access log), driven in
// process by an open-loop generator over keep-alive HttpClients.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "inputs.hpp"
#include "loadgen.hpp"
#include "provml/compress/codec.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "provml/net/client.hpp"
#include "provml/net/server.hpp"
#include "provml/net/yprov_http.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/wal/wal.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace net = provml::net;
namespace gs = provml::graphstore;
namespace json = provml::json;
namespace prov = provml::prov;
namespace wal = provml::wal;
using provml::testkit::Rng;

namespace {

// Shared by both serving workloads.
constexpr std::size_t kCorpusDocs = 2000;  ///< settled documents
constexpr std::size_t kLargeDocs = 8;      ///< of which 256-320-element lineages
constexpr std::size_t kReadKeys = 2560;    ///< distinct reads: 10x the 256-entry response cache
constexpr double kZipfS = 1.1;
constexpr std::size_t kSenders = 2;        ///< sender threads, one keep-alive connection each
constexpr std::size_t kShards = 4;
constexpr double kWarmupSeconds = 1.0;
constexpr std::uint64_t kCompactEvery = 2048;  ///< WAL auto-compaction budget (records)
constexpr int kRecoveries = 5;             ///< timed re-opens of the data dir

/// What tells the serving workloads apart. The rates, ladder and latency
/// limit were set once from measurements on a 4-core x86-64 host; see
/// perfbench/README.md.
struct ServeParams {
  bool ingest = false;
  double fixed_rate = 0.0;      ///< req/s of the latency phase
  double limit_ms = 0.0;        ///< p99 limit of the max-rate ladder
  std::vector<double> ladder;   ///< absolute offered rates, ascending
  OpMix mix;                    ///< writes (serve_ingest only)
};

ServeParams params_for(const std::string& workload) {
  ServeParams p;
  if (workload == "serve_explore") {
    p.fixed_rate = 300;
    p.limit_ms = 50.0;
    p.ladder = {600, 900, 1300, 1900, 2700, 3800, 5400};
  } else {
    p.ingest = true;
    p.fixed_rate = 100;
    p.limit_ms = 250.0;
    p.ladder = {600, 750, 940, 1170, 1460, 1830, 2290, 2860};
    p.mix = OpMix{0.5, 0.1, 512, 256};
  }
  return p;
}

const std::string kDocs = "/api/v0/documents";
constexpr int kFixedParts = 10;
constexpr const char* kOpHeader = "X-Bench-Op";

/// Everything generated from the seed before the service starts.
struct Inputs {
  Corpus corpus;
  ReadTable reads;
  IngestInputs ingest;
  std::vector<std::string> put_targets;  ///< per ingest name
  std::vector<std::vector<Op>> streams;  ///< per sender
};

Inputs make_inputs(const ServeParams& p, std::uint64_t seed, std::size_t ops_per_sender) {
  Inputs in;
  in.corpus = make_corpus(seed, kCorpusDocs, kLargeDocs);
  in.reads = make_read_table(seed, in.corpus, kReadKeys, /*paging=*/!p.ingest);
  if (p.ingest) {
    in.ingest = make_ingest_inputs(seed, p.mix.names, p.mix.bodies);
    for (const std::string& name : in.ingest.names) in.put_targets.push_back(kDocs + "/" + name);
  }
  in.streams = make_op_streams(seed, kSenders, ops_per_sender, in.reads, kZipfS, p.mix);
  return in;
}

wal::Options wal_options() {
  wal::Options o;
  o.fsync_policy = wal::FsyncPolicy::kEveryWrite;
  o.compact_every = kCompactEvery;
  return o;
}

/// Writes the corpus as the data dir's snapshot: the settled store a
/// stopped `yprov serve` leaves behind.
void write_settled_store(const Inputs& in, const std::string& dir, Report& report) {
  std::map<std::string, std::string> bodies;
  for (const auto& [name, doc] : in.corpus.docs) {
    bodies[name] = prov::to_prov_json_string(doc, /*pretty=*/false);
  }
  const provml::Status written = wal::replace_store(dir, bodies);
  if (!written.ok()) report.fail("writing the settled store: " + written.error().to_string());
}

/// Starts the service the way `yprov serve --data-dir` does on a settled
/// store: attach_wal recovers it (parse every document, rebuild the
/// sharded graph) and keeps logging every write.
std::unique_ptr<net::YProvHttpApp> open_service(const std::string& dir, Report& report) {
  auto app = std::make_unique<net::YProvHttpApp>(gs::YProvService(kShards),
                                                 net::YProvHttpApp::Options{});
  const provml::Status attached = app->service().attach_wal(dir, wal_options());
  if (!attached.ok()) report.fail("attach_wal: " + attached.error().to_string());
  return app;
}

/// One logged request of the traced phase, for the single-threaded
/// replay into a fresh service.
struct LoggedRequest {
  Route route;
  std::size_t sender;
  const std::string* method;
  const std::string* target;
  const std::string* body;  ///< null for kPageNext: the replay supplies its own cursor
  std::int64_t sent_ns;
};

struct SenderState {
  std::unique_ptr<net::HttpClient> client;
  std::size_t next_op = 0;
  std::string cursor_body;  ///< {"cursor": ...} while a paged query has pages left
  std::map<std::uint32_t, std::uint32_t> model;  ///< acknowledged writes: name -> body
  std::vector<LoggedRequest> log;
  std::vector<std::string> errors;
};

/// Runs the load against a started server.
class Traffic {
 public:
  Traffic(const ServeParams& p, const Inputs& in, std::uint16_t port, Tracer* tracer)
      : p_(p), in_(in), tracer_(tracer), states_(kSenders) {
    for (SenderState& s : states_) {
      s.client = std::make_unique<net::HttpClient>("127.0.0.1", port);
    }
  }

  void set_logging(bool on) { logging_ = on; }
  void set_tracing(bool on) { tracing_ = on; }

  Outcome send(std::size_t sender) {
    SenderState& st = states_[sender];
    Route route;
    const std::string* method = &kPost;
    const std::string* target = nullptr;
    const std::string* body = &kEmpty;
    int expected = 200;
    if (!st.cursor_body.empty()) {
      route = Route::kPageNext;
      target = &kNext;
      body = &st.cursor_body;
    } else {
      if (st.next_op >= in_.streams[sender].size()) {
        st.errors.push_back("op stream exhausted");
        return Outcome{false, false};
      }
      const Op& op = in_.streams[sender][st.next_op++];
      route = op.route;
      if (op.route == Route::kPut) {
        method = &kPut;
        target = &in_.put_targets[op.ref];
        body = &in_.ingest.bodies[op.body];
        expected = 201;
      } else if (op.route == Route::kDelete) {
        method = &kDelete;
        target = &in_.put_targets[op.ref];
      } else {
        const ReadRequest& r = in_.reads.requests[op.ref];
        route = r.route;
        method = &r.method;
        target = &r.target;
        body = &r.body;
      }
    }
    const bool write = route == Route::kPut || route == Route::kDelete;
    if (logging_) {
      st.log.push_back(LoggedRequest{route, sender, method, target,
                                     route == Route::kPageNext ? nullptr : body, now_ns()});
    }

    provml::Expected<net::HttpResponse> response = [&] {
      if (!tracing_) return st.client->request(*method, *target, *body);
      const ScopedSpan span(tracer_, "net.request", 0);
      return st.client->request(*method, *target, *body,
                                {{kOpHeader, std::to_string(span.id())}});
    }();
    if (!response.ok()) {
      note_error(st, route, response.error().to_string());
      st.cursor_body.clear();
      return Outcome{false, write};
    }
    const net::HttpResponse& r = response.value();
    if (r.status != expected) {
      note_error(st, route, "status " + std::to_string(r.status) + " on " + *target);
      st.cursor_body.clear();
      return Outcome{false, write};
    }
    if (route == Route::kPage || route == Route::kPageNext) {
      st.cursor_body.clear();
      const auto page = json::parse(r.body);
      if (!page.ok() || page.value().find("rows") == nullptr) {
        note_error(st, route, "malformed page");
        return Outcome{false, false};
      }
      const json::Value* done = page.value().find("done");
      const json::Value* cursor = page.value().find("cursor");
      if (done != nullptr && done->is_bool() && !done->as_bool() && cursor != nullptr &&
          cursor->is_string()) {
        json::Object next;
        next.set("cursor", cursor->as_string());
        st.cursor_body = json::write(json::Value(std::move(next)));
      }
    }
    if (route == Route::kPut) {
      const Op& op = in_.streams[sender][st.next_op - 1];
      st.model[op.ref] = op.body;
    } else if (route == Route::kDelete) {
      st.model.erase(in_.streams[sender][st.next_op - 1].ref);
    }
    return Outcome{true, write};
  }

  PhaseResult phase(const std::string& name, double rate, double seconds) {
    PhaseSpec spec;
    spec.name = name;
    spec.rate = rate;
    spec.seconds = seconds;
    spec.senders = kSenders;
    return run_phase(spec, indices_, [this](std::size_t s, std::uint64_t) { return send(s); });
  }

  /// Finishes any open cursor so the service is quiescent and no
  /// cursor is left registered.
  void drain_cursors() {
    for (std::size_t s = 0; s < states_.size(); ++s) {
      for (int guard = 0; !states_[s].cursor_body.empty() && guard < 1000; ++guard) (void)send(s);
    }
  }

  [[nodiscard]] std::vector<SenderState>& states() { return states_; }
  [[nodiscard]] net::HttpClient& client() { return *states_[0].client; }

 private:
  static void note_error(SenderState& st, Route route, const std::string& what) {
    if (st.errors.size() < 8) st.errors.push_back(std::string(route_name(route)) + ": " + what);
  }

  static inline const std::string kPost = "POST";
  static inline const std::string kPut = "PUT";
  static inline const std::string kDelete = "DELETE";
  static inline const std::string kEmpty;
  static inline const std::string kNext = "/api/v0/query/next";

  const ServeParams& p_;
  const Inputs& in_;
  Tracer* tracer_;
  std::vector<SenderState> states_;
  std::vector<std::uint64_t> indices_;
  bool logging_ = false;
  bool tracing_ = false;
};

std::string fmt(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

/// `ladder`: a capacity probe, whose sends abandoned past the drain cap
/// are the expected sign of overload rather than failed operations.
void report_phase(Report& report, const PhaseResult& r, bool ladder = false) {
  const Summary all = summarize(r.latencies(true, true));
  const Summary late = summarize(r.lateness());
  report.note("phase " + r.spec.name + ": offered " + fmt(r.spec.rate, 0) + " req/s for " +
              fmt(r.spec.seconds, 1) + " s; sent " + std::to_string(r.sent) + ", succeeded " +
              std::to_string(r.succeeded) + ", failed " + std::to_string(r.failed) +
              " (abandoned " + std::to_string(r.abandoned) + "); latency p50 " + fmt(all.p50) +
              " ms, p99 " + fmt(all.p99) + " ms; generator late p99 " + fmt(late.p99) +
              " ms, backlog max " + std::to_string(r.backlog_max) + ", at end " +
              std::to_string(r.backlog_end));
  if (ladder) {
    report.count_ops(r.sent, r.failed - r.abandoned);
  } else {
    report.count_ops(r.sent + r.abandoned, r.failed);
  }
}

/// Renders a result table the way the service's /api/v0/query route
/// does: node columns as the node's prov_id, other columns as values.
std::string render_rows(const gs::PropertyGraph& graph, const gs::ResultSet& table) {
  json::Array rows;
  for (const auto& row : table.rows) {
    json::Object obj;
    for (std::size_t c = 0; c < table.columns.size(); ++c) {
      if (!table.columns[c].is_node) {
        obj.set(table.columns[c].name, row[c]);
        continue;
      }
      const gs::Node* n = graph.node(static_cast<gs::NodeId>(row[c].as_int()));
      const json::Value* id = n != nullptr ? n->properties.find("prov_id") : nullptr;
      obj.set(table.columns[c].name, id != nullptr ? *id : json::Value(nullptr));
    }
    rows.push_back(json::Value(std::move(obj)));
  }
  json::Object body;
  body.set("rows", std::move(rows));
  return json::write(json::Value(std::move(body)));
}

/// Live checks against the quiesced server.
void check_live(const ServeParams& p, const Inputs& in, Traffic& traffic,
                const gs::PropertyGraph& graph, std::uint64_t seed, Report& report) {
  Rng rng(seed ^ 0x636865636bull);
  net::HttpClient& client = traffic.client();
  std::size_t checked = 0;
  std::size_t bad = 0;
  // A seeded sample of GET bodies, plus every large document.
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < 64; ++i) sample.push_back(rng.below(in.corpus.docs.size()));
  for (std::size_t i = 0; i < in.corpus.docs.size(); ++i) {
    if (in.corpus.docs[i].second.elements().size() >= 256) sample.push_back(i);
  }
  for (const std::size_t i : sample) {
    const auto& [name, doc] = in.corpus.docs[i];
    const auto r = client.get(kDocs + "/" + name);
    ++checked;
    if (!r.ok() || r.value().status != 200 ||
        r.value().body != prov::to_prov_json_string(doc, /*pretty=*/false)) {
      ++bad;
      report.fail("GET body differs from the generated document: " + name);
    }
  }
  // A sample of query responses against the brute-force matcher.
  if (!p.ingest) {
    std::vector<const ReadRequest*> queries;
    for (const ReadRequest& r : in.reads.requests) {
      if (r.route == Route::kQuery || r.route == Route::kGlobalQuery) queries.push_back(&r);
    }
    for (std::size_t k = 0; k < 32 && !queries.empty(); ++k) {
      const ReadRequest& q = *queries[rng.below(queries.size())];
      const auto parsed = gs::parse_query(q.body);
      const auto oracle = parsed.ok() ? gs::execute_query_brute_force(graph, parsed.value())
                                      : provml::Expected<gs::ResultSet>(parsed.error());
      const auto r = client.post("/api/v0/query", q.body);
      ++checked;
      if (!oracle.ok() || !r.ok() || r.value().status != 200 ||
          r.value().body != render_rows(graph, oracle.value())) {
        ++bad;
        report.fail("query response differs from execute_query_brute_force: " + q.body);
      }
    }
  } else {
    // Every name of the ingest pool equals the model of acknowledged writes.
    std::map<std::uint32_t, std::uint32_t> model;
    for (const SenderState& st : traffic.states()) model.insert(st.model.begin(), st.model.end());
    for (std::size_t n = 0; n < in.ingest.names.size(); ++n) {
      const auto r = client.get(in.put_targets[n]);
      ++checked;
      const auto it = model.find(static_cast<std::uint32_t>(n));
      const bool ok = r.ok() && (it == model.end()
                                     ? r.value().status == 404
                                     : r.value().status == 200 &&
                                           r.value().body == in.ingest.expected[it->second]);
      if (!ok) {
        ++bad;
        report.fail("live document differs from the acknowledged writes: " + in.ingest.names[n]);
      }
    }
  }
  report.count_ops(checked, bad);
  report.note("live checks: " + std::to_string(checked) + " responses compared, " +
              std::to_string(bad) + " differ");
}

/// Re-opens the data dir into a fresh service (snapshot plus log tail) and
/// compares every document the run could have touched. Then it compacts
/// the log, as a clean `yprov serve` shutdown does, and times
/// kRecoveries re-opens of the compacted store: a restart whose work does
/// not depend on where the last auto-compaction fell. Returns their median.
double check_recovery(const Inputs& in,
                      const std::map<std::uint32_t, std::uint32_t>& model,
                      const std::string& dir, Report& report) {
  auto service_ptr = std::make_unique<gs::YProvService>(kShards);
  gs::YProvService& service = *service_ptr;
  const std::int64_t t0 = now_ns();
  const provml::Status s = service.attach_wal(dir, wal_options());
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  if (!s.ok()) {
    report.fail("re-open of the data dir failed: " + s.error().to_string());
    return ms;
  }
  std::size_t bad = 0;
  const std::size_t expected_count = in.corpus.docs.size() + model.size();
  if (service.document_count() != expected_count) {
    ++bad;
    report.fail("recovered " + std::to_string(service.document_count()) + " documents, expected " +
                std::to_string(expected_count));
  }
  for (const auto& [name, doc] : in.corpus.docs) {
    const prov::Document* got = service.get_document(name);
    if (got == nullptr || prov::to_prov_json_string(*got, false) !=
                              prov::to_prov_json_string(doc, false)) {
      ++bad;
      report.fail("recovered corpus document differs: " + name);
      break;
    }
  }
  for (std::size_t n = 0; n < in.ingest.names.size(); ++n) {
    const prov::Document* got = service.get_document(in.ingest.names[n]);
    const auto it = model.find(static_cast<std::uint32_t>(n));
    const bool ok = it == model.end()
                        ? got == nullptr
                        : got != nullptr && prov::to_prov_json_string(*got, false) ==
                                                in.ingest.expected[it->second];
    if (!ok) {
      ++bad;
      report.fail("recovered document differs from the acknowledged writes: " +
                  in.ingest.names[n]);
    }
  }
  report.count_ops(1 + in.ingest.names.size(), bad);
  report.note("recovery check: " + std::to_string(service.document_count()) +
              " documents re-opened in " + fmt(ms) + " ms, " + std::to_string(bad) + " differ");
  const provml::Status compacted = service.wal_compact();
  if (!compacted.ok()) report.fail("compaction at shutdown: " + compacted.error().to_string());
  service_ptr.reset();
  std::vector<double> times;
  for (int i = 0; i < kRecoveries; ++i) {
    gs::YProvService again(kShards);
    const std::int64_t t1 = now_ns();
    if (!again.attach_wal(dir, wal_options()).ok()) report.fail("second re-open failed");
    times.push_back(static_cast<double>(now_ns() - t1) * 1e-6);
  }
  std::string t;
  for (const double x : times) t += fmt(x, 1) + " ";
  report.note("re-open times (ms): " + t);
  return median(times);
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Per-layer metrics of the traced phase that come from spans recorded
/// on the client and in the server's handler lambda.
void net_layers(Tracer& tracer, const std::vector<std::size_t>& resp_bytes, Report& report) {
  const std::vector<Span> requests = tracer.spans_named("net.request");
  const std::vector<Span> handlers = tracer.spans_named("net.handler");
  std::unordered_map<std::uint64_t, const Span*> by_parent;
  for (const Span& h : handlers) by_parent.emplace(h.parent, &h);
  std::vector<double> rtt, handler, loop;
  std::size_t reconciled = 0;
  for (const Span& r : requests) {
    const auto it = by_parent.find(r.id);
    if (it == by_parent.end()) continue;
    const Span& h = *it->second;
    const double loop_us = us(r.duration_ns() - h.duration_ns());
    rtt.push_back(us(r.duration_ns()));
    handler.push_back(us(h.duration_ns()));
    loop.push_back(loop_us);
    // loop + handler = rtt holds by construction; the check is that the
    // handler ran inside the request's interval on the same clock.
    if (h.start_ns >= r.start_ns && h.end_ns <= r.end_ns && loop_us >= 0.0) ++reconciled;
  }
  const Summary srtt = summarize(rtt), sh = summarize(handler), sl = summarize(loop);
  report.layer("net.rtt_us_p50", srtt.p50, srtt.count);
  report.layer("net.rtt_us_p99", srtt.p99, srtt.count);
  report.layer("net.handler_us_p50", sh.p50, sh.count);
  report.layer("net.handler_us_p99", sh.p99, sh.count);
  report.layer("net.loop_us_p50", sl.p50, sl.count);
  report.layer("net.loop_us_p99", sl.p99, sl.count);
  report.layer("net.reconciled_ratio",
               rtt.empty() ? 0.0 : static_cast<double>(reconciled) / static_cast<double>(rtt.size()),
               rtt.size());
  std::vector<double> bytes(resp_bytes.begin(), resp_bytes.end());
  const Summary sb = summarize(bytes);
  report.layer("net.resp_bytes_p50", sb.p50, sb.count);
  report.note("reconciliation: " + std::to_string(reconciled) + " of " +
              std::to_string(rtt.size()) + " traced requests have their handler span inside " +
              "the request span (net.loop_us = net.rtt_us - net.handler_us per request id)");
}

/// Replays the traced phase's request log, single-threaded, into a fresh
/// identically built service (no HTTP, no response cache), and times
/// YProvService::handle per route, then the query texts through
/// parse_query / explain_query / execute_query.
void replay_layers(const Inputs& in, const std::vector<LoggedRequest>& log,
                   const std::string& dir, Report& report) {
  write_settled_store(in, dir, report);
  const auto fresh = open_service(dir, report);
  gs::YProvService& service = fresh->service();
  std::map<std::string, std::vector<double>> by_route;
  std::vector<std::string> cursor(kSenders);
  for (const LoggedRequest& l : log) {
    gs::Request req;
    req.method = *l.method;
    req.path = *l.target;
    if (l.route == Route::kPageNext) {
      if (cursor[l.sender].empty()) continue;
      req.body = cursor[l.sender];
    } else {
      req.body = *l.body;
    }
    const std::int64_t t0 = now_ns();
    const gs::Response r = service.handle(req);
    const double elapsed = us(now_ns() - t0);
    std::string key = route_name(l.route);
    if (l.route == Route::kGlobalQuery) key = "query";
    if (l.route == Route::kPageNext) key = "query_page";
    by_route[key].push_back(elapsed);
    if (l.route == Route::kPage || l.route == Route::kPageNext) {
      cursor[l.sender].clear();
      const auto page = json::parse(r.body);
      const json::Value* c = page.ok() ? page.value().find("cursor") : nullptr;
      const json::Value* done = page.ok() ? page.value().find("done") : nullptr;
      if (c != nullptr && c->is_string() && done != nullptr && done->is_bool() &&
          !done->as_bool()) {
        json::Object next;
        next.set("cursor", c->as_string());
        cursor[l.sender] = json::write(json::Value(std::move(next)));
      }
    }
  }
  for (const char* route : {"get_doc", "stats", "element", "subgraph", "list", "query", "explain",
                            "query_page", "put", "delete"}) {
    const std::string name = std::string("graphstore.") + route + "_us_p50";
    const auto it = by_route.find(route);
    if (it == by_route.end()) {
      report.layer_na(name, "no such request in this workload's mix");
    } else {
      report.layer(name, median(it->second), it->second.size());
    }
  }
  const auto q = by_route.find("query");
  if (q != by_route.end()) report.layer("graphstore.query_us_p99", percentile(q->second, 0.99),
                                        q->second.size());

  // The query layer on its own, over the same texts.
  std::vector<double> parse_us, plan_us, exec_us, rows;
  for (const LoggedRequest& l : log) {
    if (l.route != Route::kQuery && l.route != Route::kGlobalQuery && l.route != Route::kExplain) {
      continue;
    }
    const std::int64_t t0 = now_ns();
    auto query = gs::parse_query(*l.body);
    const std::int64_t t1 = now_ns();
    if (!query.ok()) continue;
    const gs::QueryPlan plan = gs::explain_query(service.graph(), query.value());
    const std::int64_t t2 = now_ns();
    const auto table = gs::execute_query(service.graph(), query.value());
    const std::int64_t t3 = now_ns();
    (void)plan;
    parse_us.push_back(us(t1 - t0));
    plan_us.push_back(us(t2 - t1));
    exec_us.push_back(us(t3 - t2));
    rows.push_back(table.ok() ? static_cast<double>(table.value().rows.size()) : 0.0);
  }
  report.layer("graphstore.query_parse_us_p50", median(parse_us), parse_us.size());
  report.layer("graphstore.query_plan_us_p50", median(plan_us), plan_us.size());
  report.layer("graphstore.query_exec_us_p50", median(exec_us), exec_us.size());
  report.layer("graphstore.query_rows_p50", median(rows), rows.size());
}

/// Times DurableStore::append on its own: the given records into a fresh
/// store with the workload's WAL options, single-threaded.
void wal_append_layer(const std::vector<wal::Record>& records,
                      const std::string& dir, Report& report) {
  auto store = wal::DurableStore::open(dir, wal_options());
  if (!store.ok()) {
    report.fail("standalone DurableStore: " + store.error().to_string());
    return;
  }
  std::vector<double> times;
  times.reserve(records.size());
  for (const wal::Record& rec : records) {
    const std::int64_t t0 = now_ns();
    const auto lsn = store.value()->append(rec);
    times.push_back(us(now_ns() - t0));
    if (!lsn.ok()) {
      report.fail("standalone DurableStore append: " + lsn.error().to_string());
      break;
    }
  }
  const Summary s = summarize(times);
  report.layer("wal.append_us_p50", s.p50, s.count);
  report.layer("wal.append_us_p99", s.p99, s.count);
}

/// json::parse + from_prov_json, and to_prov_json_string, in MB/s over
/// the given bodies and documents; the pmlc body codec in MB/s and ratio.
void prov_and_codec_layers(const std::vector<std::string>& bodies,
                           const std::vector<const prov::Document*>& docs, Report& report) {
  std::size_t bytes = 0;
  std::int64_t t0 = now_ns();
  for (const std::string& b : bodies) {
    const auto v = json::parse(b);
    if (v.ok()) (void)prov::from_prov_json(v.value());
    bytes += b.size();
  }
  report.layer("prov.parse_mb_per_s", static_cast<double>(bytes) / 1e6 /
                                          (static_cast<double>(now_ns() - t0) * 1e-9),
               bodies.size());
  bytes = 0;
  std::vector<std::string> written;
  t0 = now_ns();
  for (const prov::Document* d : docs) {
    written.push_back(prov::to_prov_json_string(*d, /*pretty=*/false));
    bytes += written.back().size();
  }
  report.layer("prov.write_mb_per_s", static_cast<double>(bytes) / 1e6 /
                                          (static_cast<double>(now_ns() - t0) * 1e-9),
               docs.size());
  // The response codec: lzss, applied to GET bodies of at least 1 KiB.
  const auto codec = provml::compress::CodecRegistry::global().create("lzss");
  std::size_t raw = 0, packed = 0;
  t0 = now_ns();
  for (const std::string& w : written) {
    if (w.size() < 1024) continue;
    const auto out = codec->encode(provml::compress::ByteView(
        reinterpret_cast<const std::uint8_t*>(w.data()), w.size()));
    raw += w.size();
    packed += out.size();
  }
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  report.layer("compress.encode_mb_per_s", static_cast<double>(raw) / 1e6 / secs, written.size());
  report.layer("compress.ratio", packed == 0 ? 0.0 : static_cast<double>(raw) / packed,
               written.size());
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const ServeParams p = params_for(args.workload);
  // Two thirds of the measured time offer the fixed rate; each ladder
  // rung gets a twentieth, and the ladder climbs until its first failing
  // rung.
  const double fixed_seconds = 2.0 * args.seconds / 3.0;
  const double rung_seconds = args.seconds / 20.0;
  // Enough pre-generated operations for every phase this run can offer.
  double planned = (kWarmupSeconds + 2 * fixed_seconds) * p.fixed_rate;
  for (const double rate : p.ladder) planned += rate * rung_seconds;
  const auto ops_per_sender = static_cast<std::size_t>(planned / kSenders) + 64;

  // Set-up (input generation, then the service start on the settled
  // store), timed several times; the last one is kept for the run.
  // Writing the settled store is not timed: it stands for data already
  // on disk. Each set-up gets its own data dir and none is deleted while
  // the run measures: on a filesystem mounted with online discard,
  // deleting files stalls the next fsyncs, which would land in the
  // measured phases.
  std::string data_dir;
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<net::YProvHttpApp> live;
  constexpr int kSetups = 5;
  for (int i = 0; i < kSetups; ++i) {
    live.reset();
    in = Inputs{};
    const std::int64_t t0 = now_ns();
    in = make_inputs(p, args.seed, ops_per_sender);
    const std::int64_t generated = now_ns() - t0;
    data_dir = args.work_dir + "/data" + std::to_string(i);
    write_settled_store(in, data_dir, report);
    const std::int64_t t1 = now_ns();
    live = open_service(data_dir, report);
    setup_s.push_back(static_cast<double>(generated + now_ns() - t1) * 1e-9);
  }
  report.e2e("setup_s", median(setup_s), "s", setup_s.size());
  report.note("set-up times (s): " + [&] {
    std::string t;
    for (const double x : setup_s) t += fmt(x) + " ";
    return t;
  }());
  report.note("set-up: " + std::to_string(in.corpus.docs.size()) + " documents (" +
              std::to_string(kLargeDocs) + " large), " + std::to_string(in.reads.requests.size()) +
              " distinct reads vs a 256-entry response cache, " +
              std::to_string(kSenders) + " senders; WAL fsync every_write, compact_every " +
              std::to_string(kCompactEvery));

  Tracer tracer(args.trace);
  std::mutex bytes_mutex;
  std::vector<std::size_t> resp_bytes;
  std::atomic<bool> handler_tracing{false};
  net::YProvHttpApp& app = *live;
  net::HttpServer server(net::ServerConfig{}, [&](const net::HttpRequest& r) {
    if (!handler_tracing) return app.handle(r);
    const std::string* op = r.header(kOpHeader);
    const std::uint64_t parent = op != nullptr ? std::stoull(*op) : 0;
    net::HttpResponse response;
    {
      const ScopedSpan span(&tracer, "net.handler", parent, parent);
      response = app.handle(r);
    }
    const std::lock_guard<std::mutex> lock(bytes_mutex);
    resp_bytes.push_back(response.body.size());
    return response;
  });
  // The access log goes where `yprov serve > log` would put it.
  std::ofstream access_log(args.work_dir + "/access.log");
  std::mutex log_mutex;
  server.set_access_logger([&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(log_mutex);
    access_log << line << "\n";
  });
  app.set_server_stats_provider([&server] { return server.stats(); });
  const provml::Status started = server.start();
  if (!started.ok()) {
    report.fail("server start: " + started.error().to_string());
    return;
  }

  Traffic traffic(p, in, server.port(), &tracer);
  report_phase(report, traffic.phase("warmup", p.fixed_rate, kWarmupSeconds));

  const wal::Stats wal0 = app.service().wal_stats();
  const auto shards0 = app.service().shard_stats();

  // The fixed-rate phase runs as ten equal parts. The run's p50 is the
  // median of the parts' p50s: a slow spell of the host that covers less
  // than half of the phase does not move it. The p99 is taken over all
  // samples, so it rests on ten or more samples beyond it.
  PhaseResult fixed;
  std::vector<double> part_p50;
  for (int part = 1; part <= kFixedParts; ++part) {
    const PhaseResult r = traffic.phase("fixed" + std::to_string(part), p.fixed_rate,
                                       fixed_seconds / kFixedParts);
    report_phase(report, r);
    part_p50.push_back(percentile(r.latencies(true, true), 0.5));
    fixed.samples.insert(fixed.samples.end(), r.samples.begin(), r.samples.end());
  }
  Summary all = summarize(fixed.latencies(true, true));
  all.p50 = median(part_p50);
  const Summary reads = summarize(fixed.latencies(true, false));
  const Summary writes = summarize(fixed.latencies(false, true));

  PhaseResult traced;
  net::ServerStats server1;
  net::YProvHttpApp::Counters counters1;
  if (args.trace) {
    // Same phase again with spans on; its end-to-end numbers next to the
    // untraced phase's give the tracing overhead.
    server1 = server.stats();
    counters1 = app.counters();
    traffic.set_logging(true);
    traffic.set_tracing(true);
    handler_tracing = true;
    traced = traffic.phase("fixed_traced", p.fixed_rate, fixed_seconds);
    handler_tracing = false;
    traffic.set_tracing(false);
    traffic.set_logging(false);
    report_phase(report, traced);
  }

  // The max-rate ladder (untraced runs only).
  std::vector<Rung> ladder;
  if (!args.trace) {
    for (std::size_t i = 0; i < p.ladder.size(); ++i) {
      const PhaseResult r = traffic.phase("rung" + std::to_string(i), p.ladder[i], rung_seconds);
      report_phase(report, r, /*ladder=*/true);
      const double p99 = percentile(r.latencies(true, true), 0.99);
      const bool growing = static_cast<double>(r.backlog_end) > p.ladder[i] * p.limit_ms * 1e-3;
      ladder.push_back(Rung{p.ladder[i], p99, p99 <= p.limit_ms && !growing && r.failed == 0});
      if (!ladder.back().passed) break;
    }
  }
  traffic.drain_cursors();

  const wal::Stats wal_end = app.service().wal_stats();
  const auto shards_end = app.service().shard_stats();
  const net::ServerStats server_end = server.stats();
  const auto counters_end = app.counters();

  check_live(p, in, traffic, app.service().graph(), args.seed, report);
  server.stop();
  for (const SenderState& st : traffic.states()) {
    for (const std::string& e : st.errors) report.fail("request failed: " + e);
  }

  std::map<std::uint32_t, std::uint32_t> model;
  for (const SenderState& st : traffic.states()) model.insert(st.model.begin(), st.model.end());
  std::vector<LoggedRequest> log;
  for (const SenderState& st : traffic.states()) log.insert(log.end(), st.log.begin(), st.log.end());
  std::sort(log.begin(), log.end(),
            [](const LoggedRequest& a, const LoggedRequest& b) { return a.sent_ns < b.sent_ns; });
  live.reset();  // closes the WAL, as a stopped `yprov serve` would
  access_log.close();
  const double recover_ms = check_recovery(in, model, data_dir, report);

  report.e2e("reload_ms", recover_ms, "ms", kRecoveries);
  if (!args.trace) {
    const double max_rps = interpolate_max_rate(ladder, p.limit_ms);
    report.detail("request_p50_ms", all.p50, "ms", all.count);
    report.detail("request_p99_ms", all.p99, "ms", all.count);
    report.detail("read_p50_ms", reads.p50, "ms", reads.count);
    report.detail("read_p99_ms", reads.p99, "ms", reads.count);
    if (p.ingest) {
      report.detail("write_p50_ms", writes.p50, "ms", writes.count);
      report.detail("write_p99_ms", writes.p99, "ms", writes.count);
    }
    report.detail("max_rps", max_rps, "req/s", ladder.size());
    report.detail("wal.compactions", static_cast<double>(wal_end.compactions - wal0.compactions),
                  "count", 1);
    report.note("max_rps ladder (p99 limit " + fmt(p.limit_ms, 1) + " ms): " + [&] {
      std::string s;
      for (const Rung& r : ladder) {
        s += fmt(r.rate, 0) + " req/s -> p99 " + fmt(r.p99_ms) + " ms " +
             (r.passed ? "pass" : "FAIL") + "; ";
      }
      return s;
    }());
    return;
  }

  // ---------------------------------------------------------- traced run
  const Summary traced_all = summarize(traced.latencies(true, true));
  report.layer("trace.overhead_ratio", all.p50 > 0 ? traced_all.p50 / all.p50 : 0.0,
               traced_all.count);
  report.note("tracing overhead: untraced phase p50 " + fmt(all.p50) + " ms / p99 " +
              fmt(all.p99) + " ms; traced phase p50 " + fmt(traced_all.p50) + " ms / p99 " +
              fmt(traced_all.p99) + " ms");
  const Summary late = summarize(traced.lateness());
  report.layer("loadgen.late_ms_p99", late.p99, late.count);
  report.layer("loadgen.backlog_max", static_cast<double>(traced.backlog_max), traced.sent);

  net_layers(tracer, resp_bytes, report);
  const std::uint64_t requests = server_end.requests_handled - server1.requests_handled;
  report.layer("net.wakeups_per_req",
               requests == 0 ? 0.0
                             : static_cast<double>(server_end.epoll_wakeups - server1.epoll_wakeups) /
                                   static_cast<double>(requests),
               requests);
  report.layer("net.conns_accepted", static_cast<double>(server_end.connections_accepted), 1);
  const std::uint64_t hits = counters_end.cache_hits - counters1.cache_hits;
  const std::uint64_t lookups = hits + counters_end.cache_misses - counters1.cache_misses;
  report.layer("net.cache_hit_ratio",
               lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
               lookups);

  {
    // Bulk ingest on its own: the corpus through put_documents into a
    // fresh service with the same shard count and no WAL.
    gs::YProvService bulk(kShards);
    const std::int64_t t0 = now_ns();
    const auto stats = bulk.put_documents(in.corpus.docs);
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    if (!stats.ok()) report.fail("put_documents: " + stats.error().to_string());
    report.layer("graphstore.bulk_ingest_docs_per_s",
                 static_cast<double>(in.corpus.docs.size()) / secs, in.corpus.docs.size());
  }
  // Stripe balance and WAL work over the run (serve_explore writes nothing).
  std::vector<double> acquisitions;
  for (std::size_t s = 0; s < shards_end.size(); ++s) {
    acquisitions.push_back(
        static_cast<double>(shards_end[s].writer_acquisitions - shards0[s].writer_acquisitions));
  }
  double mean_acq = 0;
  for (const double a : acquisitions) mean_acq += a / static_cast<double>(acquisitions.size());
  if (mean_acq > 0) {
    report.layer("graphstore.shard_write_skew",
                 *std::max_element(acquisitions.begin(), acquisitions.end()) / mean_acq,
                 acquisitions.size());
  } else {
    report.layer_na("graphstore.shard_write_skew", "the run writes nothing");
  }
  const std::uint64_t fsyncs = wal_end.fsyncs - wal0.fsyncs;
  const std::uint64_t appends = wal_end.appends - wal0.appends;
  if (appends == 0 || fsyncs == 0) {
    for (const char* name : {"wal.appends_per_fsync", "wal.fsync_us_mean", "wal.bytes_per_append"}) {
      report.layer_na(name, "the run writes nothing");
    }
  } else {
    report.layer("wal.appends_per_fsync",
                 static_cast<double>(appends) / static_cast<double>(fsyncs), fsyncs);
    report.layer("wal.fsync_us_mean",
                 static_cast<double>(wal_end.fsync_us_total - wal0.fsync_us_total) /
                     static_cast<double>(fsyncs),
                 fsyncs);
    report.layer("wal.bytes_per_append",
                 static_cast<double>(wal_end.appended_bytes - wal0.appended_bytes) /
                     static_cast<double>(appends),
                 appends);
  }
  report.layer("wal.compactions", static_cast<double>(wal_end.compactions - wal0.compactions), 1);
  report.layer("wal.recover_ms", recover_ms, kRecoveries);

  // Standalone WAL appends: the acknowledged writes of the traced phase
  // (serve_ingest) or the set-up load (serve_explore).
  std::vector<wal::Record> records;
  for (const LoggedRequest& l : log) {
    if (l.route != Route::kPut && l.route != Route::kDelete) continue;
    const std::string name = l.target->substr(kDocs.size() + 1);
    records.push_back(l.route == Route::kPut
                          ? wal::Record{wal::Record::Type::kPutDocument, name, *l.body}
                          : wal::Record{wal::Record::Type::kDeleteDocument, name, ""});
  }
  if (records.empty()) {
    for (const auto& [name, doc] : in.corpus.docs) {
      records.push_back({wal::Record::Type::kPutDocument, name,
                         prov::to_prov_json_string(doc, /*pretty=*/false)});
    }
  }
  wal_append_layer(records, args.work_dir + "/wal_replay", report);
  replay_layers(in, log, args.work_dir + "/replay", report);

  std::vector<std::string> bodies = p.ingest ? in.ingest.bodies : std::vector<std::string>{};
  std::vector<const prov::Document*> docs;
  for (const auto& [name, doc] : in.corpus.docs) {
    docs.push_back(&doc);
    if (!p.ingest) bodies.push_back(prov::to_prov_json_string(doc, /*pretty=*/false));
  }
  prov_and_codec_layers(bodies, docs, report);

  if (!tracer.write_jsonl(args.out_dir + "/spans-" + args.workload + "-seed" +
                          std::to_string(args.seed) + ".jsonl")) {
    report.fail("cannot write the span file");
  }
}

}  // namespace perfbench
