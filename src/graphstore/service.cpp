#include "provml/graphstore/service.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "provml/common/strings.hpp"
#include "provml/common/thread_pool.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "provml/prov/prov_json.hpp"

namespace provml::graphstore {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kDocumentsPrefix = "/api/v0/documents";

Response error_response(int status, const std::string& message) {
  json::Object body;
  body.set("error", message);
  return Response{status, json::write(json::Value(std::move(body))), ""};
}

/// 405 for a known route: the permitted methods travel both in the JSON
/// body and in Response::allow, which HTTP front-ends surface as a real
/// Allow: response header (RFC 9110 §10.2.1).
Response method_not_allowed(const std::string& allow) {
  json::Object body;
  body.set("error", "method not allowed");
  body.set("allow", allow);
  return Response{405, json::write(json::Value(std::move(body))), allow};
}

/// Whether a mutation failed in the durability layer (as opposed to being
/// rejected as invalid input): such errors map to 500, not 400.
bool is_wal_error(const Error& error) {
  return strings::starts_with(error.message, "wal: ");
}

/// Tags an error from the WAL layer so routes can classify it as 5xx.
Error wal_error(const Error& error) {
  return strings::starts_with(error.message, "wal: ")
             ? error
             : Error{"wal: " + error.message, error.where};
}

/// The document a PUT/DELETE targets, when the path is the single-segment
/// document route — the only routes that mutate. Everything else (unknown
/// paths, deeper GET-only routes, the collection listing) can only produce
/// 4xx under a write method, so callers fall back to reader locking.
std::optional<std::string> write_target(const std::string& path) {
  if (!strings::starts_with(path, kDocumentsPrefix)) return std::nullopt;
  std::string rest = path.substr(kDocumentsPrefix.size());
  if (!rest.empty() && rest.front() == '/') rest.erase(0, 1);
  if (rest.empty()) return std::nullopt;
  const std::vector<std::string> parts = strings::split(rest, '/');
  if (parts.size() != 1) return std::nullopt;
  return parts[0];
}

/// Renders one result row as the wire object: cells keyed by column name,
/// node columns resolved to the bound node's prov_id (null when absent).
json::Value row_object(const PropertyGraph& graph,
                       const std::vector<ResultSet::Column>& columns,
                       const std::vector<json::Value>& row) {
  json::Object row_json;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const ResultSet::Column& column = columns[c];
    if (!column.is_node) {
      row_json.set(column.name, row[c]);
      continue;
    }
    const Node* n = graph.node(static_cast<NodeId>(row[c].as_int()));
    const json::Value* prov_id = n != nullptr ? n->properties.find("prov_id") : nullptr;
    row_json.set(column.name, prov_id != nullptr ? *prov_id : json::Value(nullptr));
  }
  return json::Value(std::move(row_json));
}

json::Value edge_summary(const PropertyGraph& graph, const Edge& e, bool outgoing) {
  json::Object obj;
  obj.set("type", e.type);
  const Node* other = graph.node(outgoing ? e.to : e.from);
  const json::Value* other_id =
      other != nullptr ? other->properties.find("prov_id") : nullptr;
  obj.set(outgoing ? "to" : "from",
          other_id != nullptr ? *other_id : json::Value(nullptr));
  return obj;
}

/// Pre-WAL stores (index.json plus one PROV-JSON file per document) are no
/// longer read. Opening one as a WAL store would serve it empty, so load()
/// and attach_wal() both refuse it by name.
constexpr const char* kPreWalLayout =
    "pre-WAL store layout (index.json) is no longer read; re-ingest its documents";

bool pre_wal_layout(const std::string& dir) {
  return !wal::store_exists(dir) && fs::exists(fs::path(dir) / "index.json");
}

bool valid_document_name(const std::string& name) {
  return !name.empty() && name.find('/') == std::string::npos;
}

void accumulate(IngestStats& into, const IngestStats& from) {
  into.nodes_added += from.nodes_added;
  into.edges_added += from.edges_added;
  into.elements_merged += from.elements_merged;
}

/// Runs `task(i)` for every i in [0, n): inline when n is 1, otherwise one
/// shared-ThreadPool task each. Returns once every task has run.
void fan_out(std::size_t n, const std::function<void(std::size_t)>& task) {
  if (n == 1) return task(0);
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < n; ++i) {
    done.push_back(common::ThreadPool::shared().submit([&task, i] { task(i); }));
  }
  for (std::future<void>& f : done) f.wait();  // every task ends before any rethrow
  for (std::future<void>& f : done) f.get();
}

}  // namespace

YProvService::YProvService(std::size_t shards) : graph_(shards) {
  stripes_.reserve(graph_.shard_count());
  for (std::size_t s = 0; s < graph_.shard_count(); ++s) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  documents_.resize(graph_.shard_count());
}

YProvService::YProvService(YProvService&& other) noexcept
    : stripes_(std::move(other.stripes_)),
      version_(other.version_.load()),
      documents_(std::move(other.documents_)),
      graph_(std::move(other.graph_)),
      wal_(std::move(other.wal_)) {}

YProvService& YProvService::operator=(YProvService&& other) noexcept {
  if (this != &other) {
    stripes_ = std::move(other.stripes_);
    documents_ = std::move(other.documents_);
    graph_ = std::move(other.graph_);
    wal_ = std::move(other.wal_);
    version_.store(other.version_.load());
    // Any open cursors walked the graph storage just replaced; the
    // registry is not transferable either (the source's cursors point
    // into the source's moved-from graph). Moves are setup-time, so
    // simply start empty.
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    cursors_.clear();
  }
  return *this;
}

std::vector<std::shared_lock<std::shared_mutex>> YProvService::lock_all_shared() const {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(stripes_.size());
  for (const auto& stripe : stripes_) locks.emplace_back(stripe->mutex);
  return locks;
}

std::vector<std::unique_lock<std::shared_mutex>> YProvService::lock_all_exclusive() {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(stripes_.size());
  for (const auto& stripe : stripes_) {
    locks.emplace_back(stripe->mutex);
    stripe->writer_acquisitions.fetch_add(1, std::memory_order_relaxed);
  }
  return locks;
}

Status YProvService::put_document(const std::string& name, const prov::Document& doc) {
  Stripe& stripe = *stripes_[shard_for(name)];
  const std::unique_lock lock(stripe.mutex);
  stripe.writer_acquisitions.fetch_add(1, std::memory_order_relaxed);
  return put_document_impl(name, doc);
}

Status YProvService::put_document_impl(const std::string& name, const prov::Document& doc) {
  if (!valid_document_name(name)) return Error{"invalid document name", name};
  // Apply in memory first (ingest can reject the document), log second,
  // acknowledge last. A WAL failure restores the previous version, so the
  // log holds exactly the acknowledged mutations — never more. Everything
  // here touches only the document's home shard.
  std::optional<prov::Document> previous;
  Expected<IngestStats> stats = apply_document(name, doc, previous);
  if (!stats.ok()) return stats.error();
  if (wal_ != nullptr) {
    Expected<wal::Lsn> lsn = wal_->append(
        {wal::Record::Type::kPutDocument, name,
         prov::to_prov_json_string(doc, /*pretty=*/false)});
    if (!lsn.ok()) {
      restore_document(name, std::move(previous));
      return wal_error(lsn.error());
    }
  }
  bump_version();
  return Status::ok_status();
}

Expected<IngestStats> YProvService::apply_document(const std::string& name,
                                                   prov::Document doc,
                                                   std::optional<prov::Document>& previous) {
  const auto [it, inserted] = documents_[shard_for(name)].try_emplace(name);
  if (!inserted) {
    previous = std::move(it->second);
    remove_document(graph_, name);  // replace semantics: drop the old nodes
  }
  it->second = std::move(doc);
  Expected<IngestStats> stats = ingest_document(graph_, it->second, name);
  if (!stats.ok()) {
    restore_document(name, std::move(previous));
    previous.reset();
  }
  return stats;
}

void YProvService::restore_document(const std::string& name,
                                    std::optional<prov::Document> previous) {
  remove_document(graph_, name);  // sweep the current, possibly partial, nodes
  std::map<std::string, prov::Document>& docs = documents_[shard_for(name)];
  if (!previous.has_value()) {
    docs.erase(name);
    return;
  }
  const prov::Document& restored = docs[name] = std::move(*previous);
  // The previous version ingested successfully once; re-ingest restores it.
  (void)ingest_document(graph_, restored, name);
}

const prov::Document* YProvService::get_document(const std::string& name) const {
  const std::map<std::string, prov::Document>& docs = documents_[shard_for(name)];
  const auto it = docs.find(name);
  return it == docs.end() ? nullptr : &it->second;
}

bool YProvService::delete_document(const std::string& name) {
  Stripe& stripe = *stripes_[shard_for(name)];
  const std::unique_lock lock(stripe.mutex);
  stripe.writer_acquisitions.fetch_add(1, std::memory_order_relaxed);
  const Expected<bool> deleted = delete_document_impl(name);
  return deleted.ok() && deleted.value();
}

Expected<bool> YProvService::delete_document_impl(const std::string& name) {
  std::map<std::string, prov::Document>& docs = documents_[shard_for(name)];
  if (docs.count(name) == 0) return false;
  // Deletion of a present document cannot fail in memory, so the record
  // can be logged first — no rollback path needed.
  if (wal_ != nullptr) {
    Expected<wal::Lsn> lsn =
        wal_->append({wal::Record::Type::kDeleteDocument, name, std::string()});
    if (!lsn.ok()) return wal_error(lsn.error());
  }
  docs.erase(name);
  remove_document(graph_, name);  // shard-local
  bump_version();
  return true;
}

std::vector<std::string> YProvService::list_documents() const {
  const auto locks = lock_all_shared();
  return document_names_unlocked();
}

std::vector<std::string> YProvService::document_names_unlocked() const {
  std::vector<std::string> names;
  names.reserve(document_count_unlocked());
  for (const auto& docs : documents_) {
    for (const auto& [name, doc] : docs) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::size_t YProvService::document_count() const {
  const auto locks = lock_all_shared();
  return document_count_unlocked();
}

std::size_t YProvService::document_count_unlocked() const {
  std::size_t n = 0;
  for (const auto& docs : documents_) n += docs.size();
  return n;
}

Expected<IngestStats> YProvService::put_documents(
    const std::vector<std::pair<std::string, prov::Document>>& docs) {
  const auto locks = lock_all_exclusive();
  return apply_batch(docs);
}

template <typename Batch>
Expected<IngestStats> YProvService::apply_batch(Batch& docs) {
  // Serial prologue: validate every name and pre-intern the PROV
  // vocabulary so the parallel phase takes only shared interner locks.
  for (const auto& [name, doc] : docs) {
    if (!valid_document_name(name)) return Error{"invalid document name", name};
  }
  preintern_prov_vocabulary(graph_);

  // Group by home shard, keeping input order within each shard.
  std::vector<std::vector<std::size_t>> by_shard(shard_count());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    by_shard[shard_for(docs[i].first)].push_back(i);
  }

  // Map: one task per shard applies its documents in order. Distinct
  // shards touch disjoint graph tables and document maps, so the tasks
  // need no locking. Each task records what it applied (for rollback) and
  // stops its shard at the first failure, which apply_document has
  // already undone.
  struct Applied {
    std::size_t index;
    std::optional<prov::Document> previous;  ///< set when replacing
  };
  struct ShardOutcome {
    IngestStats stats;
    std::vector<Applied> applied;
    std::optional<Error> error;
    std::size_t error_index = 0;  ///< input index of the failed document
  };
  std::vector<ShardOutcome> outcomes(shard_count());
  fan_out(shard_count(), [&](std::size_t s) {
    ShardOutcome& outcome = outcomes[s];
    for (const std::size_t i : by_shard[s]) {
      Applied applied{i, std::nullopt};
      // std::move copies out of a const batch (put_documents) and moves
      // out of a mutable one (hydration).
      Expected<IngestStats> stats =
          apply_document(docs[i].first, std::move(docs[i].second), applied.previous);
      if (!stats.ok()) {
        outcome.error = stats.error();
        outcome.error_index = i;
        return;
      }
      accumulate(outcome.stats, stats.value());
      outcome.applied.push_back(std::move(applied));
    }
  });

  // Every applied document in input order. The WAL logs in this order, and
  // rollback walks it backwards, so a name put twice in one batch returns
  // to the version that preceded the batch.
  std::vector<Applied*> in_input_order;
  for (ShardOutcome& outcome : outcomes) {
    for (Applied& applied : outcome.applied) in_input_order.push_back(&applied);
  }
  std::sort(in_input_order.begin(), in_input_order.end(),
            [](const Applied* a, const Applied* b) { return a->index < b->index; });
  auto roll_back_from = [&](std::size_t k) {
    for (std::size_t j = in_input_order.size(); j-- > k;) {
      restore_document(docs[in_input_order[j]->index].first,
                       std::move(in_input_order[j]->previous));
    }
  };

  // Reduce: an ingest error anywhere rolls the whole batch back (nothing
  // was logged yet), keeping batch semantics all-or-nothing. The reported
  // error is the failed document with the lowest input index: every
  // document before it applied, so a serial apply stops at the same one
  // whatever the shard count.
  IngestStats total;
  const ShardOutcome* failed = nullptr;
  for (const ShardOutcome& outcome : outcomes) {
    if (outcome.error.has_value() &&
        (failed == nullptr || outcome.error_index < failed->error_index)) {
      failed = &outcome;
    }
    accumulate(total, outcome.stats);
  }
  if (failed != nullptr) {
    roll_back_from(0);
    return *failed->error;
  }

  // Log serially in input order so recovery replays the same sequence. A
  // WAL failure keeps the logged prefix applied (memory == log == what
  // recovery reproduces) and rolls back the unlogged suffix. Hydration
  // runs before wal_ is set, so its moved-from batch is never logged.
  if (wal_ != nullptr) {
    for (std::size_t k = 0; k < in_input_order.size(); ++k) {
      const auto& [name, doc] = docs[in_input_order[k]->index];
      Expected<wal::Lsn> lsn = wal_->append(
          {wal::Record::Type::kPutDocument, name,
           prov::to_prov_json_string(doc, /*pretty=*/false)});
      if (!lsn.ok()) {
        roll_back_from(k);
        if (k > 0) bump_version();  // the logged prefix stays applied
        return wal_error(lsn.error());
      }
    }
  }
  if (!docs.empty()) bump_version();
  return total;
}

std::vector<ShardStats> YProvService::shard_stats() const {
  const auto locks = lock_all_shared();
  std::vector<ShardStats> stats(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    stats[s].nodes = graph_.node_count_in_shard(s);
    stats[s].edges = graph_.edge_count_in_shard(s);
    stats[s].documents = documents_[s].size();
    stats[s].writer_acquisitions =
        stripes_[s]->writer_acquisitions.load(std::memory_order_relaxed);
  }
  return stats;
}

Response YProvService::handle(const Request& request) {
  // PUT/DELETE on a document route mutate only that document's home shard:
  // lock its stripe exclusively and nothing else. Everything other than
  // that — reads, and write methods on routes that can only 4xx — takes
  // every stripe shared, in ascending (canonical) order.
  if (request.method == "PUT" || request.method == "DELETE") {
    if (const std::optional<std::string> name = write_target(request.path)) {
      Stripe& stripe = *stripes_[shard_for(*name)];
      const std::unique_lock lock(stripe.mutex);
      stripe.writer_acquisitions.fetch_add(1, std::memory_order_relaxed);
      return route(request);
    }
  }
  const auto locks = lock_all_shared();
  return route(request);
}

Response YProvService::route(const Request& request) {
  // POST /api/v0/query — body is a MATCH query; the response lists rows
  // keyed by RETURN column name. Node columns render as the bound node's
  // prov_id, aggregate columns as their computed value.
  if (request.path == "/api/v0/query") {
    if (request.method != "POST") return method_not_allowed("POST");
    // A body that is a JSON object is the cursor envelope
    // {"query": ..., "page_size": N}; MATCH text can never start with '{',
    // so the two forms are unambiguous and the raw-text form stays
    // wire-compatible with pre-cursor clients.
    if (strings::starts_with(strings::trim(request.body), "{")) {
      return query_paged(request.body);
    }
    Expected<ResultSet> table = execute_query(graph_, request.body);
    if (!table.ok()) return error_response(400, table.error().to_string());
    json::Array rows_json;
    for (const std::vector<json::Value>& row : table.value().rows) {
      rows_json.push_back(row_object(graph_, table.value().columns, row));
    }
    json::Object body;
    body.set("rows", std::move(rows_json));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  // POST /api/v0/query/next — resumes a server-side cursor registered by a
  // paged /api/v0/query. Stateful: never cached, never 304'd.
  if (request.path == "/api/v0/query/next") {
    if (request.method != "POST") return method_not_allowed("POST");
    return query_next(request.body);
  }

  // POST /api/v0/explain — body is a MATCH query; the response is the
  // cost-based plan (anchor choice, orientation, and the estimates that
  // drove them) without executing anything.
  if (request.path == "/api/v0/explain") {
    if (request.method != "POST") return method_not_allowed("POST");
    Expected<Query> query = parse_query(request.body);
    if (!query.ok()) return error_response(400, query.error().to_string());
    const QueryPlan plan = explain_query(graph_, query.value());
    json::Object body;
    switch (plan.anchor) {
      case QueryPlan::Anchor::kScanAll: body.set("anchor", "scan_all"); break;
      case QueryPlan::Anchor::kLabel: body.set("anchor", "label"); break;
      case QueryPlan::Anchor::kProperty: body.set("anchor", "property"); break;
    }
    if (!plan.label.empty()) body.set("label", plan.label);
    if (!plan.property_key.empty()) body.set("property_key", plan.property_key);
    body.set("reversed", plan.reversed);
    body.set("estimated_candidates",
             static_cast<std::int64_t>(plan.estimated_candidates));
    body.set("estimated_rows", plan.estimated_rows);
    body.set("estimated_cost", plan.estimated_cost);
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  if (!strings::starts_with(request.path, kDocumentsPrefix)) {
    return error_response(404, "unknown route");
  }
  std::string rest = request.path.substr(kDocumentsPrefix.size());
  if (!rest.empty() && rest.front() == '/') rest.erase(0, 1);

  // GET /api/v0/documents — list.
  if (rest.empty()) {
    if (request.method != "GET") return method_not_allowed("GET");
    json::Array names;
    for (std::string& name : document_names_unlocked()) names.emplace_back(std::move(name));
    json::Object body;
    body.set("documents", std::move(names));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  const std::vector<std::string> parts = strings::split(rest, '/');
  const std::string& name = parts[0];

  if (parts.size() == 1) {
    if (request.method == "PUT") {
      Expected<json::Value> parsed = json::parse(request.body);
      if (!parsed.ok()) return error_response(400, parsed.error().to_string());
      Expected<prov::Document> doc = prov::from_prov_json(parsed.value());
      if (!doc.ok()) return error_response(400, doc.error().to_string());
      Status s = put_document_impl(name, doc.value());
      if (!s.ok()) {
        return error_response(is_wal_error(s.error()) ? 500 : 400,
                              s.error().to_string());
      }
      return Response{201, "{}", ""};
    }
    if (request.method == "GET") {
      const prov::Document* doc = get_document(name);
      if (doc == nullptr) return error_response(404, "document not found");
      return Response{200, prov::to_prov_json_string(*doc, /*pretty=*/false), ""};
    }
    if (request.method == "DELETE") {
      const Expected<bool> deleted = delete_document_impl(name);
      if (!deleted.ok()) return error_response(500, deleted.error().to_string());
      if (!deleted.value()) return error_response(404, "document not found");
      return Response{200, "{}", ""};
    }
    return method_not_allowed("GET, PUT, DELETE");
  }

  if (request.method != "GET") return method_not_allowed("GET");
  if (documents_[shard_for(name)].count(name) == 0) {
    return error_response(404, "document not found");
  }

  if (parts.size() == 2 && parts[1] == "stats") {
    json::Object body;
    body.set("document", name);
    body.set("nodes", graph_.count_with_property("Prov", "document", json::Value(name)));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  if (parts.size() >= 3 && parts[1] == "subgraph") {
    // GET /api/v0/documents/<name>/subgraph/<id> — ids of the 2-hop
    // neighbourhood (the Explorer's focus view).
    std::string element_id = parts[2];
    for (std::size_t i = 3; i < parts.size(); ++i) element_id += "/" + parts[i];
    const std::optional<NodeId> node_id = find_prov_node(graph_, name, element_id);
    if (!node_id) return error_response(404, "element not found");
    json::Array nodes;
    nodes.push_back(json::Value(element_id));
    for (const NodeId reached : graph_.reachable(*node_id, Direction::kBoth, 2)) {
      const json::Value* prov_id = graph_.node(reached)->properties.find("prov_id");
      if (prov_id != nullptr) nodes.push_back(*prov_id);
    }
    json::Object body;
    body.set("center", element_id);
    body.set("nodes", std::move(nodes));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  if (parts.size() >= 3 && parts[1] == "elements") {
    // Element ids may themselves contain '/' (e.g. "ex:param/lr"): re-join.
    std::string element_id = parts[2];
    for (std::size_t i = 3; i < parts.size(); ++i) element_id += "/" + parts[i];
    const std::optional<NodeId> node_id = find_prov_node(graph_, name, element_id);
    if (!node_id) return error_response(404, "element not found");
    const Node* n = graph_.node(*node_id);
    json::Object body;
    body.set("id", element_id);
    json::Array labels;
    for (const std::string& label : n->labels) labels.emplace_back(label);
    body.set("labels", std::move(labels));
    body.set("properties", n->properties);
    json::Array outgoing;
    for (const EdgeId eid : graph_.edges_of(*node_id, Direction::kOut)) {
      outgoing.push_back(edge_summary(graph_, *graph_.edge(eid), true));
    }
    json::Array incoming;
    for (const EdgeId eid : graph_.edges_of(*node_id, Direction::kIn)) {
      incoming.push_back(edge_summary(graph_, *graph_.edge(eid), false));
    }
    body.set("outgoing", std::move(outgoing));
    body.set("incoming", std::move(incoming));
    return Response{200, json::write(json::Value(std::move(body))), ""};
  }

  return error_response(404, "unknown route");
}

// ---------------------------------------------------------- cursor protocol

void YProvService::set_cursor_limits(std::size_t max_open, std::chrono::milliseconds ttl) {
  const std::lock_guard<std::mutex> guard(cursor_mutex_);
  cursor_capacity_ = max_open;
  cursor_ttl_ = ttl;
}

CursorStats YProvService::cursor_stats() {
  const std::lock_guard<std::mutex> guard(cursor_mutex_);
  reap_cursors_locked(std::chrono::steady_clock::now());
  return CursorStats{cursors_.size(), cursors_expired_};
}

void YProvService::reap_cursors_locked(std::chrono::steady_clock::time_point now) {
  // Drops both timed-out cursors and ones a write already invalidated
  // (version pin moved on) — neither can ever serve another page, so
  // `open` always counts exactly the resumable cursors.
  const std::uint64_t version = graph_version();
  for (auto it = cursors_.begin(); it != cursors_.end();) {
    if (it->second.expires_at <= now || it->second.version != version) {
      it = cursors_.erase(it);
      ++cursors_expired_;
    } else {
      ++it;
    }
  }
}

std::string YProvService::page_body(QueryCursor& cursor,
                                    const std::vector<ResultSet::Column>& columns,
                                    std::size_t page_size,
                                    const std::string& token) const {
  json::Array columns_json;
  for (const ResultSet::Column& column : columns) columns_json.emplace_back(column.name);
  json::Array rows_json;
  for (const std::vector<json::Value>& row : cursor.next(page_size)) {
    rows_json.push_back(row_object(graph_, columns, row));
  }
  json::Object body;
  body.set("columns", std::move(columns_json));
  body.set("rows", std::move(rows_json));
  body.set("done", cursor.done());
  if (!cursor.done()) body.set("cursor", token);
  return json::write(json::Value(std::move(body)));
}

Response YProvService::query_paged(const std::string& body) {
  Expected<json::Value> parsed = json::parse(body);
  if (!parsed.ok()) return error_response(400, parsed.error().to_string());
  const json::Value* query_text = parsed.value().find("query");
  if (query_text == nullptr || !query_text->is_string()) {
    return error_response(400, "envelope requires a string \"query\" field");
  }
  std::size_t page_size = std::numeric_limits<std::size_t>::max();
  if (const json::Value* n = parsed.value().find("page_size")) {
    if (!n->is_int() || n->as_int() < 1) {
      return error_response(400, "\"page_size\" must be a positive integer");
    }
    page_size = static_cast<std::size_t>(n->as_int());
  }
  Expected<QueryCursor> cursor = QueryCursor::open(graph_, query_text->as_string());
  if (!cursor.ok()) return error_response(400, cursor.error().to_string());

  std::vector<ResultSet::Column> columns = cursor.value().columns();
  std::string token;
  {
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    token = "c" + std::to_string(++next_cursor_id_);
  }
  std::string page = page_body(cursor.value(), columns, page_size, token);
  if (!cursor.value().done()) {
    // More rows remain: register the cursor under its token. The caller
    // holds every stripe shared, so the version we pin cannot move before
    // the response leaves route().
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    reap_cursors_locked(now);
    while (cursors_.size() >= cursor_capacity_ && !cursors_.empty()) {
      auto victim = cursors_.begin();
      for (auto it = cursors_.begin(); it != cursors_.end(); ++it) {
        if (it->second.lru_seq < victim->second.lru_seq) victim = it;
      }
      cursors_.erase(victim);
      ++cursors_expired_;
    }
    cursors_.emplace(token, OpenCursor{std::move(cursor.value()), std::move(columns),
                                       graph_version(), page_size,
                                       now + cursor_ttl_, ++cursor_seq_});
  }
  return Response{200, std::move(page), "", true};
}

Response YProvService::query_next(const std::string& body) {
  Expected<json::Value> parsed = json::parse(body);
  if (!parsed.ok()) return error_response(400, parsed.error().to_string());
  const json::Value* token_value = parsed.value().find("cursor");
  if (token_value == nullptr || !token_value->is_string()) {
    return error_response(400, "body requires a string \"cursor\" field");
  }
  const std::string& token = token_value->as_string();

  // Check the cursor out of the registry. The page itself runs under the
  // shared stripe locks route() already holds, so the graph (and its
  // version) are stable while next() walks it — the registry mutex only
  // guards the map, never spans the walk of another cursor.
  std::optional<OpenCursor> open;
  {
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    reap_cursors_locked(now);
    auto it = cursors_.find(token);
    if (it == cursors_.end()) {
      return error_response(410, "unknown or expired cursor");
    }
    if (it->second.version != graph_version()) {
      // A write landed since the cursor was opened: its pages would mix
      // two graph states (and the cursor's pointers walk rebuilt
      // storage). Invalidate instead of serving a torn result.
      cursors_.erase(it);
      ++cursors_expired_;
      return error_response(410, "cursor invalidated by a concurrent write");
    }
    open.emplace(std::move(it->second));
    cursors_.erase(it);
  }

  std::string page = page_body(open->cursor, open->columns, open->page_size, token);
  if (!open->cursor.done()) {
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> guard(cursor_mutex_);
    open->expires_at = now + cursor_ttl_;
    open->lru_seq = ++cursor_seq_;
    cursors_.emplace(token, std::move(*open));
  }
  return Response{200, std::move(page), "", true};
}

// --------------------------------------------------------------- durability

Status YProvService::attach_wal(const std::string& dir, wal::Options options) {
  const auto locks = lock_all_exclusive();
  if (wal_ != nullptr) return Error{"a WAL is already attached", wal_->dir()};
  if (document_count_unlocked() != 0) {
    return Error{"attach_wal requires an empty service (it hydrates from the store)",
                 dir};
  }
  if (pre_wal_layout(dir)) return Error{kPreWalLayout, dir};
  Expected<std::unique_ptr<wal::DurableStore>> store = wal::DurableStore::open(dir, options);
  if (!store.ok()) return store.error();
  Status hydrated = hydrate(std::move(store.value()->recovered().documents));
  if (!hydrated.ok()) return hydrated;
  wal_ = std::move(store.value());
  bump_version();
  return Status::ok_status();
}

Status YProvService::hydrate(std::map<std::string, std::string> bodies) {
  // Parse on every pool worker: slice s parses a contiguous index range
  // into pre-sized slots and frees each body once parsed, so the bodies
  // and their parsed documents are never both held in full.
  std::vector<std::map<std::string, std::string>::iterator> entries;
  entries.reserve(bodies.size());
  for (auto it = bodies.begin(); it != bodies.end(); ++it) entries.push_back(it);
  std::vector<std::pair<std::string, prov::Document>> docs(entries.size());
  const std::size_t slices = std::max<std::size_t>(
      1, std::min<std::size_t>(common::ThreadPool::shared().worker_count(), entries.size()));
  std::vector<std::optional<Error>> slice_error(slices);
  fan_out(slices, [&](std::size_t s) {
    const std::size_t end = (s + 1) * entries.size() / slices;
    for (std::size_t i = s * entries.size() / slices; i < end; ++i) {
      auto& [name, body] = *entries[i];
      Expected<json::Value> parsed = json::parse(body);
      std::string().swap(body);
      if (!parsed.ok()) {
        slice_error[s] = Error{
            "wal-recovered document does not parse: " + parsed.error().message, name};
        return;
      }
      Expected<prov::Document> doc = prov::from_prov_json(parsed.value());
      if (!doc.ok()) {
        slice_error[s] = Error{
            "wal-recovered document is not PROV-JSON: " + doc.error().message, name};
        return;
      }
      docs[i] = {name, std::move(doc.value())};
    }
  });
  // Slices cover ascending index ranges and each stops at its own first
  // failure, so the first failed slice holds the lowest failing index.
  for (std::optional<Error>& error : slice_error) {
    if (error.has_value()) return std::move(*error);
  }
  Expected<IngestStats> applied = apply_batch(docs);
  if (!applied.ok()) return applied.error();
  return Status::ok_status();
}

wal::Stats YProvService::wal_stats() const {
  const auto locks = lock_all_shared();
  return wal_ != nullptr ? wal_->stats() : wal::Stats{};
}

Status YProvService::wal_compact() {
  // compact() coordinates with appenders through the store's own locks;
  // taking the service locks here would only serialize it against reads.
  const auto locks = lock_all_shared();
  if (wal_ == nullptr) return Status::ok_status();
  return wal_->compact();
}

namespace {

/// Serializes the in-memory per-shard document maps the way the WAL logs
/// them, merged into one name-ordered map.
std::map<std::string, std::string> serialize_documents(
    const std::vector<std::map<std::string, prov::Document>>& documents) {
  std::map<std::string, std::string> bodies;
  for (const auto& shard_docs : documents) {
    for (const auto& [name, doc] : shard_docs) {
      bodies[name] = prov::to_prov_json_string(doc, /*pretty=*/false);
    }
  }
  return bodies;
}

}  // namespace

Status YProvService::save(const std::string& dir) const {
  const auto locks = lock_all_shared();
  if (wal_ != nullptr &&
      fs::weakly_canonical(wal_->dir()) == fs::weakly_canonical(dir)) {
    // The WAL already holds every acknowledged mutation; saving into the
    // same store just means folding the tail into a snapshot.
    return wal_->compact();
  }
  return wal::replace_store(dir, serialize_documents(documents_));
}

Expected<YProvService> YProvService::load(const std::string& dir) {
  if (pre_wal_layout(dir)) return Error{kPreWalLayout, dir};
  if (!wal::store_exists(dir)) return Error{"no WAL store", dir};
  Expected<wal::RecoveredState> recovered = wal::recover(dir);
  if (!recovered.ok()) return recovered.error();
  YProvService service;
  {
    const auto locks = service.lock_all_exclusive();
    Status hydrated = service.hydrate(std::move(recovered.value().documents));
    if (!hydrated.ok()) return hydrated.error();
  }
  return service;
}

bool YProvService::store_exists(const std::string& dir) { return wal::store_exists(dir); }

}  // namespace provml::graphstore
