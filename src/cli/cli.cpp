#include "provml/cli/cli.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <csignal>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "provml/common/strings.hpp"
#include "provml/compress/container.hpp"
#include "provml/analysis/forecast.hpp"
#include "provml/analysis/scaling_fit.hpp"
#include "provml/explorer/diff.hpp"
#include "provml/explorer/lineage.hpp"
#include "provml/explorer/stats.hpp"
#include "provml/explorer/subgraph.hpp"
#include "provml/explorer/timeline.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/json/parse.hpp"
#include "provml/json/write.hpp"
#include "provml/net/client.hpp"
#include "provml/net/server.hpp"
#include "provml/net/yprov_http.hpp"
#include "provml/prov/constraints.hpp"
#include "provml/prov/dot.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/prov/prov_n.hpp"
#include "provml/prov/prov_xml.hpp"
#include "provml/prov/turtle.hpp"
#include "provml/rocrate/crate.hpp"
#include "provml/wal/wal.hpp"

namespace provml::cli {
namespace {

/// One option a command declares: `--name value`, or a bare `--name` flag.
struct Option {
  std::string_view name;
  bool flag = false;
};

struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string, std::less<>> options;  ///< flags map to ""

  [[nodiscard]] const std::string* option(std::string_view name) const {
    const auto it = options.find(name);
    return it == options.end() ? nullptr : &it->second;
  }
};

/// Splits args into positionals and the command's declared options. An
/// undeclared option, or a valued one given no value, is an error naming it.
Expected<ParsedArgs> parse_args(const std::vector<std::string>& args,
                                const std::vector<Option>& declared) {
  ParsedArgs parsed;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i].size() <= 2 || args[i].compare(0, 2, "--") != 0) {
      parsed.positional.push_back(args[i]);
      continue;
    }
    const std::string key = args[i].substr(2);
    const auto option = std::find_if(declared.begin(), declared.end(),
                                     [&key](const Option& o) { return o.name == key; });
    if (option == declared.end()) return Error{"unknown option " + args[i], args[0]};
    if (option->flag) {
      parsed.options[key] = "";
    } else if (i + 1 < args.size()) {
      parsed.options[key] = args[++i];
    } else {
      return Error{"option " + args[i] + " needs a value", args[0]};
    }
  }
  return parsed;
}

/// The value of numeric option `--name`, or `fallback` when it is absent.
/// Every numeric option goes through here: anything but an integer in
/// [lo, hi] is an error naming the option and its range.
Expected<std::size_t> number_option(const ParsedArgs& args, std::string_view name,
                                    std::size_t fallback, std::int64_t lo,
                                    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  const std::string* text = args.option(name);
  if (text == nullptr) return fallback;
  const auto value = strings::to_int64(*text);
  if (value && *value >= lo && *value <= hi) return static_cast<std::size_t>(*value);
  const std::string range = hi == std::numeric_limits<std::int64_t>::max()
                                ? ">= " + std::to_string(lo)
                                : std::to_string(lo) + ".." + std::to_string(hi);
  return Error{"invalid value " + *text + " (expected " + range + ")",
               "--" + std::string(name)};
}

int fail(std::ostream& err, const std::string& message) {
  err << "error: " << message << "\n";
  return 1;
}

int cmd_validate(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "validate takes one file");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  const std::vector<std::string> problems = doc.value().validate();
  if (problems.empty()) {
    out << "valid: " << args.positional[0] << "\n";
    return 0;
  }
  for (const std::string& p : problems) out << "problem: " << p << "\n";
  return 2;
}

int cmd_convert(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "convert takes one file");
  const std::string* to = args.option("to");
  if (to == nullptr) return fail(err, "convert requires --to provn|dot");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  std::string rendered;
  if (*to == "provn") {
    rendered = prov::to_prov_n(doc.value());
  } else if (*to == "dot") {
    rendered = prov::to_dot(doc.value());
  } else if (*to == "ttl" || *to == "turtle") {
    rendered = prov::to_turtle(doc.value());
  } else if (*to == "xml") {
    rendered = prov::to_prov_xml(doc.value());
  } else {
    return fail(err, "unknown target format: " + *to);
  }
  if (const std::string* out_path = args.option("out")) {
    Status s = compress::write_file_bytes(
        *out_path, {reinterpret_cast<const std::uint8_t*>(rendered.data()), rendered.size()});
    if (!s.ok()) return fail(err, s.error().to_string());
    out << "wrote " << *out_path << "\n";
  } else {
    out << rendered;
  }
  return 0;
}

int cmd_diff(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "diff takes two files");
  auto left = prov::read_prov_json_file(args.positional[0]);
  if (!left.ok()) return fail(err, left.error().to_string());
  auto right = prov::read_prov_json_file(args.positional[1]);
  if (!right.ok()) return fail(err, right.error().to_string());
  const explorer::RunDiff diff = explorer::diff_runs(left.value(), right.value());
  out << explorer::to_string(diff);
  return diff.identical() ? 0 : 3;
}

int cmd_lineage(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "lineage takes a file and an element id");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  if (doc.value().find_element(args.positional[1]) == nullptr) {
    return fail(err, "element not found: " + args.positional[1]);
  }
  auto direction = explorer::LineageDirection::kUpstream;
  if (const std::string* dir = args.option("direction")) {
    if (*dir == "down") direction = explorer::LineageDirection::kDownstream;
    else if (*dir != "up") return fail(err, "direction must be up or down");
  }
  const auto depth = number_option(args, "depth", 0, 0);
  if (!depth.ok()) return fail(err, depth.error().to_string());
  for (const explorer::LineageHop& hop :
       explorer::lineage(doc.value(), args.positional[1], direction, depth.value())) {
    out << std::string(hop.depth * 2, ' ') << hop.id << "  (via " << hop.via << ")\n";
  }
  return 0;
}

int cmd_pack(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "pack takes input and output paths");
  const std::string* codec_opt = args.option("codec");
  const std::string codec = codec_opt != nullptr ? *codec_opt : "lzss";
  Status s = compress::pack_file(args.positional[0], args.positional[1], codec);
  if (!s.ok()) return fail(err, s.error().to_string());
  out << "packed " << args.positional[0] << " -> " << args.positional[1] << " (" << codec
      << ")\n";
  return 0;
}

int cmd_unpack(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) return fail(err, "unpack takes input and output paths");
  auto data = compress::unpack_file(args.positional[0]);
  if (!data.ok()) return fail(err, data.error().to_string());
  Status s = compress::write_file_bytes(args.positional[1], data.value());
  if (!s.ok()) return fail(err, s.error().to_string());
  out << "unpacked " << args.positional[0] << " -> " << args.positional[1] << "\n";
  return 0;
}



int cmd_timeline(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "timeline takes one file");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  auto timeline = explorer::build_timeline(doc.value());
  if (!timeline.ok()) return fail(err, timeline.error().to_string());
  out << explorer::to_string(timeline.value());
  return 0;
}


int cmd_subgraph(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 2) {
    return fail(err, "subgraph takes a file and an element id");
  }
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  explorer::SubgraphOptions options;
  const auto hops = number_option(args, "hops", options.max_hops, 0);
  if (!hops.ok()) return fail(err, hops.error().to_string());
  options.max_hops = hops.value();
  auto sub = explorer::extract_subgraph(doc.value(), args.positional[1], options);
  if (!sub.ok()) return fail(err, sub.error().to_string());
  if (const std::string* out_path = args.option("out")) {
    Status s = prov::write_prov_json_file(*out_path, sub.value());
    if (!s.ok()) return fail(err, s.error().to_string());
    out << "wrote " << *out_path << "\n";
  } else {
    out << prov::to_prov_json_string(sub.value()) << "\n";
  }
  return 0;
}

int cmd_constraints(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "constraints takes one file");
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  const auto violations = prov::check_constraints(doc.value());
  if (violations.empty()) {
    out << "no constraint violations: " << args.positional[0] << "\n";
    return 0;
  }
  out << prov::to_string(violations);
  return 2;
}

/// Shared: harvest every document of a store into a RunDatabase.
Expected<analysis::RunDatabase> load_run_database(const std::string& store_dir) {
  auto service = graphstore::YProvService::load(store_dir);
  if (!service.ok()) return service.error();
  analysis::RunDatabase db;
  for (const std::string& name : service.value().list_documents()) {
    const prov::Document* doc = service.value().get_document(name);
    if (doc == nullptr) continue;
    // Skip documents that are not run documents rather than failing.
    (void)db.add_document(*doc);
  }
  return db;
}

int cmd_fit(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "fit takes a store dir");
  auto db = load_run_database(args.positional[0]);
  if (!db.ok()) return fail(err, db.error().to_string());
  std::vector<analysis::ScalingPoint> points;
  for (const analysis::RunRecord& record : db.value().records()) {
    const auto n = record.features.find("parameters");
    const auto d = record.features.find("samples_seen");
    const auto loss = record.outputs.find("final_loss");
    if (n == record.features.end() || d == record.features.end() ||
        loss == record.outputs.end()) {
      continue;
    }
    points.push_back({n->second, d->second, loss->second});
  }
  auto law = analysis::fit_scaling_law(points);
  if (!law.ok()) return fail(err, law.error().to_string());
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "L(N, D) = %.4f + %.4g * N^-%.3f + %.4g * D^-%.3f   (rmse %.4g, %zu runs)\n",
                law.value().e, law.value().a, law.value().alpha, law.value().b,
                law.value().beta, law.value().rmse, points.size());
  out << buf;
  return 0;
}

int cmd_predict(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() < 2) {
    return fail(err, "predict takes a store dir, an output name, and key=value features");
  }
  auto db = load_run_database(args.positional[0]);
  if (!db.ok()) return fail(err, db.error().to_string());
  std::map<std::string, double> query;
  for (std::size_t i = 2; i < args.positional.size(); ++i) {
    const std::size_t eq = args.positional[i].find('=');
    if (eq == std::string::npos) {
      return fail(err, "expected key=value, got: " + args.positional[i]);
    }
    const auto value = strings::to_double(args.positional[i].substr(eq + 1));
    if (!value) return fail(err, "non-numeric feature value in " + args.positional[i]);
    query[args.positional[i].substr(0, eq)] = *value;
  }
  const auto k = number_option(args, "k", 3, 1);
  if (!k.ok()) return fail(err, k.error().to_string());
  auto prediction = db.value().predict(query, args.positional[1], k.value());
  if (!prediction.ok()) return fail(err, prediction.error().to_string());
  out << args.positional[1] << " = " << prediction.value().value
      << "  (confidence " << prediction.value().confidence << ", neighbors:";
  for (const std::string& n : prediction.value().neighbors_used) out << " " << n;
  out << ")\n";
  return 0;
}

int cmd_report(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "report takes a store dir");
  auto db = load_run_database(args.positional[0]);
  if (!db.ok()) return fail(err, db.error().to_string());
  if (db.value().records().empty()) {
    out << "store contains no run documents\n";
    return 0;
  }
  // Column set = union of outputs across runs.
  std::set<std::string> columns;
  for (const analysis::RunRecord& record : db.value().records()) {
    for (const auto& [name, value] : record.outputs) columns.insert(name);
  }
  out << "run";
  for (const std::string& column : columns) out << "\t" << column;
  out << "\n";
  for (const analysis::RunRecord& record : db.value().records()) {
    out << record.run_name;
    for (const std::string& column : columns) {
      const auto it = record.outputs.find(column);
      out << "\t";
      if (it != record.outputs.end()) out << it->second;
      else out << "-";
    }
    out << "\n";
  }
  return 0;
}

int cmd_crate(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "crate takes a directory");
  rocrate::CrateBuilder builder(args.positional[0]);
  if (const std::string* name = args.option("name")) builder.set_name(*name);
  Status s = builder.add_all();
  if (!s.ok()) return fail(err, s.error().to_string());
  s = builder.write();
  if (!s.ok()) return fail(err, s.error().to_string());
  out << "crate written: " << args.positional[0] << "/ro-crate-metadata.json ("
      << builder.entries().size() << " entries)\n";
  return 0;
}

// ----------------------------------------------------------------- store
// Store commands speak the yProv REST routes whether they run against a
// store dir or against `yprov serve` at --url: each builds (method,
// target, body) requests for one net::Exchange, and prints the replies
// with one row renderer and one error path. Locally the exchange is an
// in-process YProvHttpApp over the store, so both modes share the
// service's router and print the same output.

/// Where a store command's requests go, and the local app (null under
/// --url) whose WAL an ingest compacts when it is done.
struct Endpoint {
  std::string location;  ///< the store dir or the URL
  net::Exchange exchange;
  std::shared_ptr<net::YProvHttpApp> app;
};

/// The operands of a store command: its positionals after the store dir,
/// whose place --url takes.
std::vector<std::string> store_operands(const ParsedArgs& args) {
  const bool skip = args.option("url") == nullptr && !args.positional.empty();
  return {args.positional.begin() + (skip ? 1 : 0), args.positional.end()};
}

/// Opens the service at --url, or else the store dir that leads the
/// positionals: attached to its WAL (created if missing) when `writable`,
/// otherwise loaded read-only.
Expected<Endpoint> open_endpoint(const ParsedArgs& args, bool writable) {
  Endpoint endpoint;
  if (const std::string* url = args.option("url")) {
    auto parsed = net::parse_url(*url);
    if (!parsed.ok()) return parsed.error();
    auto client = std::make_shared<net::HttpClient>(parsed.value().host, parsed.value().port);
    endpoint.location = *url;
    endpoint.exchange = [client, base = parsed.value().base_path](
                            const std::string& method, const std::string& target,
                            const std::string& body) {
      return client->request(method, base + target, body);
    };
    return endpoint;
  }
  if (args.positional.empty()) return Error{"expected a store dir or --url", ""};
  endpoint.location = args.positional.front();
  graphstore::YProvService service;
  if (writable) {
    // Every PUT is in the WAL before its reply, so a crash mid-batch keeps
    // the acknowledged prefix.
    Status attached = service.attach_wal(endpoint.location);
    if (!attached.ok()) return attached.error();
  } else {
    auto loaded = graphstore::YProvService::load(endpoint.location);
    if (!loaded.ok()) return loaded.error();
    service = std::move(loaded.value());
  }
  endpoint.app = std::make_shared<net::YProvHttpApp>(std::move(service));
  endpoint.exchange = [app = endpoint.app](const std::string& method,
                                           const std::string& target,
                                           const std::string& body)
      -> Expected<net::HttpResponse> {
    net::HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    return app->handle(request);
  };
  return endpoint;
}

/// Sends one request and returns the reply when its status is `ok`;
/// otherwise prints the one store-command error line (the transport
/// failure, or the status and the service's message) and returns nullopt.
std::optional<net::HttpResponse> send(const Endpoint& endpoint, const std::string& method,
                                      const std::string& target, const std::string& body,
                                      int ok, std::ostream& err) {
  Expected<net::HttpResponse> reply = endpoint.exchange(method, target, body);
  if (!reply.ok()) {
    fail(err, reply.error().to_string());
    return std::nullopt;
  }
  if (reply.value().status != ok) {
    // The same shape as a refused QueryPager page: "<method> <target>: HTTP
    // <status> <service's message>".
    fail(err, method + " " + target + ": HTTP " + std::to_string(reply.value().status) +
                  " " + reply.value().body);
    return std::nullopt;
  }
  return std::move(reply.value());
}

/// Prints a JSON object's fields as `key=value` joined by `separator`:
/// bare strings unquoted, everything else as JSON. Query rows (cells keyed
/// by column) and explained plans both print this way.
void print_fields(const json::Value& object, const char* separator, std::ostream& out) {
  if (!object.is_object()) return;
  bool first = true;
  for (const auto& [key, value] : object.as_object()) {
    if (!first) out << separator;
    first = false;
    out << key << "=" << (value.is_string() ? value.as_string() : json::write(value));
  }
  out << "\n";
}

/// A document name must travel as one plain path segment, or the request
/// would address a different document (or none) than the one named.
bool addressable_name(const std::string& name) {
  return !name.empty() && std::none_of(name.begin(), name.end(), [](char c) {
    const auto u = static_cast<unsigned char>(c);
    return u < 0x20 || u == 0x7f || std::isspace(u) != 0 ||
           std::string_view("/?#%").find(c) != std::string_view::npos;
  });
}

int cmd_ingest(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  const std::vector<std::string> pairs = store_operands(args);
  if (pairs.empty()) return fail(err, "ingest takes a store dir (or --url) and name=file pairs");
  for (const std::string& pair : pairs) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) return fail(err, "expected name=file, got: " + pair);
    if (!addressable_name(pair.substr(0, eq))) {
      return fail(err, "invalid document name: " + pair.substr(0, eq));
    }
  }
  auto endpoint = open_endpoint(args, /*writable=*/true);
  if (!endpoint.ok()) return fail(err, endpoint.error().to_string());
  for (const std::string& pair : pairs) {
    const std::string name = pair.substr(0, pair.find('='));
    auto doc = prov::read_prov_json_file(pair.substr(name.size() + 1));
    if (!doc.ok()) return fail(err, doc.error().to_string());
    if (!send(endpoint.value(), "PUT", "/api/v0/documents/" + name,
              prov::to_prov_json_string(doc.value(), /*pretty=*/false), 201, err)) {
      return 1;
    }
    out << "ingested " << name << " -> " << endpoint.value().location << "\n";
  }
  if (endpoint.value().app == nullptr) return 0;
  Status s = endpoint.value().app->service().wal_compact();  // fold the tail into a snapshot
  return s.ok() ? 0 : fail(err, s.error().to_string());
}

int cmd_list(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (!store_operands(args).empty()) return fail(err, "list takes a store dir (or --url)");
  auto endpoint = open_endpoint(args, /*writable=*/false);
  if (!endpoint.ok()) return fail(err, endpoint.error().to_string());
  const auto reply = send(endpoint.value(), "GET", "/api/v0/documents", "", 200, err);
  if (!reply) return 1;
  auto body = json::parse(reply->body);
  if (!body.ok()) return fail(err, body.error().to_string());
  const json::Value* names = body.value().find("documents");
  if (names == nullptr || !names->is_array()) return fail(err, "malformed document list");
  for (const json::Value& name : names->as_array()) {
    out << (name.is_string() ? name.as_string() : json::write(name)) << "\n";
  }
  return 0;
}

/// GETs `/api/v0/documents/<name><route>` and prints the reply's body;
/// a refusal exits with `refused`.
int print_document_route(const ParsedArgs& args, const std::string& name,
                         const std::string& route, int refused, std::ostream& out,
                         std::ostream& err) {
  if (!addressable_name(name)) return fail(err, "invalid document name: " + name);
  auto endpoint = open_endpoint(args, /*writable=*/false);
  if (!endpoint.ok()) return fail(err, endpoint.error().to_string());
  const auto reply =
      send(endpoint.value(), "GET", "/api/v0/documents/" + name + route, "", 200, err);
  if (!reply) return refused;
  out << reply->body << "\n";
  return 0;
}

int cmd_get(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  const std::vector<std::string> operands = store_operands(args);
  if (operands.size() != 1) return fail(err, "get takes a store dir (or --url) and a name");
  const std::string* element = args.option("element");
  return print_document_route(args, operands[0],
                              element != nullptr ? "/elements/" + *element : "",
                              /*refused=*/4, out, err);
}

/// `stats <file>` counts a PROV-JSON file's elements; `stats --url <svc>
/// <name>` asks the service about a stored document.
int cmd_stats(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (args.positional.size() != 1) return fail(err, "stats takes one file (or --url and a name)");
  if (args.option("url") != nullptr) {
    return print_document_route(args, args.positional[0], "/stats", /*refused=*/1, out, err);
  }
  auto doc = prov::read_prov_json_file(args.positional[0]);
  if (!doc.ok()) return fail(err, doc.error().to_string());
  out << explorer::to_string(explorer::document_stats(doc.value()));
  return 0;
}

int cmd_query(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  const std::vector<std::string> operands = store_operands(args);
  if (operands.size() != 1) {
    return fail(err, "query takes a store dir (or --url) and a MATCH query");
  }
  const auto page_size = number_option(args, "page-size", 0, 1);
  if (!page_size.ok()) return fail(err, page_size.error().to_string());
  auto endpoint = open_endpoint(args, /*writable=*/false);
  if (!endpoint.ok()) return fail(err, endpoint.error().to_string());
  if (args.option("explain") != nullptr) {
    const auto reply = send(endpoint.value(), "POST", "/api/v0/explain", operands[0], 200, err);
    if (!reply) return 1;
    auto plan = json::parse(reply->body);
    if (!plan.ok()) return fail(err, plan.error().to_string());
    print_fields(plan.value(), " ", out);
    return 0;
  }
  // Rows print as each page arrives; without --page-size the whole result
  // is one page. A 410 means a write invalidated the cursor mid-iteration.
  net::QueryPager pager(endpoint.value().exchange, operands[0], page_size.value());
  std::size_t total = 0;
  while (!pager.done()) {
    auto page = pager.next_page();
    if (!page.ok()) return fail(err, page.error().to_string());
    const json::Value* rows = page.value().find("rows");
    if (rows == nullptr || !rows->is_array()) return fail(err, "malformed query page");
    for (const json::Value& row : rows->as_array()) print_fields(row, "  ", out);
    total += rows->as_array().size();
  }
  out << total << " row(s)\n";
  return 0;
}

// ----------------------------------------------------------------- serve

std::atomic<net::HttpServer*> g_serving{nullptr};

void serve_signal_handler(int) {
  net::HttpServer* server = g_serving.load();
  if (server != nullptr) server->request_stop();  // async-signal-safe
}

int cmd_serve(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  if (!args.positional.empty()) return fail(err, "serve takes only options");
  net::ServerConfig config;
  net::YProvHttpApp::Options app_options;
  wal::Options wal_options;
  const auto port = number_option(args, "port", config.port, 0, 65535);
  const auto threads = number_option(args, "threads", config.threads, 1, 256);
  const auto max_connections =
      number_option(args, "max-connections", config.max_connections, 1);
  const auto cache = number_option(args, "cache", app_options.cache_capacity, 0, 1000000);
  // Graph shard count: stripes the service's lock so writers to different
  // documents stop contending. Rounded up to a power of two.
  const auto shards = number_option(args, "shards", 1, 1, 256);
  const auto segment_bytes =
      number_option(args, "wal-segment-bytes", wal_options.segment_bytes, 1024);
  for (const Expected<std::size_t>* n :
       {&port, &threads, &max_connections, &cache, &shards, &segment_bytes}) {
    if (!n->ok()) return fail(err, n->error().to_string());
  }
  config.port = static_cast<std::uint16_t>(port.value());
  config.threads = static_cast<unsigned>(threads.value());
  config.max_connections = max_connections.value();
  app_options.cache_capacity = cache.value();
  wal_options.segment_bytes = segment_bytes.value();

  // Durability: with --data-dir every acknowledged PUT/DELETE is in the
  // WAL before the response leaves.
  const std::string* data_dir = args.option("data-dir");
  if (const std::string* fsync_mode = args.option("fsync")) {
    const auto policy = wal::parse_fsync_policy(*fsync_mode);
    if (!policy.ok()) return fail(err, "invalid --fsync (every_write|interval|none)");
    wal_options.fsync_policy = policy.value();
  }
  if (data_dir == nullptr &&
      (args.option("fsync") != nullptr || args.option("wal-segment-bytes") != nullptr)) {
    return fail(err, "--fsync/--wal-segment-bytes require --data-dir");
  }

  net::YProvHttpApp app(graphstore::YProvService(shards.value()), app_options);
  if (data_dir != nullptr) {
    Status attached = app.service().attach_wal(*data_dir, wal_options);
    if (!attached.ok()) return fail(err, attached.error().to_string());
    out << "loaded " << app.service().document_count() << " document(s) from "
        << *data_dir << " (wal lsn " << app.service().wal_stats().last_lsn << ")\n";
  }

  net::HttpServer server(config,
                         [&app](const net::HttpRequest& r) { return app.handle(r); });
  // Workers log concurrently; serialize writes to the shared stream.
  auto log_mutex = std::make_shared<std::mutex>();
  server.set_access_logger([&out, log_mutex](const std::string& line) {
    const std::lock_guard<std::mutex> lock(*log_mutex);
    out << line << "\n";
  });
  // /api/v0/health reports the event loop's gauges alongside app counters.
  app.set_server_stats_provider([&server] { return server.stats(); });
  Status started = server.start();
  if (!started.ok()) return fail(err, started.error().to_string());
  out << "yprov service listening on http://" << config.host << ":" << server.port()
      << " (epoll event loop, " << config.threads << " worker thread(s), "
      << app.service().shard_count() << " graph shard(s), ";
  if (config.max_connections > 0) {
    out << "max " << config.max_connections << " connection(s), ";
  }
  out << "Ctrl-C to stop)\n";

  g_serving.store(&server);
  const auto previous_int = std::signal(SIGINT, serve_signal_handler);
  const auto previous_term = std::signal(SIGTERM, serve_signal_handler);
  server.wait();
  (void)std::signal(SIGINT, previous_int);
  (void)std::signal(SIGTERM, previous_term);
  g_serving.store(nullptr);

  if (data_dir != nullptr) {
    // Everything acknowledged is already in the log; compaction just folds
    // the tail into a snapshot so the next start replays less.
    Status compacted = app.service().wal_compact();
    if (!compacted.ok()) return fail(err, compacted.error().to_string());
    out << "store compacted at " << *data_dir << " (wal lsn "
        << app.service().wal_stats().last_lsn << ")\n";
  }
  const net::ServerStats stats = server.stats();
  out << "server stopped after " << stats.requests_handled << " request(s)\n";
  return 0;
}

/// One `yprov` command: its handler and the options it declares.
struct Command {
  std::string_view name;
  int (*run)(const ParsedArgs&, std::ostream&, std::ostream&);
  std::vector<Option> options;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table{
      {"validate", cmd_validate, {}},
      {"stats", cmd_stats, {{"url"}}},
      {"convert", cmd_convert, {{"to"}, {"out"}}},
      {"constraints", cmd_constraints, {}},
      {"timeline", cmd_timeline, {}},
      {"subgraph", cmd_subgraph, {{"hops"}, {"out"}}},
      {"diff", cmd_diff, {}},
      {"lineage", cmd_lineage, {{"direction"}, {"depth"}}},
      {"ingest", cmd_ingest, {{"url"}}},
      {"list", cmd_list, {{"url"}}},
      {"get", cmd_get, {{"url"}, {"element"}}},
      {"query", cmd_query, {{"url"}, {"page-size"}, {"explain", /*flag=*/true}}},
      {"serve", cmd_serve,
       {{"port"}, {"threads"}, {"shards"}, {"data-dir"}, {"cache"}, {"max-connections"},
        {"fsync"}, {"wal-segment-bytes"}}},
      {"fit", cmd_fit, {}},
      {"predict", cmd_predict, {{"k"}}},
      {"report", cmd_report, {}},
      {"crate", cmd_crate, {{"name"}}},
      {"pack", cmd_pack, {{"codec"}}},
      {"unpack", cmd_unpack, {}},
  };
  return table;
}

}  // namespace

std::string usage() {
  return "usage: yprov <command> [args]\n"
         "commands:\n"
         "  validate <file>                     check a PROV-JSON document\n"
         "  stats <file>                        element/relation counts\n"
         "  stats --url <svc> <name>            node count of a served document\n"
         "  convert <file> --to provn|dot|ttl|xml re-serialize a document\n"
         "  constraints <file>                  PROV-CONSTRAINTS checks\n"
         "  timeline <file>                     Gantt view of run activities\n"
         "  subgraph <file> <id> [--hops N] [--out <path>]\n"
         "  diff <a> <b>                        compare two run documents\n"
         "  lineage <file> <id> [--direction up|down] [--depth N]\n"
         "store commands (<store> is a store dir, or --url <svc> for a running\n"
         "`yprov serve`; both send the same requests and print the same output):\n"
         "  ingest <store> <name=file>...       add documents\n"
         "  list <store>                        list stored documents\n"
         "  get <store> <name> [--element <id>] fetch a document or one element\n"
         "  query <store> '<MATCH ...>' [--explain] [--page-size N]\n"
         "                                      pattern query over the graph\n"
         "                                      (aggregates, *1..n paths,\n"
         "                                      ORDER BY/SKIP/LIMIT);\n"
         "                                      --explain prints the plan;\n"
         "                                      --page-size pulls rows N at a\n"
         "                                      time through a server cursor\n"
         "  serve [--port N] [--threads K] [--shards N] [--data-dir DIR] [--cache N]\n"
         "        [--max-connections N] [--fsync every_write|interval|none]\n"
         "        [--wal-segment-bytes N]\n"
         "                                      run the yProv HTTP service;\n"
         "                                      --data-dir persists writes via a WAL\n"
         "  fit <store>                         fit the scaling law to stored runs\n"
         "  predict <store> <output> k=v... [--k N]\n"
         "                                      k-NN forecast from stored runs\n"
         "  report <store>                      tabulate run outputs\n"
         "  crate <dir> [--name <n>]            wrap a directory as an RO-Crate\n"
         "  pack <in> <out> [--codec lzss]      compress a file\n"
         "  unpack <in> <out>                   decompress a container\n"
         "A misspelled or undeclared option is an error.\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? 1 : 0;
  }
  for (const Command& command : commands()) {
    if (command.name != args[0]) continue;
    const Expected<ParsedArgs> parsed = parse_args(args, command.options);
    if (!parsed.ok()) return fail(err, parsed.error().to_string());
    return command.run(parsed.value(), out, err);
  }
  err << "unknown command: " << args[0] << "\n" << usage();
  return 1;
}

}  // namespace provml::cli
