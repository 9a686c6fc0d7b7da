#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "provml/json/parse.hpp"
#include "provml/json/value.hpp"
#include "provml/json/write.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/testkit/gen.hpp"

namespace perfbench {

using provml::testkit::Rng;
namespace prov = provml::prov;
namespace json = provml::json;

namespace {

// Salts keep the input families independent: resizing one (say, more
// documents) does not reshuffle another (the op streams).
constexpr std::uint64_t kCorpusSalt = 0x636f72707573ull;
constexpr std::uint64_t kReadSalt = 0x7265616473ull;
constexpr std::uint64_t kIngestSalt = 0x696e67657374ull;
constexpr std::uint64_t kStreamSalt = 0x73747265616dull;
constexpr std::uint64_t kMetricSalt = 0x6d6574726963ull;

/// A long training lineage: ckpt_i generated by train_i, which used
/// ckpt_{i-1}; every checkpoint attributed to one agent.
prov::Document lineage_document(Rng& rng) {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  const std::size_t pairs = 128 + rng.below(33);
  doc.add_agent("ex:trainer");
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::string n = std::to_string(i);
    doc.add_entity("ex:ckpt" + n);
    doc.add_activity("ex:train" + n);
    doc.was_generated_by("ex:ckpt" + n, "ex:train" + n);
    doc.was_attributed_to("ex:ckpt" + n, "ex:trainer");
    if (i > 0) doc.used("ex:train" + n, "ex:ckpt" + std::to_string(i - 1));
  }
  return doc;
}

std::string envelope(const std::string& query, std::int64_t page_size) {
  json::Object body;
  body.set("query", query);
  body.set("page_size", page_size);
  return json::write(json::Value(std::move(body)));
}

std::string doc_query(Rng& rng, const std::string& name) {
  const std::string scope = "{document: \"" + name + "\"}";
  switch (rng.below(4)) {
    case 0: return "MATCH (e:Entity " + scope + ")-[:wasGeneratedBy]->(a) RETURN e, a";
    case 1: return "MATCH (a:Activity " + scope + ")-[:used]->(e) RETURN a, count(e)";
    case 2: return "MATCH (n:Prov " + scope + ")-[*1..2]->(m) RETURN n, m";
    default: return "MATCH (n:Prov " + scope + ") RETURN n ORDER BY n.prov_id LIMIT 5";
  }
}

std::string global_query(Rng& rng) {
  static const char* const kPatterns[] = {
      "MATCH (a:Activity)-[:used]->(e:Entity) RETURN a, count(e)",
      "MATCH (e:Entity)-[:wasGeneratedBy]->(a:Activity) RETURN a, count(e)",
      "MATCH (e:Entity)-[:wasAttributedTo]->(g:Agent) RETURN g, count(e)",
  };
  static const int kLimits[] = {5, 10, 20};
  return std::string(kPatterns[rng.below(3)]) + " ORDER BY count(e) DESC LIMIT " +
         std::to_string(kLimits[rng.below(3)]);
}

}  // namespace

const char* route_name(Route route) {
  switch (route) {
    case Route::kGetDoc: return "get_doc";
    case Route::kStats: return "stats";
    case Route::kElement: return "element";
    case Route::kSubgraph: return "subgraph";
    case Route::kList: return "list";
    case Route::kQuery: return "query";
    case Route::kGlobalQuery: return "global_query";
    case Route::kExplain: return "explain";
    case Route::kPage: return "query_page";
    case Route::kPageNext: return "query_next";
    case Route::kPut: return "put";
    case Route::kDelete: return "delete";
  }
  return "?";
}

Corpus make_corpus(std::uint64_t seed, std::size_t count, std::size_t large) {
  Rng rng(seed ^ kCorpusSalt);
  std::vector<bool> is_large(count, false);
  for (std::size_t placed = 0; placed < std::min(large, count);) {
    const std::size_t at = rng.below(count);
    if (!is_large[at]) {
      is_large[at] = true;
      ++placed;
    }
  }
  Corpus corpus;
  corpus.docs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng doc_rng = rng.fork();
    char name[32];
    std::snprintf(name, sizeof name, "doc-%04zu-", i);
    corpus.docs.emplace_back(std::string(name) + provml::testkit::gen_ident(doc_rng, 6),
                             is_large[i] ? lineage_document(doc_rng)
                                         : provml::testkit::gen_prov_document(doc_rng));
  }
  return corpus;
}

ReadTable make_read_table(std::uint64_t seed, const Corpus& corpus, std::size_t size,
                          bool paging) {
  Rng rng(seed ^ kReadSalt);
  // Route weights (per mille) of the Explorer read mix.
  struct Weight {
    Route route;
    std::uint64_t weight;
  };
  const Weight weights[] = {
      {Route::kGetDoc, 250},   {Route::kStats, 100},       {Route::kElement, 150},
      {Route::kSubgraph, 100}, {Route::kList, 30},         {Route::kQuery, 150},
      {Route::kGlobalQuery, 20}, {Route::kExplain, 100},   {Route::kPage, paging ? 100u : 0u},
  };
  std::uint64_t total = 0;
  for (const Weight& w : weights) total += w.weight;

  ReadTable table;
  const std::string docs = "/api/v0/documents";
  for (const Weight& w : weights) {
    if (w.weight == 0) continue;
    // The list route has one key however many are asked for.
    const std::size_t keys = w.route == Route::kList
                                 ? 1
                                 : std::max<std::size_t>(1, size * w.weight / total);
    const std::size_t begin = table.requests.size();
    for (std::size_t k = 0; k < keys; ++k) {
      ReadRequest r;
      r.route = w.route;
      const auto& [name, doc] = corpus.docs[rng.below(corpus.docs.size())];
      const auto& elements = doc.elements();
      const std::string& element =
          elements[rng.below(std::min<std::size_t>(2, elements.size()))].id;
      r.method = "GET";
      switch (w.route) {
        case Route::kGetDoc: r.target = docs + "/" + name; break;
        case Route::kStats: r.target = docs + "/" + name + "/stats"; break;
        case Route::kElement: r.target = docs + "/" + name + "/elements/" + element; break;
        case Route::kSubgraph: r.target = docs + "/" + name + "/subgraph/" + element; break;
        case Route::kList: r.target = docs; break;
        case Route::kQuery:
          r.method = "POST";
          r.target = "/api/v0/query";
          r.body = doc_query(rng, name);
          break;
        case Route::kGlobalQuery:
          r.method = "POST";
          r.target = "/api/v0/query";
          r.body = global_query(rng);
          break;
        case Route::kExplain:
          r.method = "POST";
          r.target = "/api/v0/explain";
          r.body = doc_query(rng, name);
          break;
        case Route::kPage:
          r.method = "POST";
          r.target = "/api/v0/query";
          r.body = envelope(
              "MATCH (n:Prov {document: \"" + name + "\"})-[*1..2]-(m) RETURN n, m",
              static_cast<std::int64_t>(4 + rng.below(5)));
          break;
        default: break;
      }
      table.requests.push_back(std::move(r));
    }
    table.segments.emplace_back(begin, table.requests.size());
    table.weights.push_back(w.weight);
  }
  return table;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

IngestInputs make_ingest_inputs(std::uint64_t seed, std::size_t names, std::size_t bodies) {
  Rng rng(seed ^ kIngestSalt);
  IngestInputs in;
  for (std::size_t i = 0; i < names; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "job-%03zu-", i);
    in.names.push_back(std::string(name) + provml::testkit::gen_ident(rng, 6));
  }
  provml::testkit::ProvGenOptions opts;
  opts.with_bundles = false;
  for (std::size_t i = 0; i < bodies; ++i) {
    const prov::Document doc = provml::testkit::gen_prov_document(rng, opts);
    in.bodies.push_back(prov::to_prov_json_string(doc, /*pretty=*/false));
    const auto parsed = json::parse(in.bodies.back());
    const auto reparsed = prov::from_prov_json(parsed.value());
    in.expected.push_back(prov::to_prov_json_string(reparsed.value(), /*pretty=*/false));
  }
  return in;
}

std::vector<std::vector<Op>> make_op_streams(std::uint64_t seed, std::size_t senders,
                                             std::size_t ops_per_sender, const ReadTable& reads,
                                             double zipf_s, const OpMix& mix) {
  std::vector<Zipf> zipf;
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < reads.segments.size(); ++k) {
    zipf.emplace_back(reads.segments[k].second - reads.segments[k].first, zipf_s);
    total += reads.weights[k];
  }
  std::vector<std::vector<Op>> streams(senders);
  for (std::size_t s = 0; s < senders; ++s) {
    Rng rng((seed ^ kStreamSalt) + 0x9e3779b97f4a7c15ull * (s + 1));
    std::vector<std::uint32_t> own;  // this sender's names
    for (std::size_t n = s; n < mix.names; n += senders) own.push_back(static_cast<std::uint32_t>(n));
    std::vector<std::uint32_t> present;  // own names the stream has put and not deleted
    std::vector<Op>& ops = streams[s];
    ops.reserve(ops_per_sender);
    while (ops.size() < ops_per_sender) {
      const double u = rng.unit();
      Op op;
      if (!own.empty() && u < mix.put + mix.del) {
        if (u >= mix.put && !present.empty()) {
          const std::size_t at = rng.below(present.size());
          op.route = Route::kDelete;
          op.ref = present[at];
          present[at] = present.back();
          present.pop_back();
        } else {
          op.route = Route::kPut;
          op.ref = own[rng.below(own.size())];
          op.body = static_cast<std::uint32_t>(rng.below(mix.bodies));
          if (std::find(present.begin(), present.end(), op.ref) == present.end()) {
            present.push_back(op.ref);
          }
        }
      } else {
        std::uint64_t pick = rng.below(total);
        std::size_t k = 0;
        while (pick >= reads.weights[k]) pick -= reads.weights[k++];
        op.route = reads.requests[reads.segments[k].first].route;
        op.ref = static_cast<std::uint32_t>(reads.segments[k].first + zipf[k].sample(rng));
      }
      ops.push_back(op);
    }
  }
  return streams;
}

const SeriesSpec kSeries[kSeriesCount] = {
    {"loss", "TRAINING", ""},
    {"accuracy", "TRAINING", "%"},
    {"learning_rate", "TRAINING", ""},
    {"gpu_power", "TRAINING", "W"},
    {"gpu_utilization", "TRAINING", "%"},
    {"gpu_energy", "TRAINING", "J"},
    {"loss", "VALIDATION", ""},
    {"accuracy", "VALIDATION", "%"},
    {"loss", "TESTING", ""},
    {"accuracy", "TESTING", "%"},
};

std::vector<std::vector<double>> make_metric_values(std::uint64_t seed, std::size_t run,
                                                    std::size_t steps) {
  Rng rng((seed ^ kMetricSalt) + 0x9e3779b97f4a7c15ull * (run + 1));
  const double lr0 = 1e-4 * static_cast<double>(1 + rng.below(30));
  const double decay = 2.0 + 2.0 * rng.unit();
  std::vector<std::vector<double>> v(kSeriesCount, std::vector<double>(steps));
  auto noise = [&rng](double scale) { return scale * (rng.unit() - 0.5); };
  double energy = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double p = static_cast<double>(i) / static_cast<double>(steps);
    const double loss = 2.2 * std::exp(-decay * p) + 0.3;
    const double acc = 100.0 * (1.0 - std::exp(-(decay + 1.0) * p));
    const double power = 250.0 + noise(40.0);
    energy += power * 0.25;
    v[0][i] = loss + noise(0.02);
    v[1][i] = acc + noise(0.5);
    v[2][i] = lr0 * 0.5 * (1.0 + std::cos(3.141592653589793 * p));
    v[3][i] = power;
    v[4][i] = 92.0 + noise(10.0);
    v[5][i] = energy;
    v[6][i] = loss + 0.1 + noise(0.03);
    v[7][i] = acc - 2.0 + noise(0.8);
    v[8][i] = loss + 0.12 + noise(0.03);
    v[9][i] = acc - 2.5 + noise(0.8);
  }
  return v;
}

}  // namespace perfbench
