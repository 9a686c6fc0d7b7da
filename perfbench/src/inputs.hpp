// Seeded inputs for every workload. Everything the program under test
// receives — PROV documents, PUT bodies, request targets, query texts,
// metric values — is generated here, from the seed, during set-up; the
// timed phases only replay it. Same seed, same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "provml/prov/model.hpp"
#include "provml/testkit/rng.hpp"

namespace perfbench {

/// The service routes the load exercises. kPageNext never appears in a
/// generated stream: it follows a kPage open while its cursor has pages.
enum class Route : std::uint8_t {
  kGetDoc,
  kStats,
  kElement,
  kSubgraph,
  kList,
  kQuery,        ///< per-document MATCH, one shot
  kGlobalQuery,  ///< ORDER BY ... LIMIT aggregate over the whole graph
  kExplain,
  kPage,         ///< {"query","page_size"} envelope: opens a cursor
  kPageNext,     ///< /query/next on the open cursor
  kPut,
  kDelete,
};
[[nodiscard]] const char* route_name(Route route);

struct Corpus {
  std::vector<std::pair<std::string, provml::prov::Document>> docs;
};

/// `count` documents from testkit::gen_prov_document, `large` of them
/// (at seeded positions) replaced by 256-320-element training-lineage
/// documents (entity/activity pairs linked by wasGeneratedBy).
[[nodiscard]] Corpus make_corpus(std::uint64_t seed, std::size_t count, std::size_t large);

/// One distinct read: its route, HTTP method, target and body.
struct ReadRequest {
  Route route = Route::kGetDoc;
  std::string method;
  std::string target;
  std::string body;
};

/// The distinct reads of a workload, grouped by route: `segments[k]`
/// is the [begin, end) range of `requests` holding one route, drawn with
/// `weights[k]` (per mille). Each request picks a route by weight, then a
/// key of that route Zipf-skewed by its position in the segment, so the
/// route mix is the same for every seed and only the keys vary.
struct ReadTable {
  std::vector<ReadRequest> requests;
  std::vector<std::pair<std::size_t, std::size_t>> segments;
  std::vector<std::uint64_t> weights;
};

/// About `size` distinct reads over the corpus, split over the routes in
/// proportion to their weights. `paging` adds cursor opens (only where
/// no write can invalidate a cursor).
[[nodiscard]] ReadTable make_read_table(std::uint64_t seed, const Corpus& corpus,
                                        std::size_t size, bool paging);

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t sample(provml::testkit::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// PUT payloads for the ingest workload, and the body the service must
/// serve back for each (the compact re-serialization of the parsed body).
struct IngestInputs {
  std::vector<std::string> names;     ///< fixed pool; name i is pinned to sender i % senders
  std::vector<std::string> bodies;    ///< compact PROV-JSON
  std::vector<std::string> expected;  ///< GET body after a PUT of bodies[i]
};
[[nodiscard]] IngestInputs make_ingest_inputs(std::uint64_t seed, std::size_t names,
                                              std::size_t bodies);

/// One scheduled operation. Reads: `ref` indexes ReadTable::requests. PUT:
/// `ref` names the document, `body` the payload. DELETE: `ref` names a
/// document the stream itself put and did not delete since, so every
/// DELETE finds its document.
struct Op {
  Route route = Route::kGetDoc;
  std::uint32_t ref = 0;
  std::uint32_t body = 0;
};

struct OpMix {
  double put = 0.0;     ///< share of PUTs
  double del = 0.0;     ///< share of DELETEs
  std::size_t names = 0;
  std::size_t bodies = 0;
};

/// One op stream per sender. Reads are drawn from the read table (see
/// ReadTable) with Zipf(zipf_s) inside each route; writes (when
/// mix.put + mix.del > 0) touch only the sender's own names.
[[nodiscard]] std::vector<std::vector<Op>> make_op_streams(std::uint64_t seed, std::size_t senders,
                                                           std::size_t ops_per_sender,
                                                           const ReadTable& reads, double zipf_s,
                                                           const OpMix& mix);

/// The ten Table 1 series of one training run, logged every step.
struct SeriesSpec {
  const char* name;
  const char* context;
  const char* unit;
};
inline constexpr std::size_t kSeriesCount = 10;
extern const SeriesSpec kSeries[kSeriesCount];

/// values[series][step] for one run.
[[nodiscard]] std::vector<std::vector<double>> make_metric_values(std::uint64_t seed,
                                                                  std::size_t run,
                                                                  std::size_t steps);

}  // namespace perfbench
