// Fuzz driver: differential oracle for the graphstore query engine.
//
// Each iteration generates a random property graph and a random query over
// the same vocabulary (gen_graph_query covers the whole grammar: typed and
// variable-length edges, inline constraints, WHERE, aggregates, ORDER BY,
// SKIP/LIMIT), then checks:
//   1. The generated text always parses.
//   2. execute_query (cost-based planner: indexed anchors, endpoint
//      reversal, BFS variable-length expansion, streaming aggregation,
//      bounded-heap pagination) returns a table identical to
//      execute_query_brute_force (full scan, DFS enumeration, materialized
//      grouping, full stable sort) — columns, rows, and row order.
//   3. explain_query's estimates are finite and non-negative, and the
//      chosen plan never names a label or property absent from the query.
//   4. A QueryCursor drained at page sizes 1, 2, 7, and 64 concatenates to
//      exactly the one-shot execute_query table — same columns, rows, and
//      row order — and reports done() with no trailing empty page.
//
// Row equality is exact, not just multiset equality: both evaluators
// promise the same deterministic ordering (ascending match paths / group
// keys, stable ORDER BY, then SKIP/LIMIT), so any divergence — including
// a tie broken differently — is a bug.
#include <cmath>
#include <string>

#include "provml/graphstore/graph.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/harness.hpp"

namespace {

using namespace provml;
using graphstore::PropertyGraph;
using graphstore::Query;
using graphstore::QueryPlan;
using graphstore::ResultSet;

void check_plan_sanity(const PropertyGraph& graph, const Query& query,
                       const std::string& text) {
  const QueryPlan plan = graphstore::explain_query(graph, query);
  FUZZ_CHECK(std::isfinite(plan.estimated_rows) && plan.estimated_rows >= 0.0,
             "non-finite or negative estimated_rows for: " + text);
  FUZZ_CHECK(std::isfinite(plan.estimated_cost) && plan.estimated_cost >= 0.0,
             "non-finite or negative estimated_cost for: " + text);
  FUZZ_CHECK(plan.estimated_cost + 1e-9 >= plan.estimated_rows,
             "cost below final-frontier estimate for: " + text);
  if (plan.anchor != QueryPlan::Anchor::kScanAll) {
    bool label_known = false;
    for (const auto& node : query.nodes) {
      for (const std::string& label : node.labels) {
        label_known = label_known || label == plan.label;
      }
    }
    FUZZ_CHECK(label_known, "plan anchored on a label the query never names: " + text);
  }
}

void check_cursor_paging(const PropertyGraph& graph, const Query& query,
                         const ResultSet& reference, const std::string& text) {
  for (const std::size_t page_size : {std::size_t{1}, std::size_t{2},
                                      std::size_t{7}, std::size_t{64}}) {
    Expected<graphstore::QueryCursor> cursor =
        graphstore::QueryCursor::open(graph, query);
    FUZZ_CHECK(cursor.ok(), "cursor open failed for: " + text);
    ResultSet paged;
    paged.columns = cursor.value().columns();
    while (!cursor.value().done()) {
      auto page = cursor.value().next(page_size);
      FUZZ_CHECK(page.size() <= page_size, "oversized cursor page for: " + text);
      FUZZ_CHECK(!page.empty() || cursor.value().done(),
                 "empty page without done() for: " + text);
      for (auto& row : page) paged.rows.push_back(std::move(row));
    }
    FUZZ_CHECK(cursor.value().next(page_size).empty(),
               "rows released after done() for: " + text);
    FUZZ_CHECK(paged.columns == reference.columns,
               "cursor/one-shot column mismatch for: " + text);
    FUZZ_CHECK(paged == reference,
               "cursor pages do not concatenate to the one-shot table for: " + text);
  }
}

void iteration(testkit::Rng& rng) {
  const PropertyGraph graph = testkit::gen_property_graph(rng);
  const std::string text = testkit::gen_graph_query(rng);

  const Expected<Query> parsed = graphstore::parse_query(text);
  FUZZ_CHECK(parsed.ok(), "generated query failed to parse: " + text +
                              (parsed.ok() ? "" : " — " + parsed.error().to_string()));
  const Query& query = parsed.value();

  check_plan_sanity(graph, query, text);

  const Expected<ResultSet> planned = graphstore::execute_query(graph, query);
  const Expected<ResultSet> brute = graphstore::execute_query_brute_force(graph, query);
  FUZZ_CHECK(planned.ok() && brute.ok(),
             "table evaluation failed for: " + text + " — " +
                 (planned.ok() ? brute.error().to_string()
                               : planned.error().to_string()));
  FUZZ_CHECK(planned.value().columns == brute.value().columns,
             "planner/oracle column mismatch for: " + text);
  FUZZ_CHECK(planned.value() == brute.value(),
             "planner/oracle table mismatch for: " + text);

  check_cursor_paging(graph, query, planned.value(), text);
}

}  // namespace

int main(int argc, char** argv) {
  return provml::testkit::fuzz_main(argc, argv, "fuzz_query", 150, iteration);
}
