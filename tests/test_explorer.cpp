#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>
#include <set>

#include "provml/core/run.hpp"
#include "provml/explorer/diff.hpp"
#include "provml/explorer/lineage.hpp"
#include "provml/explorer/reproduce.hpp"
#include "provml/explorer/stats.hpp"
#include "provml/explorer/subgraph.hpp"
#include "provml/explorer/timeline.hpp"
#include "provml/common/strings.hpp"
#include "provml/graphstore/ingest.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/testkit/gen.hpp"
#include "provml/testkit/rng.hpp"

namespace provml::explorer {
namespace {

namespace fs = std::filesystem;

/// dataset → preprocessing → cleaned → training → checkpoint → eval → report
prov::Document pipeline_doc() {
  prov::Document doc;
  doc.declare_namespace("ex", "http://example.org/");
  doc.add_entity("ex:dataset");
  doc.add_entity("ex:cleaned");
  doc.add_entity("ex:checkpoint");
  doc.add_entity("ex:report");
  doc.add_activity("ex:preprocessing");
  doc.add_activity("ex:training");
  doc.add_activity("ex:evaluation");
  doc.used("ex:preprocessing", "ex:dataset");
  doc.was_generated_by("ex:cleaned", "ex:preprocessing");
  doc.used("ex:training", "ex:cleaned");
  doc.was_generated_by("ex:checkpoint", "ex:training");
  doc.used("ex:evaluation", "ex:checkpoint");
  doc.was_generated_by("ex:report", "ex:evaluation");
  return doc;
}

// ----------------------------------------------------------------- lineage

TEST(Lineage, UpstreamWalksToOrigins) {
  const prov::Document doc = pipeline_doc();
  const auto hops = upstream(doc, "ex:report");
  std::vector<std::string> ids;
  for (const LineageHop& hop : hops) ids.push_back(hop.id);
  // report ← evaluation ← checkpoint ← training ← cleaned ← preprocessing ← dataset
  EXPECT_EQ(ids.size(), 6u);
  EXPECT_EQ(ids.front(), "ex:evaluation");
  EXPECT_EQ(ids.back(), "ex:dataset");
}

TEST(Lineage, DownstreamIsImpactAnalysis) {
  const prov::Document doc = pipeline_doc();
  const auto hops = downstream(doc, "ex:dataset");
  EXPECT_EQ(hops.size(), 6u);  // everything descends from the dataset
  const auto none = downstream(doc, "ex:report");
  EXPECT_TRUE(none.empty());
}

TEST(Lineage, DepthLimit) {
  const prov::Document doc = pipeline_doc();
  EXPECT_EQ(upstream(doc, "ex:report", 1).size(), 1u);
  EXPECT_EQ(upstream(doc, "ex:report", 2).size(), 2u);
  EXPECT_EQ(upstream(doc, "ex:report", 99).size(), 6u);
}

TEST(Lineage, HopsCarryRelationAndDepth) {
  const prov::Document doc = pipeline_doc();
  const auto hops = upstream(doc, "ex:checkpoint", 2);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].via, "wasGeneratedBy");
  EXPECT_EQ(hops[0].depth, 1u);
  EXPECT_EQ(hops[1].via, "used");
  EXPECT_EQ(hops[1].depth, 2u);
}

TEST(Lineage, UnknownStartYieldsNothing) {
  EXPECT_TRUE(upstream(pipeline_doc(), "ex:ghost").empty());
}

TEST(Lineage, CyclesTerminate) {
  prov::Document doc;
  doc.add_entity("a");
  doc.add_entity("b");
  doc.was_derived_from("a", "b");
  doc.was_derived_from("b", "a");
  EXPECT_EQ(upstream(doc, "a").size(), 1u);
}

// ------------------------------------------ lineage == query-engine *1..n
//
// lineage() is now a thin wrapper over the graphstore's variable-length
// BFS primitive. These tests prove the rewrite changed nothing: the
// historical relation-scan BFS (kept here as the reference) must produce
// row-identical hop sequences on seeded generated documents, and the node
// set must equal what a MATCH ... -[*1..n]-> query returns over the
// ingested graph (the subsumption the rewrite claims).

/// The pre-rewrite implementation, verbatim: BFS over doc.relations()
/// with per-subject buckets in declaration order.
std::vector<LineageHop> reference_lineage(const prov::Document& doc,
                                          const std::string& start_id,
                                          LineageDirection direction,
                                          std::size_t max_depth) {
  struct DepEdge {
    const std::string* to;
    const char* via;
  };
  std::map<std::string, std::vector<DepEdge>> index;
  for (const prov::Relation& r : doc.relations()) {
    const char* via = prov::relation_spec(r.kind).json_key;
    if (direction == LineageDirection::kUpstream) {
      index[r.subject].push_back({&r.object, via});
    } else {
      index[r.object].push_back({&r.subject, via});
    }
  }
  std::vector<LineageHop> result;
  std::set<std::string> seen{start_id};
  std::deque<LineageHop> frontier{{start_id, "", 0}};
  while (!frontier.empty()) {
    const LineageHop current = frontier.front();
    frontier.pop_front();
    if (max_depth != 0 && current.depth == max_depth) continue;
    const auto bucket = index.find(current.id);
    if (bucket == index.end()) continue;
    for (const DepEdge& edge : bucket->second) {
      if (!seen.insert(*edge.to).second) continue;
      LineageHop hop{*edge.to, edge.via, current.depth + 1};
      result.push_back(hop);
      frontier.push_back(std::move(hop));
    }
  }
  return result;
}

bool hops_equal(const std::vector<LineageHop>& a, const std::vector<LineageHop>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].via != b[i].via || a[i].depth != b[i].depth) {
      return false;
    }
  }
  return true;
}

TEST(LineageEquivalence, MatchesReferenceOnSeededSweep) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    testkit::Rng rng(seed);
    for (int iter = 0; iter < 15; ++iter) {
      testkit::ProvGenOptions opts;
      opts.with_bundles = false;
      const prov::Document doc = testkit::gen_prov_document(rng, opts);
      for (const prov::Element& element : doc.elements()) {
        for (const LineageDirection dir :
             {LineageDirection::kUpstream, LineageDirection::kDownstream}) {
          for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                          std::size_t{2}, std::size_t{3}}) {
            const auto now = lineage(doc, element.id, dir, depth);
            const auto then = reference_lineage(doc, element.id, dir, depth);
            EXPECT_TRUE(hops_equal(now, then))
                << "seed " << seed << " iter " << iter << " start " << element.id
                << " dir " << (dir == LineageDirection::kUpstream ? "up" : "down")
                << " depth " << depth;
          }
        }
      }
    }
  }
}

TEST(LineageEquivalence, PipelineHopsIdenticalToReference) {
  const prov::Document doc = pipeline_doc();
  for (const char* start : {"ex:report", "ex:dataset", "ex:training"}) {
    for (const LineageDirection dir :
         {LineageDirection::kUpstream, LineageDirection::kDownstream}) {
      EXPECT_TRUE(hops_equal(lineage(doc, start, dir, 0),
                             reference_lineage(doc, start, dir, 0)))
          << start;
    }
  }
}

TEST(LineageEquivalence, SubsumedByVariableLengthQuery) {
  const prov::Document doc = pipeline_doc();
  graphstore::PropertyGraph graph;
  ASSERT_TRUE(graphstore::ingest_document(graph, doc, "d").ok());
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    const auto hops = upstream(doc, "ex:report", depth);
    std::set<std::string> lineage_ids;
    for (const LineageHop& hop : hops) lineage_ids.insert(hop.id);

    // Upstream follows subject → object, which ingest stores as outgoing
    // edges, so the same walk is a forward variable-length match.
    const std::string text =
        "MATCH (s {prov_id: \"ex:report\"})-[*1.." + std::to_string(depth) +
        "]->(x) RETURN x";
    const auto rows = graphstore::execute_query(graph, text);
    ASSERT_TRUE(rows.ok()) << rows.error().to_string();
    std::set<std::string> query_ids;
    for (const auto& row : rows.value().rows) {
      const graphstore::Node* n =
          graph.node(static_cast<graphstore::NodeId>(row[0].as_int()));
      ASSERT_NE(n, nullptr);
      query_ids.insert(n->properties.find("prov_id")->as_string());
    }
    EXPECT_EQ(lineage_ids, query_ids) << "depth " << depth;
  }
}

// -------------------------------------------------------------------- diff

class ExplorerRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("provml_explorer_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  prov::Document make_run(const std::string& name, double lr, bool extra_metric) {
    core::RunOptions opts;
    opts.provenance_dir = (dir_ / name).string();
    opts.metric_store = "embedded";
    core::Experiment exp("diff_demo");
    core::Run& run = exp.start_run(opts, name);
    run.log_param("learning_rate", lr);
    run.log_param("batch_size", 32);
    run.log_metric("loss", 0.5, 0);
    if (extra_metric) run.log_metric("accuracy", 0.8, 0, core::contexts::kValidation);
    run.log_artifact("ckpt", "ckpt.pt");
    EXPECT_TRUE(run.finish().ok());
    return run.document();
  }

  fs::path dir_;
};

TEST_F(ExplorerRunTest, IdenticalRunsDiffEmpty) {
  const prov::Document a = make_run("a", 1e-3, false);
  const prov::Document b = make_run("b", 1e-3, false);
  const RunDiff diff = diff_runs(a, b);
  EXPECT_TRUE(diff.identical()) << to_string(diff);
  EXPECT_EQ(to_string(diff), "runs are structurally identical\n");
}

TEST_F(ExplorerRunTest, ChangedParamDetected) {
  const prov::Document a = make_run("a", 1e-3, false);
  const prov::Document b = make_run("b", 1e-4, false);
  const RunDiff diff = diff_runs(a, b);
  ASSERT_EQ(diff.params_changed.size(), 1u);
  EXPECT_EQ(diff.params_changed[0].name, "learning_rate");
  EXPECT_DOUBLE_EQ(diff.params_changed[0].left.as_double(), 1e-3);
  EXPECT_DOUBLE_EQ(diff.params_changed[0].right.as_double(), 1e-4);
  EXPECT_NE(to_string(diff).find("learning_rate"), std::string::npos);
}

TEST_F(ExplorerRunTest, ExtraMetricDetected) {
  const prov::Document a = make_run("a", 1e-3, true);
  const prov::Document b = make_run("b", 1e-3, false);
  const RunDiff diff = diff_runs(a, b);
  ASSERT_EQ(diff.metrics_only_left.size(), 1u);
  EXPECT_EQ(diff.metrics_only_left[0], "VALIDATION/accuracy");
}

TEST(DiffTest, ParamsOnlyOnOneSide) {
  prov::Document a;
  a.declare_namespace("provml", "https://provml.dev/ns#");
  a.declare_namespace("ex", "urn:x/");
  a.add_entity("ex:param/alpha", {{"prov:type", "provml:Parameter"},
                                  {"provml:name", "alpha"},
                                  {"provml:value", 1}});
  prov::Document b;
  const RunDiff diff = diff_runs(a, b);
  ASSERT_EQ(diff.params_only_left.size(), 1u);
  EXPECT_EQ(diff.params_only_left[0], "alpha");
  EXPECT_TRUE(diff.params_only_right.empty());
}

// ------------------------------------------------------------------- stats

TEST(Stats, CountsEverything) {
  prov::Document doc = pipeline_doc();
  doc.bundle("b").add_entity("inner", {{"k", 1}});
  const DocumentStats stats = document_stats(doc);
  EXPECT_EQ(stats.entities, 5u);  // 4 + bundle inner
  EXPECT_EQ(stats.activities, 3u);
  EXPECT_EQ(stats.agents, 0u);
  EXPECT_EQ(stats.relations.at("used"), 3u);
  EXPECT_EQ(stats.relations.at("wasGeneratedBy"), 3u);
  EXPECT_EQ(stats.total_relations(), 6u);
  EXPECT_EQ(stats.bundles, 1u);
  EXPECT_EQ(stats.attributes, 1u);
  EXPECT_EQ(stats.total_elements(), 8u);
  const std::string text = to_string(stats);
  EXPECT_NE(text.find("entities"), std::string::npos);
  EXPECT_NE(text.find("used"), std::string::npos);
}



// ---------------------------------------------------------------- subgraph

TEST(Subgraph, RadiusLimitsExtraction) {
  const prov::Document doc = pipeline_doc();
  // 1 hop around the checkpoint: the generating and consuming activities.
  const auto one = extract_subgraph(doc, "ex:checkpoint", {.max_hops = 1});
  ASSERT_TRUE(one.ok()) << one.error().to_string();
  EXPECT_NE(one.value().find_element("ex:checkpoint"), nullptr);
  EXPECT_NE(one.value().find_element("ex:training"), nullptr);
  EXPECT_NE(one.value().find_element("ex:evaluation"), nullptr);
  EXPECT_EQ(one.value().find_element("ex:dataset"), nullptr);  // 3 hops away
  EXPECT_TRUE(one.value().validate().empty());

  // Large radius captures the whole pipeline.
  const auto all = extract_subgraph(doc, "ex:checkpoint", {.max_hops = 10});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().elements().size(), doc.elements().size());
  EXPECT_EQ(all.value().relations().size(), doc.relations().size());
}

TEST(Subgraph, ZeroHopsIsJustTheElement) {
  const auto sub = extract_subgraph(pipeline_doc(), "ex:training", {.max_hops = 0});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().elements().size(), 1u);
  EXPECT_TRUE(sub.value().relations().empty());
}

TEST(Subgraph, RelationsKeptOnlyWhenBothEndpointsSurvive) {
  const auto sub = extract_subgraph(pipeline_doc(), "ex:checkpoint", {.max_hops = 1});
  ASSERT_TRUE(sub.ok());
  // Relations touching the dropped dataset/cleaned entities must be gone.
  for (const prov::Relation& r : sub.value().relations()) {
    EXPECT_NE(sub.value().find_element(r.subject), nullptr);
    EXPECT_NE(sub.value().find_element(r.object), nullptr);
  }
  EXPECT_EQ(sub.value().count(prov::RelationKind::kUsed), 1u);  // eval used ckpt
}

TEST(Subgraph, AgentsDroppableForPureDataLineage) {
  prov::Document doc = pipeline_doc();
  doc.add_agent("ex:alice");
  doc.was_associated_with("ex:training", "ex:alice");
  const auto with = extract_subgraph(doc, "ex:training", {.max_hops = 1});
  EXPECT_NE(with.value().find_element("ex:alice"), nullptr);
  const auto without =
      extract_subgraph(doc, "ex:training", {.max_hops = 1, .include_agents = false});
  EXPECT_EQ(without.value().find_element("ex:alice"), nullptr);
  EXPECT_TRUE(without.value().validate().empty());
}

TEST(Subgraph, UnknownCenterFails) {
  EXPECT_FALSE(extract_subgraph(pipeline_doc(), "ex:ghost").ok());
}

// ---------------------------------------------------------------- timeline

TEST(TimelineParse, Iso8601RoundTrip) {
  EXPECT_EQ(parse_iso8601_utc("1970-01-01T00:00:00.000Z").value(), 0);
  EXPECT_EQ(parse_iso8601_utc("1970-01-01T00:00:01.500Z").value(), 1500);
  EXPECT_EQ(parse_iso8601_utc("2025-01-01T00:00:00.000Z").value(), 1735689600000LL);
  EXPECT_EQ(parse_iso8601_utc("2025-01-01T00:00:00").value(), 1735689600000LL);
  EXPECT_FALSE(parse_iso8601_utc("not a time").has_value());
  EXPECT_FALSE(parse_iso8601_utc("").has_value());
}

TEST(TimelineParse, InverseOfFormatter) {
  for (const std::int64_t ms : {0LL, 1500LL, 1735689600123LL, 999999999999LL}) {
    EXPECT_EQ(parse_iso8601_utc(strings::iso8601_utc(ms)).value(), ms) << ms;
  }
}

TEST(Timeline, BuildsNestedEntries) {
  prov::Document doc;
  doc.declare_namespace("ex", "urn:x/");
  doc.add_activity("ex:run", {{"prov:type", "provml:RunExecution"}},
                   "2025-01-01T00:00:00.000Z", "2025-01-01T00:01:40.000Z");
  doc.add_activity("ex:run/TRAINING", {{"prov:type", "provml:Context"}},
                   "2025-01-01T00:00:10.000Z", "2025-01-01T00:01:00.000Z");
  doc.add_activity("ex:run/TRAINING/epoch_0", {{"prov:type", "provml:Epoch"}},
                   "2025-01-01T00:00:10.000Z", "2025-01-01T00:00:30.000Z");
  doc.was_informed_by("ex:run/TRAINING", "ex:run");
  doc.was_informed_by("ex:run/TRAINING/epoch_0", "ex:run/TRAINING");

  const auto timeline = build_timeline(doc);
  ASSERT_TRUE(timeline.ok()) << timeline.error().to_string();
  ASSERT_EQ(timeline.value().entries.size(), 3u);
  EXPECT_EQ(timeline.value().entries[0].id, "ex:run");
  EXPECT_EQ(timeline.value().entries[0].depth, 0);
  EXPECT_EQ(timeline.value().entries[1].depth, 1);
  EXPECT_EQ(timeline.value().entries[2].depth, 2);
  EXPECT_EQ(timeline.value().entries[0].duration_ms(), 100000);
  EXPECT_EQ(timeline.value().origin_ms, 1735689600000LL);
  EXPECT_EQ(timeline.value().horizon_ms, 1735689700000LL);

  const std::string text = to_string(timeline.value());
  EXPECT_NE(text.find("ex:run"), std::string::npos);
  EXPECT_NE(text.find('='), std::string::npos);
  EXPECT_NE(text.find("100000 ms"), std::string::npos);
}

TEST(Timeline, ErrorsWithoutTimedActivities) {
  prov::Document doc;
  doc.add_entity("e");
  doc.add_activity("a");  // no times
  EXPECT_FALSE(build_timeline(doc).ok());
}

TEST(Timeline, OpenEndedActivityStretchesToHorizon) {
  prov::Document doc;
  doc.add_activity("a", {}, "2025-01-01T00:00:00.000Z", "2025-01-01T00:00:10.000Z");
  doc.add_activity("crashed", {}, "2025-01-01T00:00:05.000Z");  // never ended
  const auto timeline = build_timeline(doc);
  ASSERT_TRUE(timeline.ok());
  const TimelineEntry* crashed = nullptr;
  for (const TimelineEntry& e : timeline.value().entries) {
    if (e.id == "crashed") crashed = &e;
  }
  ASSERT_NE(crashed, nullptr);
  EXPECT_EQ(crashed->end_ms, 0);
  EXPECT_EQ(crashed->duration_ms(), 0);
}

TEST(Timeline, RealRunDocumentRendersCleanly) {
  namespace fs = std::filesystem;
  core::RunOptions opts;
  opts.provenance_dir = (fs::temp_directory_path() / "provml_timeline").string();
  opts.metric_store = "embedded";
  core::Experiment exp("timeline_demo");
  core::Run& run = exp.start_run(opts);
  run.begin_epoch(core::contexts::kTraining, 0);
  run.log_metric("loss", 1.0, 0);
  run.end_epoch(core::contexts::kTraining, 0);
  ASSERT_TRUE(run.finish().ok());
  const auto timeline = build_timeline(run.document());
  ASSERT_TRUE(timeline.ok()) << timeline.error().to_string();
  EXPECT_GE(timeline.value().entries.size(), 2u);  // run + epoch at least
  fs::remove_all(opts.provenance_dir);
}

// --------------------------------------------------------------- reproduce

class ReproduceTest : public ExplorerRunTest {};

TEST_F(ReproduceTest, RecipeExtractsInputsAndOutputs) {
  core::RunOptions opts;
  opts.provenance_dir = (dir_ / "r").string();
  opts.metric_store = "embedded";
  opts.user = "alice";
  core::Experiment exp("repro_demo");
  core::Run& run = exp.start_run(opts, "run_x");
  run.log_param("lr", 0.001);
  run.log_param("final_loss", 0.42, core::IoRole::kOutput);
  run.log_artifact("dataset", "/data/in.zarr", core::IoRole::kInput);
  run.log_artifact("checkpoint", "out.pt", core::IoRole::kOutput);
  run.log_source_code("train.py");
  run.log_metric("loss", 0.5, 0);
  ASSERT_TRUE(run.finish().ok());

  auto recipe = extract_recipe_file(run.provenance_path());
  ASSERT_TRUE(recipe.ok()) << recipe.error().to_string();
  const RunRecipe& r = recipe.value();
  EXPECT_EQ(r.experiment, "repro_demo");
  EXPECT_EQ(r.run_name, "run_x");
  EXPECT_EQ(r.user, "alice");
  ASSERT_EQ(r.input_params.size(), 1u);
  EXPECT_DOUBLE_EQ(r.input_params.at("lr").as_double(), 0.001);
  ASSERT_EQ(r.input_artifacts.size(), 1u);
  EXPECT_EQ(r.input_artifacts.at("dataset"), "/data/in.zarr");
  EXPECT_EQ(r.expected_outputs.size(), 2u);
  EXPECT_TRUE(r.expected_outputs.count("param:final_loss"));
  EXPECT_TRUE(r.expected_outputs.count("artifact:checkpoint"));
  EXPECT_EQ(r.source_code, "train.py");
  EXPECT_TRUE(r.contexts.count("TRAINING"));
}

TEST_F(ReproduceTest, ReplayVerifiesOutputs) {
  RunRecipe recipe;
  recipe.expected_outputs = {"artifact:ckpt", "param:final_loss"};

  const ReplayReport good = replay(recipe, [](const RunRecipe&) {
    return ReplayResult{{"artifact:ckpt", "param:final_loss"}};
  });
  EXPECT_TRUE(good.reproduced);
  EXPECT_TRUE(good.missing_outputs.empty());

  const ReplayReport partial = replay(recipe, [](const RunRecipe&) {
    return ReplayResult{{"artifact:ckpt", "artifact:surprise"}};
  });
  EXPECT_FALSE(partial.reproduced);
  EXPECT_EQ(partial.missing_outputs, (std::set<std::string>{"param:final_loss"}));
  EXPECT_EQ(partial.extra_outputs, (std::set<std::string>{"artifact:surprise"}));
}

TEST(ReproduceTest2, NonRunDocumentRejected) {
  prov::Document doc;
  doc.add_entity("just_an_entity");
  EXPECT_FALSE(extract_recipe(doc).ok());
}

}  // namespace
}  // namespace provml::explorer
