// End-to-end integration: the full paper pipeline in one test suite.
//   simulator → run logger → metric store + PROV-JSON on disk →
//   yProv service ingest → graph queries + lineage → run diff →
//   recipe extraction → replay on the simulator → RO-Crate packaging →
//   scaling-law fit + k-NN forecast over the accumulated provenance.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "provml/analysis/forecast.hpp"
#include "provml/analysis/scaling_fit.hpp"
#include "provml/core/run.hpp"
#include "provml/explorer/diff.hpp"
#include "provml/explorer/lineage.hpp"
#include "provml/explorer/reproduce.hpp"
#include "provml/graphstore/query.hpp"
#include "provml/graphstore/service.hpp"
#include "provml/prov/constraints.hpp"
#include "provml/prov/prov_json.hpp"
#include "provml/rocrate/crate.hpp"
#include "provml/sim/trainer.hpp"
#include "provml/storage/store.hpp"

namespace provml {
namespace {

namespace fs = std::filesystem;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("provml_integration_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs one simulated training cell through the full logging stack and
  /// returns the finished Run's document path.
  std::string run_cell(core::Experiment& exp, int devices, int epochs,
                       std::uint64_t seed) {
    core::RunOptions options;
    options.provenance_dir = (dir_ / "prov").string();
    options.metric_store = "zarr";
    options.user = "integration";
    options.create_rocrate = false;

    sim::TrainConfig cfg;
    cfg.model = sim::make_model(sim::Architecture::kSwinV2, 200'000'000);
    cfg.ddp.devices = devices;
    cfg.epochs = epochs;
    cfg.seed = seed;

    const std::string run_name =
        "g" + std::to_string(devices) + "_e" + std::to_string(epochs);
    core::Run& run = exp.start_run(options, run_name);
    run.log_param("devices", devices);
    run.log_param("epochs", epochs);
    run.log_param("parameters", cfg.model.parameters);
    run.log_param("seed", static_cast<std::int64_t>(seed));
    run.log_artifact("dataset", "modis.zarr", core::IoRole::kInput);
    run.log_source_code("train.py");
    const sim::TrainResult result =
        sim::DdpTrainer(cfg).run([&run](const sim::EpochReport& report) {
          run.begin_epoch(core::contexts::kTraining, report.epoch);
          run.log_metric("loss", report.train_loss, report.epoch);
          run.log_metric("energy", report.cumulative_energy_j, report.epoch,
                         core::contexts::kTraining, "J");
          run.end_epoch(core::contexts::kTraining, report.epoch);
        });
    run.log_param("final_loss", result.final_loss, core::IoRole::kOutput);
    run.log_param("energy_joules", result.energy_j, core::IoRole::kOutput);
    run.log_artifact("checkpoint", run_name + ".ckpt", core::IoRole::kOutput,
                     core::contexts::kTraining);
    EXPECT_TRUE(run.finish().ok());
    return run.provenance_path();
  }

  fs::path dir_;
};

TEST_F(IntegrationTest, FullPipeline) {
  core::Experiment exp("integration");

  // --- 1. Record a small grid of runs. -----------------------------------
  std::vector<std::string> paths;
  for (const int devices : {8, 32, 128}) {
    for (const int epochs : {3, 6}) {
      paths.push_back(run_cell(exp, devices, epochs, 42));
    }
  }
  ASSERT_EQ(paths.size(), 6u);

  // --- 2. Every document is valid, constraint-clean, re-readable. --------
  graphstore::YProvService service;
  for (const std::string& path : paths) {
    auto doc = prov::read_prov_json_file(path);
    ASSERT_TRUE(doc.ok()) << doc.error().to_string();
    EXPECT_TRUE(doc.value().validate().empty()) << path;
    EXPECT_TRUE(prov::check_constraints(doc.value()).empty()) << path;
    const std::string name = fs::path(path).stem().string();
    ASSERT_TRUE(service.put_document(name, doc.value()).ok());
  }
  EXPECT_EQ(service.list_documents().size(), 6u);

  // --- 3. Metric stores read back losslessly. ----------------------------
  const auto zarr = storage::StoreRegistry::global().create("zarr");
  auto metrics = zarr->read((dir_ / "prov" / "g8_e3_metrics.zarr").string());
  ASSERT_TRUE(metrics.ok()) << metrics.error().to_string();
  const storage::MetricSeries* loss = metrics.value().find("loss", "TRAINING");
  ASSERT_NE(loss, nullptr);
  EXPECT_EQ(loss->size(), 3u);

  // --- 4. Graph queries over the ingested provenance. --------------------
  const auto rows = graphstore::execute_query(
      service.graph(),
      R"(MATCH (e:Entity {provml:name: "final_loss"}) RETURN e)");
  ASSERT_TRUE(rows.ok()) << rows.error().to_string();
  EXPECT_EQ(rows.value().rows.size(), 6u);  // one output param per run

  // Two-hop query: checkpoints generated by contexts informed by runs.
  const auto chains = graphstore::execute_query(
      service.graph(),
      "MATCH (c:Entity)-[:wasGeneratedBy]->(ctx:Activity)-[:wasInformedBy]->"
      "(r:Activity) RETURN c, r");
  ASSERT_TRUE(chains.ok());
  EXPECT_GE(chains.value().rows.size(), 6u);

  // --- 5. Lineage: a checkpoint's upstream reaches dataset and source. ---
  const auto doc = prov::read_prov_json_file(paths[0]);
  const auto hops = explorer::upstream(doc.value(), "ex:artifact/checkpoint");
  std::set<std::string> reached;
  for (const auto& hop : hops) reached.insert(hop.id);
  EXPECT_TRUE(reached.count("ex:artifact/dataset")) << "dataset not in lineage";
  EXPECT_TRUE(reached.count("ex:source_code"));
  EXPECT_TRUE(reached.count("ex:experiment"));

  // --- 6. Diff between two device counts shows the changed parameter. ----
  const auto doc_b = prov::read_prov_json_file(paths[2]);  // g32_e3
  const explorer::RunDiff diff = explorer::diff_runs(doc.value(), doc_b.value());
  bool devices_changed = false;
  for (const auto& change : diff.params_changed) {
    if (change.name == "devices") devices_changed = true;
  }
  EXPECT_TRUE(devices_changed) << explorer::to_string(diff);

  // --- 7. Reproduce g8_e3 from its PROV-JSON alone. -----------------------
  auto recipe = explorer::extract_recipe_file(paths[0]);
  ASSERT_TRUE(recipe.ok());
  double replayed_loss = 0;
  const explorer::ReplayReport report = explorer::replay(
      recipe.value(), [&replayed_loss](const explorer::RunRecipe& r) {
        sim::TrainConfig cfg;
        cfg.model = sim::make_model(sim::Architecture::kSwinV2,
                                    r.input_params.at("parameters").as_int());
        cfg.ddp.devices = static_cast<int>(r.input_params.at("devices").as_int());
        cfg.epochs = static_cast<int>(r.input_params.at("epochs").as_int());
        cfg.seed = static_cast<std::uint64_t>(r.input_params.at("seed").as_int());
        replayed_loss = sim::DdpTrainer(cfg).run().final_loss;
        return explorer::ReplayResult{
            {"param:final_loss", "param:energy_joules", "artifact:checkpoint"}};
      });
  EXPECT_TRUE(report.reproduced);
  // Bit-identical under the recorded seed.
  const auto original_recipe_doc = prov::read_prov_json_file(paths[0]).take();
  const auto harvested = analysis::harvest_record(original_recipe_doc).take();
  EXPECT_DOUBLE_EQ(replayed_loss, harvested.outputs.at("final_loss"));

  // --- 8. Package the provenance directory as an RO-Crate. ----------------
  rocrate::CrateBuilder crate((dir_ / "prov").string());
  crate.set_name("integration experiment");
  ASSERT_TRUE(crate.add_all().ok());
  ASSERT_TRUE(crate.write().ok());
  auto info = rocrate::read_crate((dir_ / "prov").string());
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_GE(info.value().entries.size(), 6u);

  // --- 9. Forecast an unseen configuration from the knowledge base. -------
  analysis::RunDatabase db;
  for (const std::string& path : paths) {
    ASSERT_TRUE(db.add_document(prov::read_prov_json_file(path).take()).ok());
  }
  const auto prediction = db.predict(
      {{"devices", 64.0}, {"epochs", 6.0}, {"parameters", 2e8}}, "final_loss", 3);
  ASSERT_TRUE(prediction.ok()) << prediction.error().to_string();
  // Sanity: prediction in the plausible loss band of this model family.
  EXPECT_GT(prediction.value().value, 0.2);
  EXPECT_LT(prediction.value().value, 2.0);

  // --- 10. Service round-trips to disk. -----------------------------------
  ASSERT_TRUE(service.save((dir_ / "store").string()).ok());
  auto loaded = graphstore::YProvService::load((dir_ / "store").string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().list_documents().size(), 6u);
  EXPECT_EQ(loaded.value().graph().node_count(), service.graph().node_count());
}

TEST_F(IntegrationTest, ScalingLawFitFromLoggedProvenance) {
  // Record runs across model sizes and epochs, harvest (N, D, loss) from
  // the PROV documents, fit the law, and verify it predicts a held-out
  // configuration of the *simulator* within tolerance.
  std::vector<analysis::ScalingPoint> points;
  core::Experiment exp("fit_integration");
  for (const std::int64_t params : {100'000'000LL, 600'000'000LL, 1'400'000'000LL}) {
    for (const int epochs : {2, 5, 10}) {
      core::RunOptions options;
      options.provenance_dir = (dir_ / "fitprov").string();
      options.metric_store = "embedded";
      sim::TrainConfig cfg;
      cfg.model = sim::make_model(sim::Architecture::kMae, params);
      cfg.ddp.devices = 128;
      cfg.epochs = epochs;
      cfg.loss_noise_sigma = 0;
      core::Run& run = exp.start_run(
          options, "p" + std::to_string(params / 1000000) + "_e" + std::to_string(epochs));
      const sim::TrainResult result = sim::DdpTrainer(cfg).run();
      run.log_param("parameters", params);
      run.log_param("samples_seen", result.samples_seen);
      run.log_param("final_loss", result.final_loss, core::IoRole::kOutput);
      ASSERT_TRUE(run.finish().ok());

      // Harvest back from the document, not from the in-memory result.
      const auto record = analysis::harvest_record(run.document()).take();
      points.push_back({record.features.at("parameters"),
                        record.features.at("samples_seen"),
                        record.outputs.at("final_loss")});
    }
  }
  const auto law = analysis::fit_scaling_law(points);
  ASSERT_TRUE(law.ok()) << law.error().to_string();

  sim::TrainConfig held_out;
  held_out.model = sim::make_model(sim::Architecture::kMae, 200'000'000);
  held_out.ddp.devices = 128;
  held_out.epochs = 7;
  held_out.loss_noise_sigma = 0;
  const sim::TrainResult truth = sim::DdpTrainer(held_out).run();
  const double predicted =
      law.value().predict(2e8, static_cast<double>(truth.samples_seen));
  EXPECT_NEAR(predicted, truth.final_loss, truth.final_loss * 0.02);
}

}  // namespace
}  // namespace provml
