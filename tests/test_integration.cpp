// Cross-module integration: the full paper pipeline on miniature workloads.
//
//   synthetic data -> searchable seed -> Algorithm 1 -> export -> int8
//   quantization -> GAP8 deployment estimate
//
// These tests exercise every library together and pin down the end-to-end
// invariants the benches rely on.
#include <gtest/gtest.h>

#include "core/network_export.hpp"
#include "core/search.hpp"
#include "core/trainer.hpp"
#include "data/dataloader.hpp"
#include "data/nottingham.hpp"
#include "data/ppg_dalia.hpp"
#include "hw/deploy.hpp"
#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "nn/losses.hpp"
#include "runtime/quantize_plan.hpp"

namespace pit {
namespace {

core::LossFn mae() {
  return [](const Tensor& p, const Tensor& t) { return nn::mae_loss(p, t); };
}

core::LossFn nll() {
  return [](const Tensor& p, const Tensor& t) {
    return nn::polyphonic_nll(p, t);
  };
}

TEST(Integration, TempoNetPpgFullPipeline) {
  // Tiny TEMPONet on tiny synthetic PPG windows.
  models::TempoNetConfig cfg;
  cfg.input_length = 32;
  cfg.channel_scale = 0.125;  // channels (4, 8, 16)
  cfg.dropout = 0.0F;

  data::PpgDaliaOptions data_opts;
  data_opts.num_windows = 72;
  data_opts.window_len = 32;
  data_opts.seed = 3;
  data::PpgDaliaDataset dataset(data_opts);
  data::SubsetDataset train_view(dataset, 0, 56);
  data::SubsetDataset val_view(dataset, 56, 16);
  data::DataLoader train(train_view, 16, true, 5);
  data::DataLoader val(val_view, 16, false);

  RandomEngine rng(17);
  std::vector<core::PITConv1d*> layers;
  models::TempoNet model(cfg, core::pit_conv_factory(rng, layers), rng);
  ASSERT_EQ(layers.size(), 7u);

  core::PitTrainerOptions options;
  options.lambda = 1e-4;
  options.warmup_epochs = 3;
  options.max_prune_epochs = 10;
  options.finetune_epochs = 12;
  options.patience = 4;
  options.lr_weights = 5e-3;
  options.lr_gamma = 2e-2;
  core::PitTrainer trainer(model, layers, mae(), options);
  const auto result = trainer.run(train, val);

  // Search produced a valid architecture.
  ASSERT_EQ(result.dilations.size(), 7u);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_GE(result.dilations[i], 1);
    EXPECT_LE(result.dilations[i], core::max_dilation(layers[i]->rf_max()));
    EXPECT_TRUE(layers[i]->gamma().frozen());
  }
  // MAE must beat the trivial "predict nothing" level (~mean HR, > 30 BPM
  // away on average for this generator).
  EXPECT_LT(result.val_loss, 40.0);

  // Export: identical predictions through the plain dilated network.
  RandomEngine rng2(18);
  models::TempoNet exported(
      cfg, models::dilated_conv_factory(rng2, result.dilations), rng2);
  core::export_weights(model, layers, exported);
  model.eval();
  exported.eval();
  const double src_loss = core::evaluate_loss(model, mae(), val);
  const double dst_loss = core::evaluate_loss(exported, mae(), val);
  EXPECT_NEAR(src_loss, dst_loss, 1e-3);
  EXPECT_EQ(exported.num_params(),
            models::TempoNet::params_with_dilations(cfg, result.dilations));

  // int8 quantization moves the loss only slightly — measured on the
  // program that actually executes: the exported net compiled and lowered
  // to per-channel s8 weights / u8 activations, calibrated on the
  // training windows.
  const auto int8_plan = runtime::compile_quantized(exported, train);
  runtime::ExecutionContext ctx;
  double q_total = 0.0;
  index_t q_examples = 0;
  for (index_t b = 0; b < val.num_batches(); ++b) {
    const data::Batch batch = val.batch(b);
    const index_t n = batch.inputs.dim(0);
    const Tensor pred = int8_plan->forward(batch.inputs, ctx);
    q_total += static_cast<double>(nn::mae_loss(pred, batch.targets).item()) *
               static_cast<double>(n);
    q_examples += n;
  }
  const double q_loss = q_total / static_cast<double>(q_examples);
  EXPECT_LT(std::abs(q_loss - dst_loss), 2.0);

  // GAP8 deployment: the searched net must be no slower than the seed.
  hw::Gap8Model gap8;
  const auto searched =
      gap8.network_perf(hw::describe_temponet(cfg, result.dilations));
  const auto seed = gap8.network_perf(
      hw::describe_temponet(cfg, {1, 1, 1, 1, 1, 1, 1}));
  EXPECT_LE(searched.latency_ms, seed.latency_ms + 1e-9);
  EXPECT_GT(searched.latency_ms, 0.0);
}

TEST(Integration, ResTcnNottinghamSearchImprovesOverInit) {
  models::ResTcnConfig cfg;
  cfg.hidden_channels = 8;
  cfg.dropout = 0.0F;

  data::NottinghamOptions data_opts;
  data_opts.num_sequences = 40;
  data_opts.seq_len = 33;
  data_opts.seed = 9;
  data::NottinghamDataset dataset(data_opts);
  data::SubsetDataset train_view(dataset, 0, 32);
  data::SubsetDataset val_view(dataset, 32, 8);
  data::DataLoader train(train_view, 8, true, 7);
  data::DataLoader val(val_view, 8, false);

  RandomEngine rng(23);
  std::vector<core::PITConv1d*> layers;
  models::ResTCN model(cfg, core::pit_conv_factory(rng, layers), rng);
  const double init_loss = core::evaluate_loss(model, nll(), val);

  core::PitTrainerOptions options;
  options.lambda = 3e-5;
  options.warmup_epochs = 2;
  options.max_prune_epochs = 6;
  options.finetune_epochs = 4;
  options.patience = 3;
  options.lr_weights = 3e-3;
  options.lr_gamma = 2e-2;
  core::PitTrainer trainer(model, layers, nll(), options);
  const auto result = trainer.run(train, val);

  EXPECT_LT(result.val_loss, init_loss) << "training must beat random init";
  ASSERT_EQ(result.dilations.size(), 8u);
  // Parameter accounting stays consistent end to end.
  EXPECT_EQ(result.searchable_params, core::total_effective_params(layers));
}

TEST(Integration, SearchPointsAreReproduciblePerSeed) {
  // The same factory seed and loader seeds produce identical search output.
  models::TempoNetConfig cfg;
  cfg.input_length = 32;
  cfg.channel_scale = 0.125;
  cfg.dropout = 0.0F;
  auto run_once = [&cfg]() {
    data::PpgDaliaOptions d;
    d.num_windows = 48;
    d.window_len = 32;
    d.seed = 5;
    data::PpgDaliaDataset dataset(d);
    data::SubsetDataset train_view(dataset, 0, 40);
    data::SubsetDataset val_view(dataset, 40, 8);
    data::DataLoader train(train_view, 8, true, 11);
    data::DataLoader val(val_view, 8, false);
    RandomEngine rng(29);
    std::vector<core::PITConv1d*> layers;
    models::TempoNet model(cfg, core::pit_conv_factory(rng, layers), rng);
    core::PitTrainerOptions options;
    options.lambda = 1e-4;
    options.warmup_epochs = 1;
    options.max_prune_epochs = 4;
    options.finetune_epochs = 2;
    options.patience = 2;
    core::PitTrainer trainer(model, layers, mae(), options);
    return trainer.run(train, val);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.dilations, b.dilations);
  EXPECT_DOUBLE_EQ(a.val_loss, b.val_loss);
  EXPECT_EQ(a.searchable_params, b.searchable_params);
}

}  // namespace
}  // namespace pit
