// Full pipeline on the paper's flagship use case: heart-rate estimation
// from wrist PPG + accelerometer (synthetic PPG-Dalia stand-in).
//
//   1. build the TEMPONet seed (maximal filters, d = 1, PIT layers),
//   2. run Algorithm 1 (warmup -> prune -> fine-tune),
//   3. export the searched network to plain dilated convolutions,
//   4. lower it to the int8 compiled plan, score that plan, and estimate
//      latency/energy on the GAP8 SoC model.
#include <cstdio>

#include "core/network_export.hpp"
#include "core/search.hpp"
#include "core/trainer.hpp"
#include "data/dataloader.hpp"
#include "data/ppg_dalia.hpp"
#include "hw/deploy.hpp"
#include "models/temponet.hpp"
#include "nn/losses.hpp"
#include "quant/quantize.hpp"
#include "runtime/quantize_plan.hpp"

int main() {
  using namespace pit;
  std::printf("PIT on TEMPONet / PPG-Dalia (synthetic): search -> export -> "
              "deploy\n");
  std::printf("==================================================================\n\n");

  // CPU-sized configuration (channel_scale 0.25, 64-sample windows); the
  // full-size architecture is used for the deployment estimate below.
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;

  data::PpgDaliaOptions data_opts;
  data_opts.num_windows = 208;
  data_opts.window_len = 64;
  data_opts.seed = 11;
  data::PpgDaliaDataset dataset(data_opts);
  data::SubsetDataset train_view(dataset, 0, 160);
  data::SubsetDataset val_view(dataset, 160, 48);
  data::DataLoader train(train_view, 32, true, 21);
  data::DataLoader val(val_view, 32, false);
  std::printf("dataset: %lld train / %lld val windows, mean HR %.1f BPM\n\n",
              static_cast<long long>(train_view.size()),
              static_cast<long long>(val_view.size()), dataset.mean_hr());

  // 1. Searchable seed.
  RandomEngine rng(31);
  std::vector<core::PITConv1d*> pit_layers;
  models::TempoNet model(cfg, core::pit_conv_factory(rng, pit_layers), rng);
  std::printf("seed TEMPONet: %lld params, 7 searchable convs (d = 1)\n",
              static_cast<long long>(model.num_params()));

  // 2. Algorithm 1.
  core::PitTrainerOptions options;
  options.lambda = 3e-5;
  options.warmup_epochs = 3;
  options.max_prune_epochs = 16;
  options.finetune_epochs = 12;
  options.patience = 4;
  options.lr_weights = 2e-3;
  options.lr_gamma = 2e-2;
  auto loss = [](const Tensor& p, const Tensor& t) {
    return nn::mae_loss(p, t);
  };
  core::PitTrainer trainer(model, pit_layers, loss, options);
  const auto result = trainer.run(train, val);
  std::printf("\nsearch done in %.1f s\n", result.total_seconds);
  std::printf("  dilations: (");
  for (std::size_t i = 0; i < result.dilations.size(); ++i) {
    std::printf("%s%lld", i > 0 ? ", " : "",
                static_cast<long long>(result.dilations[i]));
  }
  std::printf(")\n  val MAE:   %.3f BPM\n", result.val_loss);

  // 3. Export to a plain dilated network.
  RandomEngine export_rng(41);
  models::TempoNet exported(
      cfg,
      models::dilated_conv_factory(export_rng,
                                   core::extract_dilations(pit_layers)),
      export_rng);
  core::export_weights(model, pit_layers, exported);
  exported.eval();
  const double exported_mae = core::evaluate_loss(exported, loss, val);
  std::printf("\nexported network: %lld params, val MAE %.3f BPM\n",
              static_cast<long long>(exported.num_params()), exported_mae);

  // 4. int8 deployment: compile the exported network and lower it to the
  // int8 program (per-channel s8 weights, u8 activations calibrated on the
  // training windows), then score the plan that actually executes.
  const auto int8_plan = runtime::compile_quantized(exported, train);
  runtime::ExecutionContext ctx;
  double quant_total = 0.0;
  index_t quant_examples = 0;
  for (index_t b = 0; b < val.num_batches(); ++b) {
    const data::Batch batch = val.batch(b);
    const index_t n = batch.inputs.dim(0);
    quant_total += static_cast<double>(
                       loss(int8_plan->forward(batch.inputs, ctx),
                            batch.targets)
                           .item()) *
                   static_cast<double>(n);
    quant_examples += n;
  }
  const double quant_mae = quant_total / static_cast<double>(quant_examples);
  std::printf("int8 plan: val MAE %.3f BPM (%+.3f vs fp32), %lld B of s8 "
              "weights\n",
              quant_mae, quant_mae - exported_mae,
              static_cast<long long>(int8_plan->quant_weight_bytes()));

  // GAP8 deployment estimate (full-size arch).
  models::TempoNetConfig full;  // paper-sized
  const auto layers = hw::describe_temponet(full, result.dilations);
  hw::Gap8Model gap8;
  const auto perf = gap8.network_perf(layers);
  const index_t full_params =
      models::TempoNet::params_with_dilations(full, result.dilations);
  std::printf("\nGAP8 estimate for the full-size architecture:\n");
  std::printf("  weights:  %lld (%lld kB int8)\n",
              static_cast<long long>(full_params),
              static_cast<long long>(quant::int8_model_bytes(full_params) /
                                     1024));
  std::printf("  latency:  %.1f ms @ 100 MHz (paper's seed: 112.6 ms, "
              "hand-tuned: 58.8 ms)\n",
              perf.latency_ms);
  std::printf("  energy:   %.1f mJ (paper's seed: 29.5 mJ)\n", perf.energy_mj);
  return 0;
}
