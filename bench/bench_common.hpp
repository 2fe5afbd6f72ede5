// Shared setup for the table/figure reproduction benches.
//
// All training benches use channel-scaled models and small synthetic
// datasets so they run on a laptop-class CPU in minutes; every binary
// prints the scale it uses plus the paper's reference numbers next to the
// measured ones. Absolute values are not comparable — orderings, ratios and
// crossovers are (see DESIGN.md "Scaling note" and EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pit_conv1d.hpp"
#include "core/search.hpp"
#include "core/trainer.hpp"
#include "data/dataloader.hpp"
#include "data/nottingham.hpp"
#include "data/ppg_dalia.hpp"
#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "nn/losses.hpp"
#include "runtime/compile_models.hpp"
#include "serve/inference_server.hpp"
#include "tensor/error.hpp"

namespace pit::bench {

// ------------------------------------------------- timing and percentiles
//
// Shared by the serving/runtime benches (bench_serve, bench_stream,
// bench_quant_runtime, bench_registry) so latency accounting and JSON
// emission cannot drift between them.

using BenchClock = std::chrono::steady_clock;

inline double ms_between(BenchClock::time_point a, BenchClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double us_between(BenchClock::time_point a, BenchClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             BenchClock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `fn` after one warm-up call (arena growth,
/// page faults, thread-pool spin-up land in the warm-up, not the figure).
template <typename Fn>
double time_min_ms(Fn&& fn, int reps) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    fn();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;  ///< tail beyond p99; loadgen_frontend reports it
};

/// Sorts `samples` in place and reads the nearest-rank p50/p99/p99.9.
inline Percentiles percentiles(std::vector<double>& samples) {
  Percentiles out;
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    return samples[static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1))];
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  out.p999 = at(0.999);
  return out;
}

/// Opens a BENCH_*.json for writing, reporting the failure the way every
/// bench binary does (caller returns nonzero on nullptr).
inline FILE* open_bench_json(const char* path) {
  FILE* json = std::fopen(path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
  }
  return json;
}

// ---------------------------------------------------------------- serving

/// Blocking request over InferenceServer::try_submit for closed-loop bench
/// clients: parks the calling thread until the completion delivers the
/// output, and rethrows an execution error. A rejected request (queue full
/// or server shut down) throws instead of silently dropping a sample.
inline Tensor submit_blocking(serve::InferenceServer& server, Tensor input) {
  std::promise<Tensor> result;
  std::future<Tensor> out = result.get_future();
  const bool accepted = server.try_submit(
      std::move(input), [&result](Tensor&& y, std::exception_ptr err) {
        if (err != nullptr) {
          result.set_exception(err);
        } else {
          result.set_value(std::move(y));
        }
      });
  PIT_CHECK(accepted, "submit_blocking: InferenceServer::try_submit "
                      "rejected the request (queue full or shut down)");
  return out.get();
}

// ---------------------------------------------------------- configurations

/// CPU-sized TEMPONet: channels (8, 16, 32), 64-step windows.
inline models::TempoNetConfig scaled_temponet_config() {
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  cfg.dropout = 0.1F;
  return cfg;
}

/// CPU-sized ResTCN: hidden width 16, 48-step rolls.
inline models::ResTcnConfig scaled_restcn_config() {
  models::ResTcnConfig cfg;
  cfg.hidden_channels = 16;
  cfg.dropout = 0.05F;
  return cfg;
}

inline constexpr index_t kNottinghamSeqLen = 49;  // 48 usable frames

/// The model the network front end serves: a seeded, BN-warmed TEMPONet
/// at bench scale, compiled both ways. The seed fixes the weights, so
/// example_frontend_server and loadgen_frontend (in-process mode) serve
/// and drive the same function.
struct ServedPlans {
  std::shared_ptr<const runtime::CompiledPlan> submit_plan;  ///< windowed
  std::shared_ptr<const runtime::CompiledPlan> stream_plan;  ///< backbone
};

inline ServedPlans make_served_temponet_plans(std::uint64_t seed = 17) {
  models::TempoNetConfig cfg = scaled_temponet_config();
  RandomEngine rng(seed);
  models::TempoNet model(cfg, models::dilated_conv_factory(rng, cfg.dilations),
                         rng);
  model.train();
  model.forward(
      Tensor::randn(Shape{8, cfg.input_channels, cfg.input_length}, rng));
  model.eval();
  ServedPlans out;
  out.submit_plan = runtime::compile_plan(model);
  out.stream_plan = runtime::compile_stream_backbone(model, cfg.input_length);
  return out;
}

// ----------------------------------------------------------------- loaders

struct Loaders {
  std::unique_ptr<data::Dataset> dataset;  // keeps the storage alive
  std::unique_ptr<data::SubsetDataset> train_view;
  std::unique_ptr<data::SubsetDataset> val_view;
  std::unique_ptr<data::DataLoader> train;
  std::unique_ptr<data::DataLoader> val;
};

inline Loaders make_ppg_loaders(index_t train_windows = 160,
                                index_t val_windows = 48,
                                std::uint64_t seed = 1) {
  Loaders out;
  data::PpgDaliaOptions opts;
  opts.num_windows = train_windows + val_windows;
  opts.window_len = 64;
  opts.seed = seed;
  auto ds = std::make_unique<data::PpgDaliaDataset>(opts);
  out.train_view =
      std::make_unique<data::SubsetDataset>(*ds, 0, train_windows);
  out.val_view = std::make_unique<data::SubsetDataset>(*ds, train_windows,
                                                       val_windows);
  out.train = std::make_unique<data::DataLoader>(*out.train_view, 32, true,
                                                 seed + 100);
  out.val = std::make_unique<data::DataLoader>(*out.val_view, 32, false);
  out.dataset = std::move(ds);
  return out;
}

inline Loaders make_nottingham_loaders(index_t train_seqs = 96,
                                       index_t val_seqs = 32,
                                       std::uint64_t seed = 1) {
  Loaders out;
  data::NottinghamOptions opts;
  opts.num_sequences = train_seqs + val_seqs;
  opts.seq_len = kNottinghamSeqLen;
  opts.seed = seed;
  auto ds = std::make_unique<data::NottinghamDataset>(opts);
  out.train_view = std::make_unique<data::SubsetDataset>(*ds, 0, train_seqs);
  out.val_view =
      std::make_unique<data::SubsetDataset>(*ds, train_seqs, val_seqs);
  out.train = std::make_unique<data::DataLoader>(*out.train_view, 16, true,
                                                 seed + 100);
  out.val = std::make_unique<data::DataLoader>(*out.val_view, 16, false);
  out.dataset = std::move(ds);
  return out;
}

// ------------------------------------------------------------------ losses

inline core::LossFn mae_loss_fn() {
  return [](const Tensor& pred, const Tensor& target) {
    return nn::mae_loss(pred, target);
  };
}

inline core::LossFn nll_loss_fn() {
  return [](const Tensor& pred, const Tensor& target) {
    return nn::polyphonic_nll(pred, target);
  };
}

// -------------------------------------------------------- model factories

/// Fresh searchable TEMPONet per search run (independent init per call).
inline core::ModelFactory temponet_pit_factory(
    const models::TempoNetConfig& cfg, std::uint64_t base_seed) {
  auto counter = std::make_shared<std::uint64_t>(base_seed);
  return [cfg, counter]() {
    RandomEngine rng((*counter)++);
    core::PitModelBundle bundle;
    std::vector<core::PITConv1d*> layers;
    bundle.model = std::make_unique<models::TempoNet>(
        cfg, core::pit_conv_factory(rng, layers), rng);
    bundle.pit_layers = std::move(layers);
    return bundle;
  };
}

inline core::ModelFactory restcn_pit_factory(const models::ResTcnConfig& cfg,
                                             std::uint64_t base_seed) {
  auto counter = std::make_shared<std::uint64_t>(base_seed);
  return [cfg, counter]() {
    RandomEngine rng((*counter)++);
    core::PitModelBundle bundle;
    std::vector<core::PITConv1d*> layers;
    bundle.model = std::make_unique<models::ResTCN>(
        cfg, core::pit_conv_factory(rng, layers), rng);
    bundle.pit_layers = std::move(layers);
    return bundle;
  };
}

// --------------------------------------------------------------- printing

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("paper reference: %s\n", paper_ref);
  std::printf("(scaled CPU reproduction — compare shapes/ratios, not absolutes)\n");
  std::printf("================================================================\n");
}

inline std::string dilation_string(const std::vector<index_t>& dilations) {
  std::string out = "(";
  for (std::size_t i = 0; i < dilations.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += std::to_string(dilations[i]);
  }
  out += ")";
  return out;
}

/// Baseline (non-searchable) networks for reference points.
struct BaselinePoint {
  index_t params = 0;
  double val_loss = 0.0;
  double seconds = 0.0;
};

inline BaselinePoint train_temponet_baseline(
    const models::TempoNetConfig& cfg, const std::vector<index_t>& dilations,
    data::DataLoader& train, data::DataLoader& val, std::uint64_t seed,
    int max_epochs = 60, int patience = 6) {
  RandomEngine rng(seed);
  models::TempoNet model(cfg, models::dilated_conv_factory(rng, dilations),
                         rng);
  core::PlainTrainingOptions opts;
  opts.max_epochs = max_epochs;
  opts.patience = patience;
  opts.lr = 2e-3;
  const auto result = core::train_supervised(model, mae_loss_fn(), train, val,
                                             model.parameters(), opts);
  return {models::TempoNet::params_with_dilations(cfg, dilations),
          result.best_val_loss, result.seconds};
}

inline BaselinePoint train_restcn_baseline(
    const models::ResTcnConfig& cfg, const std::vector<index_t>& dilations,
    data::DataLoader& train, data::DataLoader& val, std::uint64_t seed,
    int max_epochs = 45, int patience = 6) {
  RandomEngine rng(seed);
  models::ResTCN model(cfg, models::dilated_conv_factory(rng, dilations), rng);
  core::PlainTrainingOptions opts;
  opts.max_epochs = max_epochs;
  opts.patience = patience;
  opts.lr = 2e-3;
  const auto result = core::train_supervised(model, nll_loss_fn(), train, val,
                                             model.parameters(), opts);
  return {models::ResTCN::params_with_dilations(cfg, dilations),
          result.best_val_loss, result.seconds};
}

}  // namespace pit::bench
