// Workload `pit_search`: a fixed core::DilationSearch grid (Algorithm 1:
// warmup -> prune -> fine-tune) on the scaled searchable TEMPONet over a
// seeded synthetic PPG-Dalia set, with patience disabled so every run
// does identical work.
//
// Why: this is the paper's own workload. All of its work is in tensor,
// nn, core and data and none is in runtime, serve or net, so it is the
// no-change control for every serving change and the target for kernel
// and autograd changes.
//
// Untraced run: training-step latency with one trainer alone on the host
// (low) and with one trainer per grid worker (high), then the grid itself
// for training windows per second. Traced run: hand-driven training steps
// with spans around each layer call, one PitTrainer run for its phase
// times, and the grid for its parallel efficiency.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/pit_conv1d.hpp"
#include "core/search.hpp"
#include "core/trainer.hpp"
#include "data/dataloader.hpp"
#include "data/ppg_dalia.hpp"
#include "models/temponet.hpp"
#include "nn/losses.hpp"
#include "nn/optim.hpp"
#include "trace.hpp"

namespace pitbench {
namespace {

using namespace pit;

constexpr index_t kWindowLen = 64;
constexpr index_t kTrainWindows = 320;
constexpr index_t kValWindows = 64;
constexpr index_t kBatch = 32;
// The latency op: one training step on a micro-batch this small, so a
// phase of a few seconds holds the >= 1000 steps a p99 needs.
constexpr index_t kStepBatch = 4;
constexpr int kGridWorkers = 4;
constexpr int kPruneEpochs = 12;
constexpr int kFinetuneEpochs = 10;
constexpr std::uint64_t kModelSeed = 1000;
constexpr int kSetupReps = 9;
constexpr std::size_t kChunk = 1000;
constexpr int kSegments = 8;

const std::vector<double>& grid_lambdas() {
  static const std::vector<double> v = {1e-6, 3e-5};
  return v;
}
const std::vector<int>& grid_warmups() {
  static const std::vector<int> v = {2, 4};
  return v;
}

models::TempoNetConfig model_config() {
  models::TempoNetConfig cfg;
  cfg.input_length = kWindowLen;
  cfg.channel_scale = 0.25;
  cfg.dropout = 0.1F;
  return cfg;
}

core::LossFn mae() {
  return [](const Tensor& p, const Tensor& t) { return nn::mae_loss(p, t); };
}

struct Data {
  std::unique_ptr<data::PpgDaliaDataset> dataset;
  std::unique_ptr<data::SubsetDataset> train_view;
  std::unique_ptr<data::SubsetDataset> val_view;
  std::unique_ptr<data::DataLoader> train;
  std::unique_ptr<data::DataLoader> val;
};

Data make_data(std::uint64_t seed) {
  Data d;
  data::PpgDaliaOptions o;
  o.num_windows = kTrainWindows + kValWindows;
  o.window_len = kWindowLen;
  o.seed = seed;
  d.dataset = std::make_unique<data::PpgDaliaDataset>(o);
  d.train_view = std::make_unique<data::SubsetDataset>(*d.dataset, 0, kTrainWindows);
  d.val_view = std::make_unique<data::SubsetDataset>(*d.dataset, kTrainWindows, kValWindows);
  d.train = std::make_unique<data::DataLoader>(*d.train_view, kBatch, true, seed + 100);
  d.val = std::make_unique<data::DataLoader>(*d.val_view, kBatch, false);
  return d;
}

/// One searchable TEMPONet with its own loader and optimizer, stepped by
/// hand (the same calls the trainer makes per batch).
struct Trainer {
  std::unique_ptr<models::TempoNet> model;
  std::vector<core::PITConv1d*> layers;
  std::unique_ptr<nn::Adam> opt;
  std::unique_ptr<data::DataLoader> loader;
  index_t next = 0;

  Trainer(const Data& d, std::uint64_t seed) {
    RandomEngine rng(seed);
    const models::TempoNetConfig cfg = model_config();
    model = std::make_unique<models::TempoNet>(cfg, core::pit_conv_factory(rng, layers), rng);
    model->train();
    opt = std::make_unique<nn::Adam>(model->parameters(), 1e-3);
    loader = std::make_unique<data::DataLoader>(*d.train_view, kStepBatch, true, seed);
  }

  /// One training step; with a recorder, a span around each layer call.
  void step(SpanRecorder* rec, std::uint64_t id) {
    if (next % loader->num_batches() == 0) {
      loader->reshuffle();
    }
    std::int32_t root = -1;
    std::int32_t sp = -1;
    if (rec != nullptr) {
      root = rec->open("core.train_step", id);
      sp = rec->open("data.batch", id, root);
    }
    data::Batch batch = loader->batch(next++ % loader->num_batches());
    if (rec != nullptr) {
      rec->close(sp);
    }
    model->zero_grad();
    if (rec != nullptr) {
      sp = rec->open("core.forward", id, root);
    }
    Tensor pred = model->forward(batch.inputs);
    if (rec != nullptr) {
      rec->close(sp);
      sp = rec->open("nn.loss", id, root);
    }
    Tensor loss = nn::mae_loss(pred, batch.targets);
    if (rec != nullptr) {
      rec->close(sp);
      sp = rec->open("tensor.backward", id, root);
    }
    loss.backward();
    if (rec != nullptr) {
      rec->close(sp);
      sp = rec->open("nn.optim", id, root);
    }
    opt->step();
    if (rec != nullptr) {
      rec->close(sp);
      rec->close(root);
    }
  }
};

/// Steps `trainers` concurrently (one thread each) for `seconds`;
/// returns every step's latency in milliseconds.
std::vector<double> step_latencies(const std::vector<Trainer*>& trainers, double seconds) {
  std::vector<std::vector<double>> lat(trainers.size());
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < trainers.size(); ++i) {
    pool.emplace_back([&, i] {
      while (now_ns() < stop) {
        const std::int64_t a = now_ns();
        trainers[i]->step(nullptr, 0);
        lat[i].push_back(ns_to_ms(now_ns() - a));
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  std::vector<double> all;
  for (const auto& v : lat) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

core::SearchConfig grid_config() {
  core::SearchConfig sc;
  sc.lambdas = grid_lambdas();
  sc.warmup_epochs = grid_warmups();
  sc.trainer.max_prune_epochs = kPruneEpochs;
  sc.trainer.finetune_epochs = kFinetuneEpochs;
  // Patience past every phase's epoch budget: no early stop, so every
  // run trains exactly the same number of epochs.
  sc.trainer.patience = kPruneEpochs + kFinetuneEpochs + 10;
  sc.workers = kGridWorkers;
  return sc;
}

/// Training windows one grid run processes (forward+backward+update each).
double grid_windows() {
  double epochs = 0.0;
  for (const int w : grid_warmups()) {
    epochs += static_cast<double>(grid_lambdas().size()) *
              static_cast<double>(w + kPruneEpochs + kFinetuneEpochs);
  }
  return epochs * static_cast<double>(kTrainWindows);
}

core::ModelFactory factory() {
  auto counter = std::make_shared<std::uint64_t>(kModelSeed);
  return [counter]() {
    RandomEngine rng((*counter)++);
    core::PitModelBundle b;
    std::vector<core::PITConv1d*> layers;
    b.model = std::make_unique<models::TempoNet>(model_config(),
                                                 core::pit_conv_factory(rng, layers), rng);
    b.pit_layers = std::move(layers);
    return b;
  };
}

core::SearchResult run_grid(Data& d) {
  const models::TempoNetConfig cfg = model_config();
  core::DilationSearch search(factory(), mae(), [cfg](const std::vector<index_t>& dil) {
    return models::TempoNet::params_with_dilations(cfg, dil);
  });
  return search.run(*d.train, *d.val, grid_config());
}

/// Output checks on the grid: dilations are powers of two within each
/// layer's seed receptive field, val losses are finite. Returns the
/// digest of (dilations, val loss) over the grid.
std::uint64_t check_grid(const core::SearchResult& r, Report& rep) {
  const std::vector<models::TemporalConvSpec> specs =
      models::TempoNet::conv_specs(model_config());
  std::uint64_t h = kDigestSeed;
  rep.check(r.all.size() == grid_lambdas().size() * grid_warmups().size(),
            "grid returned the wrong number of points");
  std::size_t bad = 0;
  for (const core::SearchPoint& p : r.all) {
    bool ok = p.dilations.size() == specs.size() && std::isfinite(p.val_loss);
    for (std::size_t i = 0; ok && i < p.dilations.size(); ++i) {
      const index_t dil = p.dilations[i];
      ok = dil >= 1 && (dil & (dil - 1)) == 0 && dil <= specs[i].receptive_field();
    }
    bad += ok ? 0 : 1;
    h = digest(h, p.dilations.data(), sizeof(index_t) * p.dilations.size());
    h = digest(h, &p.val_loss, sizeof(p.val_loss));
  }
  rep.check(bad == 0, std::to_string(bad) + " grid points with invalid dilations or loss");
  rep.ops(r.all.size(), bad);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Report run_pit_search(const RunOptions& opts) {
  Report rep;
  std::vector<double> setup_s;
  Data d;
  std::vector<std::unique_ptr<Trainer>> trainers;
  const int reps = opts.trace ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    trainers.clear();
    const std::int64_t t0 = now_ns();
    d = make_data(opts.seed);
    for (int w = 0; w < kGridWorkers; ++w) {
      trainers.push_back(std::make_unique<Trainer>(d, kModelSeed + 500 + static_cast<std::uint64_t>(w)));
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  rep.config("model", "temponet_scaled searchable (PIT seed), 4x64 windows");
  rep.config("dataset", "synthetic PPG-Dalia, 320 train + 64 val windows, batch 32");
  rep.config("grid", "lambda {1e-6, 3e-5} x warmup {2, 4}, prune 12, finetune 10, patience off");
  rep.config("step_batch", static_cast<double>(kStepBatch));
  rep.config("grid.workers", kGridWorkers);
  rep.config("grid.train_windows", grid_windows());
  const double secs = opts.seconds;

  if (!opts.trace) {
    for (auto& t : trainers) {  // warm-up: first-touch allocations
      t->step(nullptr, 0);
    }
    // One trainer alone and one per grid worker, in alternating segments.
    std::vector<Trainer*> all;
    for (auto& t : trainers) {
      all.push_back(t.get());
    }
    const std::vector<Trainer*> one = {all[0]};
    std::vector<double> low_lat;
    std::vector<double> high_lat;
    for (int i = 0; i < kSegments; ++i) {
      const std::vector<double> l = step_latencies(one, 0.25 * secs / kSegments);
      const std::vector<double> h = step_latencies(all, 0.25 * secs / kSegments);
      low_lat.insert(low_lat.end(), l.begin(), l.end());
      high_lat.insert(high_lat.end(), h.begin(), h.end());
    }
    const LatencySummary lo = chunked_percentiles(low_lat, kChunk);
    const LatencySummary hi = chunked_percentiles(high_lat, kChunk);

    const double gcpu0 = process_cpu_ms();
    const std::int64_t g0 = now_ns();
    const core::SearchResult grid = run_grid(d);
    const double grid_s = static_cast<double>(now_ns() - g0) / 1e9;
    const double grid_cpu = process_cpu_ms() - gcpu0;
    const std::uint64_t h = check_grid(grid, rep);

    rep.metric("setup_s", median(setup_s), "s");
    rep.config("p50_ms.low", lo.p50);
    rep.config("p99_ms.low", lo.p99);
    rep.config("p50_ms.high", hi.p50);
    rep.config("p99_ms.high", hi.p99);
    rep.metric("ops_per_s", grid_windows() / grid_s, "1/s");
    rep.metric("cpu_ms_per_kop", 1000.0 * grid_cpu / grid_windows(), "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.config("samples.low", static_cast<double>(lo.samples));
    rep.config("samples.high", static_cast<double>(hi.samples));
    rep.config("train_windows_per_s", grid_windows() / grid_s);
    rep.config("grid.wall_s", grid_s);
    rep.config("grid.digest", hex(h));
    rep.ops(lo.samples + hi.samples, 0);
  } else {
    SpanRecorder rec;
    Trainer& t = *trainers[0];
    for (int i = 0; i < 3; ++i) {
      t.step(nullptr, 0);
    }
    const double steps_s = 0.1 * secs;
    std::vector<double> plain;
    const std::int64_t stop = now_ns() + static_cast<std::int64_t>(steps_s * 1e9);
    while (now_ns() < stop) {
      const std::int64_t a = now_ns();
      t.step(nullptr, 0);
      plain.push_back(ns_to_ms(now_ns() - a));
    }
    const std::size_t n = plain.size();
    for (std::size_t i = 0; i < n; ++i) {
      t.step(&rec, i + 1);
    }
    std::vector<double> eval_ms;
    const core::LossFn loss = mae();
    for (int i = 0; i < 5; ++i) {
      const std::int32_t sp = rec.open("core.evaluate", 0);
      const double v = core::evaluate_loss(*t.model, loss, *d.val);
      rec.close(sp);
      eval_ms.push_back(ns_to_ms(rec.spans()[static_cast<std::size_t>(sp)].end_ns -
                                 rec.spans()[static_cast<std::size_t>(sp)].start_ns));
      rep.check(std::isfinite(v), "validation loss is not finite");
    }
    const std::vector<SpanSummary> sums = rec.summarize();
    auto p50_ms = [&](const char* name) {
      for (const SpanSummary& s : sums) {
        if (s.name == name) {
          return s.p50_us / 1e3;
        }
      }
      return 0.0;
    };
    const double traced_step = p50_ms("core.train_step");
    const double plain_step = median(plain);

    // Phase times of one grid point (the first), through PitTrainer.
    Trainer solo(d, kModelSeed);
    core::PitTrainerOptions po = grid_config().trainer;
    po.lambda = grid_lambdas()[0];
    po.warmup_epochs = grid_warmups()[0];
    core::PitTrainer trainer(*solo.model, solo.layers, loss, po);
    data::DataLoader train_copy = *d.train;
    data::DataLoader val_copy = *d.val;
    const core::PitTrainingResult tr = trainer.run(train_copy, val_copy);
    rep.check(std::isfinite(tr.val_loss), "PitTrainer val loss is not finite");

    const std::int64_t g0 = now_ns();
    const core::SearchResult grid = run_grid(d);
    const double grid_s = static_cast<double>(now_ns() - g0) / 1e9;
    const std::uint64_t h = check_grid(grid, rep);
    double point_s = 0.0;
    for (const core::SearchPoint& p : grid.all) {
      point_s += p.seconds;
    }

    rep.metric("data.batch_ms", p50_ms("data.batch"), "ms");
    rep.metric("core.fwd_ms", p50_ms("core.forward"), "ms");
    rep.metric("nn.loss_ms", p50_ms("nn.loss"), "ms");
    rep.metric("tensor.backward_ms", p50_ms("tensor.backward"), "ms");
    rep.metric("nn.optim_ms", p50_ms("nn.optim"), "ms");
    rep.metric("core.eval_ms", median(eval_ms), "ms");
    rep.metric("core.warmup_s", tr.warmup_seconds, "s");
    rep.metric("core.prune_s", tr.prune_seconds, "s");
    rep.metric("core.finetune_s", tr.finetune_seconds, "s");
    rep.metric("core.grid_parallel_eff", point_s / (grid_s * kGridWorkers), "ratio");
    rep.metric("trace.overhead_frac",
               plain_step > 0 ? (traced_step - plain_step) / plain_step : 0.0, "ratio");
    for (const SpanSummary& s : sums) {
      if (s.name == "core.train_step") {
        rep.config("train_step.self_ms", s.p50_self_us / 1e3);
      }
    }
    rep.config("traced_steps", static_cast<double>(n));
    rep.config("grid.digest", hex(h));
    rep.ops(2 * n, 0);
    const std::string path =
        opts.out_dir + "/trace-pit_search-seed" + std::to_string(opts.seed) + ".json";
    rep.check(rec.write(path, 50000), "cannot write " + path);
    rep.config("trace.file", path);
  }
  return rep;
}

}  // namespace pitbench
