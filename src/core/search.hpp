// Design-space exploration: run Algorithm 1 across a grid of regularization
// strengths and warmup lengths (the two knobs the paper sweeps, Sec. IV-B)
// and collect the Pareto frontier in the (model size, task loss) plane —
// what Fig. 4 plots.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/trainer.hpp"
#include "nn/module.hpp"

namespace pit::core {

/// A freshly built searchable model: the owning module plus non-owning
/// pointers to its PIT layers in network order.
struct PitModelBundle {
  std::unique_ptr<nn::Module> model;
  std::vector<PITConv1d*> pit_layers;
};

/// Builds a new, independently initialized searchable model per search run.
using ModelFactory = std::function<PitModelBundle()>;

/// Maps learned per-layer dilations to the full architecture's parameter
/// count (searchable convs at alive taps + all fixed layers); bind
/// ResTCN::params_with_dilations / TempoNet::params_with_dilations here.
using ParamsFn = std::function<index_t(const std::vector<index_t>&)>;

struct SearchPoint {
  double lambda = 0.0;
  int warmup_epochs = 0;
  std::vector<index_t> dilations;
  index_t total_params = 0;       // via ParamsFn (full architecture)
  index_t searchable_params = 0;  // PIT layers only
  double val_loss = 0.0;
  double seconds = 0.0;
};

struct SearchConfig {
  std::vector<double> lambdas = {1e-7, 1e-6, 1e-5};
  std::vector<int> warmup_epochs = {2, 5};
  PitTrainerOptions trainer;  // lambda / warmup_epochs overridden per point
  /// Worker threads for the (lambda x warmup) grid. Every grid point is an
  /// independent model (fresh factory() build, private DataLoader copies),
  /// so points run concurrently; 0 picks min(grid size, hardware threads).
  /// With more than one worker, each runs its conv kernels on a single
  /// OpenMP thread (the grid already occupies the cores).
  /// Results are identical for every worker count: models are built in
  /// grid order before dispatch and each point's loaders start from the
  /// loader state at run() entry.
  int workers = 0;
};

struct SearchResult {
  std::vector<SearchPoint> all;
  std::vector<SearchPoint> pareto;  // sorted by ascending params
};

/// Points not dominated in (total_params, val_loss); both minimized.
/// Returned sorted by ascending parameter count.
std::vector<SearchPoint> pareto_front(std::vector<SearchPoint> points);

class DilationSearch {
 public:
  DilationSearch(ModelFactory factory, LossFn loss, ParamsFn params_fn);

  /// Sweeps the grid (in parallel per SearchConfig::workers) and returns
  /// all points plus their Pareto front. `result.all` is always in grid
  /// order (warmup-major, lambda-minor), regardless of worker count.
  SearchResult run(data::DataLoader& train, data::DataLoader& val,
                   const SearchConfig& config);

 private:
  ModelFactory factory_;
  LossFn loss_;
  ParamsFn params_fn_;
};

/// Table-I-style selection from a set of points: the smallest, the largest,
/// and the one closest in size to `reference_params` (the hand-tuned
/// network), in that order. Requires a non-empty input.
struct SmallMediumLarge {
  SearchPoint small;
  SearchPoint medium;
  SearchPoint large;
};
SmallMediumLarge select_small_medium_large(
    const std::vector<SearchPoint>& points, index_t reference_params);

}  // namespace pit::core
