#include "core/search.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tensor/error.hpp"

namespace pit::core {

std::vector<SearchPoint> pareto_front(std::vector<SearchPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const SearchPoint& a, const SearchPoint& b) {
              if (a.total_params != b.total_params) {
                return a.total_params < b.total_params;
              }
              return a.val_loss < b.val_loss;
            });
  std::vector<SearchPoint> front;
  double best_loss = std::numeric_limits<double>::infinity();
  for (const SearchPoint& p : points) {
    if (p.val_loss < best_loss) {
      front.push_back(p);
      best_loss = p.val_loss;
    }
  }
  return front;
}

DilationSearch::DilationSearch(ModelFactory factory, LossFn loss,
                               ParamsFn params_fn)
    : factory_(std::move(factory)),
      loss_(std::move(loss)),
      params_fn_(std::move(params_fn)) {
  PIT_CHECK(factory_ != nullptr, "DilationSearch: null model factory");
  PIT_CHECK(loss_ != nullptr, "DilationSearch: null loss");
  PIT_CHECK(params_fn_ != nullptr, "DilationSearch: null params function");
}

SearchResult DilationSearch::run(data::DataLoader& train,
                                 data::DataLoader& val,
                                 const SearchConfig& config) {
  PIT_CHECK(!config.lambdas.empty() && !config.warmup_epochs.empty(),
            "DilationSearch: empty sweep grid");
  PIT_CHECK(config.workers >= 0,
            "DilationSearch: workers = " << config.workers);

  // Every grid point trains an INDEPENDENT model, so the sweep is
  // embarrassingly parallel. Two things keep the result identical across
  // worker counts: models come out of the (stateful) factory in grid
  // order before any training starts, and each point trains on private
  // DataLoader copies snapshotted here — a point's shuffle sequence never
  // depends on which points ran before it.
  struct GridPoint {
    double lambda = 0.0;
    int warmup = 0;
    PitModelBundle bundle;
  };
  std::vector<GridPoint> grid;
  grid.reserve(config.warmup_epochs.size() * config.lambdas.size());
  for (const int warmup : config.warmup_epochs) {
    for (const double lambda : config.lambdas) {
      GridPoint point;
      point.lambda = lambda;
      point.warmup = warmup;
      point.bundle = factory_();
      PIT_CHECK(point.bundle.model != nullptr &&
                    !point.bundle.pit_layers.empty(),
                "DilationSearch: factory returned an empty bundle");
      grid.push_back(std::move(point));
    }
  }

  SearchResult result;
  result.all.resize(grid.size());
  std::atomic<std::size_t> next{0};
  std::mutex io_mutex;
  std::exception_ptr first_error;

  const auto run_point = [&](std::size_t i) {
    GridPoint& gp = grid[i];
    PitTrainerOptions options = config.trainer;
    options.lambda = gp.lambda;
    options.warmup_epochs = gp.warmup;
    PitTrainer trainer(*gp.bundle.model, gp.bundle.pit_layers, loss_,
                       options);
    data::DataLoader train_copy = train;  // private shuffle state
    data::DataLoader val_copy = val;
    PitTrainingResult run_result = trainer.run(train_copy, val_copy);

    SearchPoint point;
    point.lambda = gp.lambda;
    point.warmup_epochs = gp.warmup;
    point.dilations = run_result.dilations;
    point.searchable_params = run_result.searchable_params;
    point.total_params = params_fn_(run_result.dilations);
    point.val_loss = run_result.val_loss;
    point.seconds = run_result.total_seconds;
    if (config.trainer.verbose) {
      const std::lock_guard<std::mutex> lock(io_mutex);
      std::printf("search: lambda=%.1e warmup=%d -> params=%lld loss=%.4f\n",
                  gp.lambda, gp.warmup,
                  static_cast<long long>(point.total_params),
                  point.val_loss);
    }
    result.all[i] = std::move(point);
    gp.bundle = PitModelBundle{};  // free the trained model right away
  };

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= grid.size()) {
        return;
      }
      try {
        run_point(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(io_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  };

  std::size_t workers = config.workers > 0
                            ? static_cast<std::size_t>(config.workers)
                            : static_cast<std::size_t>(std::max(
                                  1U, std::thread::hardware_concurrency()));
  workers = std::min(workers, grid.size());
  if (workers <= 1) {
    worker();
  } else {
    // Grid threads already fill the cores: one OpenMP thread each, so
    // workers x intra-op teams cannot oversubscribe the host. The kernels
    // give identical results at any thread count.
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&worker] {
#ifdef _OPENMP
        omp_set_num_threads(1);
#endif
        worker();
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
  result.pareto = pareto_front(result.all);
  return result;
}

SmallMediumLarge select_small_medium_large(
    const std::vector<SearchPoint>& points, index_t reference_params) {
  PIT_CHECK(!points.empty(), "select_small_medium_large: no points");
  const SearchPoint* small = &points[0];
  const SearchPoint* large = &points[0];
  const SearchPoint* medium = &points[0];
  for (const SearchPoint& p : points) {
    if (p.total_params < small->total_params) {
      small = &p;
    }
    if (p.total_params > large->total_params) {
      large = &p;
    }
    const auto dist = [reference_params](const SearchPoint& q) {
      return std::llabs(static_cast<long long>(q.total_params) -
                        static_cast<long long>(reference_params));
    };
    if (dist(p) < dist(*medium)) {
      medium = &p;
    }
  }
  return {*small, *medium, *large};
}

}  // namespace pit::core
