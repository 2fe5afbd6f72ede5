// Multi-tenant plan-registry bench: versioned fleets, shared weight
// pools, and hot-swap latency under mixed fp32/int8 traffic.
//
// Builds a 2-model fleet on one PlanRegistry — a streamable TempoNet
// backbone ("hr-stream", served fp32 AND int8 by two SessionManagers)
// and a windowed TempoNet ("hr-window", served by an InferenceServer) —
// with 3 versions per model where consecutive versions differ in ONE
// retrained conv layer. Measures:
//
//   dedup    — logical vs resident packed-weight bytes across the
//              3-version fleet (unchanged layers share physical blocks),
//   memo     — registering an identical version again vs a cold compile
//              (the registry answers from its (fingerprint, shape) memo),
//   hot swap — swap_active() latency p50/p99 while traffic threads step
//              sessions and submit windows nonstop (the swap drains
//              in-flight work off the old epoch before returning).
//
// Emits BENCH_registry.json; scripts/check_bench.py gates the dedup
// ratio (>= 1.5x) and the memoized-recompile speedup (>= 10x).
//
//   ./bench_registry [--quick]
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"
#include "runtime/plan_registry.hpp"
#include "serve/inference_server.hpp"
#include "serve/session_manager.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace pit;
using bench::ms_between;
using bench::now_ms;
using bench::Percentiles;
using bench::percentiles;
using clock_type = bench::BenchClock;

constexpr index_t kSteps = 64;

/// "Retrains" exactly one conv layer: every other layer's packed blocks
/// stay bytewise identical, which is the sharing shape a version fleet
/// has in practice (one fine-tuned layer, the rest untouched).
void perturb_one_layer(models::TempoNet& model, std::size_t conv_idx,
                       int round) {
  nn::Module* conv = model.temporal_convs()[conv_idx];
  Tensor w = conv->parameters()[0];  // shared handle: edits hit the model
  float* d = w.data();
  for (index_t i = 0; i < w.numel(); ++i) {
    d[i] += 0.01F * static_cast<float>(
                        std::sin(0.1 * static_cast<double>(i) + round));
  }
}

std::unique_ptr<models::TempoNet> make_model(std::uint64_t seed,
                                             models::TempoNetConfig& cfg) {
  cfg.input_length = kSteps;
  cfg.channel_scale = 0.25;
  RandomEngine rng(seed);
  auto model = std::make_unique<models::TempoNet>(
      cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  model->train();
  model->forward(Tensor::randn(Shape{8, cfg.input_channels, kSteps}, rng));
  model->eval();
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  const int kVersions = 3;
  const int swap_rounds = quick ? 24 : 96;

  auto registry = std::make_shared<runtime::PlanRegistry>();

  // ---- fleet registration: 3 versions, one retrained layer apart -------
  models::TempoNetConfig stream_cfg;
  const auto stream_model_ptr = make_model(59, stream_cfg);
  models::TempoNet& stream_model = *stream_model_ptr;
  models::TempoNetConfig window_cfg;
  const auto window_model_ptr = make_model(61, window_cfg);
  models::TempoNet& window_model = *window_model_ptr;

  RandomEngine calib_rng(97);
  std::vector<Tensor> calib_rows;
  std::vector<Tensor> calib_targets;
  for (int i = 0; i < 8; ++i) {
    calib_rows.push_back(
        Tensor::randn(Shape{stream_cfg.input_channels, kSteps}, calib_rng));
    calib_targets.push_back(Tensor::zeros(Shape{1}));
  }
  data::TensorDataset calib(std::move(calib_rows), std::move(calib_targets));
  data::DataLoader calib_loader(calib, 4, /*shuffle=*/false);

  std::vector<double> cold_ms;
  std::uint64_t last_stream_fp = 0;
  for (int v = 0; v < kVersions; ++v) {
    if (v > 0) {
      perturb_one_layer(stream_model, 3, v);
      perturb_one_layer(window_model, 3, v);
    }
    last_stream_fp = runtime::weights_fingerprint(stream_model);
    const double t0 = now_ms();
    registry->register_version(
        "hr-stream", last_stream_fp, "temponet:stream:64",
        [&](runtime::WeightPool& pool) {
          return runtime::compile_stream_backbone(stream_model, kSteps,
                                                  &pool);
        });
    cold_ms.push_back(now_ms() - t0);
    registry->register_version(
        "hr-window", runtime::weights_fingerprint(window_model),
        "temponet:window:64", [&](runtime::WeightPool& pool) {
          return runtime::compile_plan(window_model, &pool);
        });
    // int8 lowering of every stream version (the kInt8 manager below
    // serves whichever version is active at each open).
    registry->quantized("hr-stream", static_cast<std::uint64_t>(v + 1),
                        calib_loader);
  }

  // ---- memoized recompile: identical fingerprint, no compile ----------
  const int memo_reps = quick ? 200 : 1000;
  const double memo_t0 = now_ms();
  for (int i = 0; i < memo_reps; ++i) {
    registry->register_version(
        "hr-stream", last_stream_fp, "temponet:stream:64",
        [&](runtime::WeightPool& pool) {
          return runtime::compile_stream_backbone(stream_model, kSteps,
                                                  &pool);
        });
  }
  const double memo_ms = (now_ms() - memo_t0) / memo_reps;
  const double cold_med = cold_ms[cold_ms.size() / 2];
  const double memo_speedup = memo_ms > 0.0 ? cold_med / memo_ms : 0.0;

  // ---- dedup accounting across the fleet ------------------------------
  const runtime::ModelMemory stream_mem = registry->memory("hr-stream");
  const runtime::ModelMemory fleet_mem = registry->memory();

  std::printf("plan registry: %d models x %d versions (one layer retrained "
              "per version)\n",
              2, kVersions);
  std::printf("  hr-stream fleet: %zu KiB logical, %zu KiB resident, "
              "dedup %.2fx\n",
              stream_mem.logical_bytes / 1024,
              stream_mem.resident_bytes / 1024, stream_mem.dedup_ratio());
  std::printf("  whole registry:  %zu KiB logical, %zu KiB resident, "
              "dedup %.2fx\n",
              fleet_mem.logical_bytes / 1024, fleet_mem.resident_bytes / 1024,
              fleet_mem.dedup_ratio());
  std::printf("  cold compile %.3f ms, memoized re-register %.5f ms "
              "(%.0fx faster)\n",
              cold_med, memo_ms, memo_speedup);

  // ---- hot swap under mixed fp32/int8 traffic -------------------------
  serve::SessionManager fp32_mgr(
      runtime::PlanHandle(registry, "hr-stream", runtime::PlanDtype::kF32));
  serve::SessionManager int8_mgr(
      runtime::PlanHandle(registry, "hr-stream", runtime::PlanDtype::kInt8));
  serve::ServerOptions server_opts;
  server_opts.threads = 2;
  serve::InferenceServer server(
      runtime::PlanHandle(registry, "hr-window", runtime::PlanDtype::kF32),
      server_opts);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> fp32_steps{0};
  std::atomic<std::uint64_t> int8_steps{0};
  std::atomic<std::uint64_t> window_requests{0};

  const index_t in_c = stream_cfg.input_channels;
  const index_t out_c = fp32_mgr.plan()->output_channels();
  const auto stream_traffic = [&](serve::SessionManager& mgr,
                                  std::atomic<std::uint64_t>& counter) {
    std::vector<float> in(static_cast<std::size_t>(in_c), 0.25F);
    std::vector<float> out(static_cast<std::size_t>(out_c), 0.0F);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto id = mgr.open();
      for (int s = 0; s < 32 && !stop.load(std::memory_order_relaxed); ++s) {
        mgr.step(id, in.data(), out.data());
        counter.fetch_add(1, std::memory_order_relaxed);
      }
      mgr.close(id);
    }
  };

  std::vector<std::thread> traffic;
  for (int i = 0; i < 3; ++i) {
    traffic.emplace_back(stream_traffic, std::ref(fp32_mgr),
                         std::ref(fp32_steps));
  }
  for (int i = 0; i < 2; ++i) {
    traffic.emplace_back(stream_traffic, std::ref(int8_mgr),
                         std::ref(int8_steps));
  }
  traffic.emplace_back([&] {
    RandomEngine rng(71);
    const Tensor sample =
        Tensor::randn(Shape{window_cfg.input_channels, kSteps}, rng);
    while (!stop.load(std::memory_order_relaxed)) {
      bench::submit_blocking(server, sample.clone());
      window_requests.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<double> swap_ms;
  swap_ms.reserve(static_cast<std::size_t>(swap_rounds) * 2);
  for (int i = 0; i < swap_rounds; ++i) {
    for (const char* model : {"hr-stream", "hr-window"}) {
      const auto next =
          static_cast<std::uint64_t>((i % kVersions) + 1);
      if (registry->active_version(model) == next) {
        continue;
      }
      const auto t0 = clock_type::now();
      registry->swap_active(model, next);
      swap_ms.push_back(ms_between(t0, clock_type::now()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : traffic) {
    t.join();
  }
  server.shutdown();

  const Percentiles swap_pct = percentiles(swap_ms);
  const runtime::PlanRegistryStats stats = registry->stats();

  std::printf("  %zu hot swaps under load: p50 %.3f ms, p99 %.3f ms\n",
              swap_ms.size(), swap_pct.p50, swap_pct.p99);
  std::printf("  traffic drained: %llu fp32 steps, %llu int8 steps, %llu "
              "window requests\n",
              static_cast<unsigned long long>(fp32_steps.load()),
              static_cast<unsigned long long>(int8_steps.load()),
              static_cast<unsigned long long>(window_requests.load()));
  std::printf("  registry: %llu compiles, %llu memo hits, %llu lowerings, "
              "%llu lowering hits, pool dedup %.2fx\n",
              static_cast<unsigned long long>(stats.compiles),
              static_cast<unsigned long long>(stats.compile_hits),
              static_cast<unsigned long long>(stats.lowerings),
              static_cast<unsigned long long>(stats.lowering_hits),
              stats.pool.dedup_ratio());

  FILE* json = bench::open_bench_json("BENCH_registry.json");
  if (json == nullptr) {
    return 1;
  }
  std::fprintf(json, "{\n  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(json, "  \"models\": 2,\n");
  std::fprintf(json, "  \"versions_per_model\": %d,\n", kVersions);
  std::fprintf(json, "  \"stream_fleet\": {\"logical_bytes\": %zu, "
                     "\"resident_bytes\": %zu, \"dedup_ratio\": %.4f},\n",
               stream_mem.logical_bytes, stream_mem.resident_bytes,
               stream_mem.dedup_ratio());
  std::fprintf(json, "  \"fleet\": {\"logical_bytes\": %zu, "
                     "\"resident_bytes\": %zu, \"dedup_ratio\": %.4f},\n",
               fleet_mem.logical_bytes, fleet_mem.resident_bytes,
               fleet_mem.dedup_ratio());
  std::fprintf(json, "  \"cold_compile_ms\": %.4f,\n", cold_med);
  std::fprintf(json, "  \"memo_register_ms\": %.6f,\n", memo_ms);
  std::fprintf(json, "  \"memoized_recompile_speedup\": %.2f,\n",
               memo_speedup);
  std::fprintf(json, "  \"swaps\": %zu,\n", swap_ms.size());
  std::fprintf(json, "  \"swap_p50_ms\": %.4f,\n", swap_pct.p50);
  std::fprintf(json, "  \"swap_p99_ms\": %.4f,\n", swap_pct.p99);
  std::fprintf(json, "  \"traffic\": {\"fp32_steps\": %llu, "
                     "\"int8_steps\": %llu, \"window_requests\": %llu},\n",
               static_cast<unsigned long long>(fp32_steps.load()),
               static_cast<unsigned long long>(int8_steps.load()),
               static_cast<unsigned long long>(window_requests.load()));
  std::fprintf(json, "  \"registry\": {\"compiles\": %llu, "
                     "\"compile_hits\": %llu, \"lowerings\": %llu, "
                     "\"lowering_hits\": %llu, \"swaps\": %llu, "
                     "\"leases\": %llu, \"pool_dedup_ratio\": %.4f}\n",
               static_cast<unsigned long long>(stats.compiles),
               static_cast<unsigned long long>(stats.compile_hits),
               static_cast<unsigned long long>(stats.lowerings),
               static_cast<unsigned long long>(stats.lowering_hits),
               static_cast<unsigned long long>(stats.swaps),
               static_cast<unsigned long long>(stats.leases),
               stats.pool.dedup_ratio());
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_registry.json\n");
  return 0;
}
