// PlanRegistry: versioned plan cache, shared weight pools, zero-downtime
// hot swap. Registration must memoize on (fingerprint, shape class),
// version fleets must share unchanged weight blocks, int8 lowerings must
// materialize lazily and cache, swap_active must flip new acquires
// instantly while draining the old epoch — and the whole thing must
// survive an 8-thread open/step/submit hammer concurrent with a swap
// loop, every result bit-identical to a pinned single-version mirror
// (TSan-clean; see the PlanRegistry entries in ci.yml).
#include "runtime/plan_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"
#include "serve/inference_server.hpp"
#include "serve/session_manager.hpp"
#include "server_requests.hpp"
#include "tensor/error.hpp"

namespace pit::runtime {
namespace {

constexpr index_t kSteps = 64;

/// TEMPONet sized for tests; train-mode forward seeds the BN statistics
/// that fold into the compiled weights.
std::unique_ptr<models::TempoNet> make_net(std::uint64_t seed,
                                           models::TempoNetConfig& cfg) {
  cfg.input_length = kSteps;
  cfg.channel_scale = 0.25;
  RandomEngine rng(seed);
  auto net = std::make_unique<models::TempoNet>(
      cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  net->train();
  net->forward(Tensor::randn(Shape{8, cfg.input_channels, kSteps}, rng));
  net->eval();
  return net;
}

/// Nudges one conv layer's weights in place (shared tensor handle), the
/// way a fine-tune touches one layer and leaves the rest byte-identical.
void retrain_layer(models::TempoNet& net, std::size_t conv_idx, int round) {
  Tensor w = net.temporal_convs()[conv_idx]->parameters()[0];
  float* d = w.data();
  for (index_t i = 0; i < w.numel(); ++i) {
    d[i] += 0.005F * static_cast<float>(
                         std::cos(0.07 * static_cast<double>(i)) + round);
  }
}

data::DataLoader make_calib(std::unique_ptr<data::TensorDataset>& keep,
                            index_t channels, std::uint64_t seed) {
  RandomEngine rng(seed);
  std::vector<Tensor> rows;
  std::vector<Tensor> targets;
  for (int i = 0; i < 8; ++i) {
    rows.push_back(Tensor::randn(Shape{channels, kSteps}, rng));
    targets.push_back(Tensor::zeros(Shape{1}));
  }
  keep = std::make_unique<data::TensorDataset>(std::move(rows),
                                               std::move(targets));
  return data::DataLoader(*keep, 4, /*shuffle=*/false);
}

/// Deterministic per-step input shared by mirrors and hammer threads.
void fill_step(index_t t, float* out, index_t c) {
  for (index_t i = 0; i < c; ++i) {
    out[i] = std::sin(0.2F * static_cast<float>(t + 1)) +
             0.05F * static_cast<float>(i);
  }
}

/// Reference trace: `steps` streaming steps of `plan` on a fresh context.
std::vector<float> stream_trace(const CompiledPlan& plan, index_t steps) {
  ExecutionContext ctx;
  const auto ic = static_cast<std::size_t>(plan.input_channels());
  const auto oc = static_cast<std::size_t>(plan.output_channels());
  std::vector<float> in(ic);
  std::vector<float> out(oc);
  std::vector<float> trace;
  trace.reserve(static_cast<std::size_t>(steps) * oc);
  for (index_t t = 0; t < steps; ++t) {
    fill_step(t, in.data(), plan.input_channels());
    plan.step(in.data(), out.data(), ctx);
    trace.insert(trace.end(), out.begin(), out.end());
  }
  return trace;
}

bool same_floats(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(PlanRegistry, MemoizesRegistrationsAndSharesBlocksAcrossVersions) {
  auto registry = std::make_shared<PlanRegistry>();
  models::TempoNetConfig cfg;
  const auto net = make_net(17, cfg);
  int cold_compiles = 0;
  const auto compile = [&](WeightPool& pool) {
    ++cold_compiles;
    return compile_stream_backbone(*net, kSteps, &pool);
  };

  const std::uint64_t fp1 = weights_fingerprint(*net);
  EXPECT_EQ(registry->register_version("m", fp1, "stream", compile), 1u);
  EXPECT_EQ(cold_compiles, 1);
  // Identical fingerprint + shape class: served from the memo, no
  // compile, no new version.
  EXPECT_EQ(registry->register_version("m", fp1, "stream", compile), 1u);
  EXPECT_EQ(cold_compiles, 1);
  EXPECT_EQ(registry->num_versions("m"), 1u);
  EXPECT_EQ(registry->stats().compile_hits, 1u);

  // Two more versions, each one retrained layer away from the last.
  retrain_layer(*net, 3, 1);
  EXPECT_EQ(registry->register_version("m", weights_fingerprint(*net),
                                       "stream", compile),
            2u);
  retrain_layer(*net, 3, 2);
  EXPECT_EQ(registry->register_version("m", weights_fingerprint(*net),
                                       "stream", compile),
            3u);
  EXPECT_EQ(cold_compiles, 3);
  EXPECT_EQ(registry->num_versions("m"), 3u);
  EXPECT_EQ(registry->active_version("m"), 1u);  // first stays active

  // Every unchanged layer's packed blocks are physically shared.
  const ModelMemory mem = registry->memory("m");
  EXPECT_GT(mem.logical_bytes, mem.resident_bytes);
  EXPECT_GE(mem.dedup_ratio(), 1.5);
  const ModelMemory whole = registry->memory();
  EXPECT_EQ(whole.logical_bytes, mem.logical_bytes);

  // The same weights registered under a second tenant name reuse the
  // memoized plan outright.
  EXPECT_EQ(registry->register_version("tenant-b", weights_fingerprint(*net),
                                       "stream", compile),
            1u);
  EXPECT_EQ(cold_compiles, 3);
  EXPECT_EQ(registry->stats().compile_hits, 2u);
}

TEST(PlanRegistry, RegisterPlanIsIdempotentPerPlanObject) {
  auto registry = std::make_shared<PlanRegistry>();
  models::TempoNetConfig cfg;
  const auto net = make_net(19, cfg);
  const auto plan = compile_stream_backbone(*net, kSteps);
  EXPECT_EQ(registry->register_plan("m", plan), 1u);
  EXPECT_EQ(registry->register_plan("m", plan), 1u);
  EXPECT_EQ(registry->num_versions("m"), 1u);
  const PlanLease lease = registry->acquire("m");
  EXPECT_EQ(lease.plan().get(), plan.get());
  EXPECT_EQ(lease.version(), 1u);
}

TEST(PlanRegistry, VersionsOfOneModelMustShareGeometry) {
  auto registry = std::make_shared<PlanRegistry>();
  models::TempoNetConfig cfg;
  const auto net = make_net(23, cfg);
  registry->register_version("m", weights_fingerprint(*net), "stream",
                             [&](WeightPool& pool) {
                               return compile_stream_backbone(*net, kSteps,
                                                              &pool);
                             });
  // Same weights compiled as a windowed classifier: different output
  // geometry, so it cannot join the stream model's version list.
  EXPECT_THROW(registry->register_version("m", weights_fingerprint(*net),
                                          "window",
                                          [&](WeightPool& pool) {
                                            return compile_plan(*net, &pool);
                                          }),
               Error);
  EXPECT_EQ(registry->num_versions("m"), 1u);
}

TEST(PlanRegistry, Int8LoweringIsLazyCachedAndGatesAcquire) {
  auto registry = std::make_shared<PlanRegistry>();
  models::TempoNetConfig cfg;
  const auto net = make_net(29, cfg);
  registry->register_version("m", weights_fingerprint(*net), "stream",
                             [&](WeightPool& pool) {
                               return compile_stream_backbone(*net, kSteps,
                                                              &pool);
                             });
  // No lowering materialized yet: the int8 acquire path must refuse
  // rather than silently serve fp32.
  EXPECT_THROW(registry->acquire("m", PlanDtype::kInt8), Error);

  std::unique_ptr<data::TensorDataset> keep;
  const data::DataLoader calib = make_calib(keep, cfg.input_channels, 31);
  const auto lowered = registry->quantized("m", 1, calib);
  ASSERT_NE(lowered, nullptr);
  // Second call: cached, same plan object, no recalibration.
  EXPECT_EQ(registry->quantized("m", 1, calib).get(), lowered.get());
  const PlanRegistryStats stats = registry->stats();
  EXPECT_EQ(stats.lowerings, 1u);
  EXPECT_EQ(stats.lowering_hits, 1u);

  const PlanLease lease = registry->acquire("m", PlanDtype::kInt8);
  EXPECT_EQ(lease.plan().get(), lowered.get());
  EXPECT_EQ(lease.version(), 1u);
}

TEST(PlanRegistry, SwapFlipsAcquiresInstantlyAndBlocksUntilDrained) {
  std::weak_ptr<const CompiledPlan> w1;
  std::weak_ptr<const CompiledPlan> w2;
  {
    auto registry = std::make_shared<PlanRegistry>();
    models::TempoNetConfig cfg;
    const auto net = make_net(37, cfg);
    const auto compile = [&](WeightPool& pool) {
      return compile_stream_backbone(*net, kSteps, &pool);
    };
    registry->register_version("m", weights_fingerprint(*net), "stream",
                               compile);
    retrain_layer(*net, 2, 1);
    registry->register_version("m", weights_fingerprint(*net), "stream",
                               compile);

    PlanLease held = registry->acquire("m");  // pins v1's epoch
    w1 = held.plan();
    std::atomic<bool> swapped{false};
    std::thread swapper([&] {
      registry->swap_active("m", 2);
      swapped.store(true);
    });
    // The swap cannot complete while the lease's ticket is live...
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(swapped.load());
    // ...but new acquires already land on v2 — that is the zero-downtime
    // contract: flip first, drain after.
    const PlanLease fresh = registry->acquire("m");
    EXPECT_EQ(fresh.version(), 2u);
    w2 = fresh.plan();
    EXPECT_NE(w1.lock().get(), w2.lock().get());

    held.release();
    swapper.join();
    EXPECT_TRUE(swapped.load());
    EXPECT_EQ(registry->active_version("m"), 2u);
    EXPECT_EQ(registry->stats().swaps, 1u);

    // Swapping to the already-active version is a no-op, not a deadlock.
    registry->swap_active("m", 2);
  }
  // Registry gone, leases gone: every plan's refcount reached zero.
  EXPECT_TRUE(w1.expired());
  EXPECT_TRUE(w2.expired());
}

TEST(PlanRegistry, SingleHandleAdapterWrapsOnePlan) {
  models::TempoNetConfig cfg;
  const auto net = make_net(41, cfg);
  const auto plan = compile_stream_backbone(*net, kSteps);
  const PlanHandle handle = PlanHandle::single(plan);
  EXPECT_EQ(handle.acquire().plan().get(), plan.get());
  EXPECT_EQ(handle.registry()->active_version(handle.model()), 1u);

  serve::SessionManager manager(plan);  // legacy ctor rides the adapter
  const auto id = manager.open();
  EXPECT_EQ(manager.session_version(id), 1u);
}

// The swap-under-load satellite: 8 threads hammer open/step/submit while
// the main thread swaps versions in a loop. Every streamed output must be
// bit-identical to the pinned single-version mirror for the version the
// session resolved at open; every served window must match exactly one
// version's reference forward (a torn plan would match none); and once
// traffic drains, every version plan's refcount is back to the pre-load
// baseline (and zero after teardown).
TEST(PlanRegistrySwap, SwapUnderLoadBitIdenticalToPinnedMirrors) {
  constexpr int kVersions = 3;
  constexpr index_t kSeqSteps = 10;
  constexpr int kSwapRounds = 30;

  std::vector<std::weak_ptr<const CompiledPlan>> graveyard;
  {
    auto registry = std::make_shared<PlanRegistry>();

    // ---- fleet: "m" streamed fp32+int8, "w" windowed fp32 -------------
    models::TempoNetConfig stream_cfg;
    const auto stream_net = make_net(43, stream_cfg);
    models::TempoNetConfig window_cfg;
    const auto window_net = make_net(47, window_cfg);
    std::unique_ptr<data::TensorDataset> keep;
    const data::DataLoader calib =
        make_calib(keep, stream_cfg.input_channels, 53);

    // Pinned mirrors per version: plan pointers captured at registration
    // (swap to each version to read it back through acquire()).
    std::vector<std::shared_ptr<const CompiledPlan>> fp32_plans;
    std::vector<std::shared_ptr<const CompiledPlan>> int8_plans;
    std::vector<std::shared_ptr<const CompiledPlan>> window_plans;
    for (int v = 0; v < kVersions; ++v) {
      if (v > 0) {
        retrain_layer(*stream_net, 3, v);
        retrain_layer(*window_net, 4, v);
      }
      const auto sv = registry->register_version(
          "m", weights_fingerprint(*stream_net), "stream",
          [&](WeightPool& pool) {
            return compile_stream_backbone(*stream_net, kSteps, &pool);
          });
      registry->register_version("w", weights_fingerprint(*window_net),
                                 "window", [&](WeightPool& pool) {
                                   return compile_plan(*window_net, &pool);
                                 });
      int8_plans.push_back(registry->quantized("m", sv, calib));
      registry->swap_active("m", sv);
      registry->swap_active("w", sv);
      fp32_plans.push_back(registry->acquire("m").plan());
      window_plans.push_back(registry->acquire("w").plan());
    }
    registry->swap_active("m", 1);
    registry->swap_active("w", 1);

    // ---- reference traces computed on the pinned mirrors ---------------
    std::vector<std::vector<float>> fp32_trace;
    std::vector<std::vector<float>> int8_trace;
    std::vector<std::vector<float>> window_out;
    RandomEngine sample_rng(59);
    const Tensor sample = Tensor::randn(
        Shape{window_cfg.input_channels, kSteps}, sample_rng);
    Tensor batched = Tensor::zeros(
        Shape{1, window_cfg.input_channels, kSteps});
    std::memcpy(batched.data(), sample.data(),
                static_cast<std::size_t>(sample.numel()) * sizeof(float));
    for (int v = 0; v < kVersions; ++v) {
      fp32_trace.push_back(stream_trace(*fp32_plans[v], kSeqSteps));
      int8_trace.push_back(stream_trace(*int8_plans[v], kSeqSteps));
      ExecutionContext ctx;
      const Tensor y = window_plans[v]->forward(batched, ctx);
      window_out.emplace_back(y.data(), y.data() + y.numel());
    }

    // ---- serving stack on the registry ---------------------------------
    serve::SessionManager fp32_mgr(
        PlanHandle(registry, "m", PlanDtype::kF32));
    serve::SessionManager int8_mgr(
        PlanHandle(registry, "m", PlanDtype::kInt8));
    serve::ServerOptions server_opts;
    server_opts.threads = 2;
    serve::InferenceServer server(PlanHandle(registry, "w"), server_opts);

    const auto baseline_refs = [&] {
      std::vector<long> refs;
      for (const auto& p : fp32_plans) refs.push_back(p.use_count());
      for (const auto& p : int8_plans) refs.push_back(p.use_count());
      for (const auto& p : window_plans) refs.push_back(p.use_count());
      return refs;
    };
    const std::vector<long> refs_before = baseline_refs();

    std::atomic<bool> stop{false};
    std::atomic<int> mismatches{0};
    std::atomic<int> torn{0};
    const auto oc = static_cast<std::size_t>(
        fp32_plans[0]->output_channels());
    const auto ic = static_cast<std::size_t>(
        fp32_plans[0]->input_channels());

    const auto stream_hammer = [&](serve::SessionManager& mgr,
                                   const std::vector<std::vector<float>>&
                                       trace) {
      std::vector<float> in(ic);
      std::vector<float> out(oc);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto id = mgr.open();
        // The version is pinned at open; a swap mid-sequence must not
        // change what this session executes.
        const auto v = static_cast<std::size_t>(mgr.session_version(id) - 1);
        for (index_t t = 0; t < kSeqSteps; ++t) {
          fill_step(t, in.data(), static_cast<index_t>(ic));
          mgr.step(id, in.data(), out.data());
          if (!same_floats(out.data(),
                           trace[v].data() + static_cast<std::size_t>(t) * oc,
                           oc)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        mgr.close(id);
      }
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back(stream_hammer, std::ref(fp32_mgr),
                           std::cref(fp32_trace));
    }
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back(stream_hammer, std::ref(int8_mgr),
                           std::cref(int8_trace));
    }
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const Tensor got = test::submit_blocking(server, sample.clone());
          bool matched = false;
          for (const auto& want : window_out) {
            if (static_cast<std::size_t>(got.numel()) == want.size() &&
                same_floats(got.data(), want.data(), want.size())) {
              matched = true;
              break;
            }
          }
          if (!matched) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    // ---- the swap loop --------------------------------------------------
    for (int r = 0; r < kSwapRounds; ++r) {
      const auto next = static_cast<std::uint64_t>((r % kVersions) + 1);
      for (const char* model : {"m", "w"}) {
        if (registry->active_version(model) != next) {
          registry->swap_active(model, next);
          EXPECT_EQ(registry->active_version(model), next);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
    for (std::thread& t : threads) {
      t.join();
    }
    server.shutdown();

    EXPECT_EQ(mismatches.load(), 0)
        << "a swapped session diverged from its pinned-version mirror";
    EXPECT_EQ(torn.load(), 0)
        << "a served window matched no version — torn plan";
    EXPECT_GE(registry->stats().swaps, static_cast<std::uint64_t>(
                                           kSwapRounds));

    // Traffic drained: every plan's refcount is back to the pre-load
    // baseline (no leaked leases, slots, or batch pins).
    EXPECT_EQ(baseline_refs(), refs_before);

    for (const auto& p : fp32_plans) graveyard.emplace_back(p);
    for (const auto& p : int8_plans) graveyard.emplace_back(p);
    for (const auto& p : window_plans) graveyard.emplace_back(p);
  }
  // Managers, server, mirrors, and registry destroyed: zero refs left.
  for (const auto& w : graveyard) {
    EXPECT_TRUE(w.expired());
  }
}

}  // namespace
}  // namespace pit::runtime
