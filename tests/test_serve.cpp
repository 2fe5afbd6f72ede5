// Serving layer: micro-batching InferenceServer and StreamSession.
#include "serve/inference_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "models/restcn.hpp"
#include "models/temponet.hpp"
#include "runtime/compile_models.hpp"
#include "serve/stream_session.hpp"
#include "server_requests.hpp"
#include "tensor/error.hpp"

namespace pit::serve {
namespace {

models::TempoNetConfig small_temponet_config() {
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  return cfg;
}

struct TempoNetFixture {
  TempoNetFixture()
      : rng(1201),
        model(small_temponet_config(),
              models::dilated_conv_factory(rng, {2, 2, 1, 4, 4, 8, 8}), rng) {
    model.train();
    model.forward(Tensor::randn(Shape{8, 4, 64}, rng));
    model.eval();
    plan = runtime::compile_plan(model);
  }

  /// One (4, 64) sample plus its reference output row via the module graph.
  std::pair<Tensor, Tensor> make_sample() {
    Tensor x = Tensor::randn(Shape{1, 4, 64}, rng);
    Tensor sample = Tensor::empty(Shape{4, 64});
    std::copy(x.data(), x.data() + x.numel(), sample.data());
    NoGradGuard guard;
    const Tensor y = model.forward(x);  // (1, classes)
    Tensor row = Tensor::empty(Shape{y.dim(1)});
    std::copy(y.data(), y.data() + y.numel(), row.data());
    return {std::move(sample), std::move(row)};
  }

  RandomEngine rng;
  models::TempoNet model;
  std::shared_ptr<const runtime::CompiledPlan> plan;
};

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0F;
  for (index_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// No-op completion for calls that must throw or be refused before a
/// callback could ever run.
void ignore_completion(Tensor&& /*out*/, std::exception_ptr /*err*/) {}

TEST(InferenceServer, ServedResultsMatchModuleForward) {
  TempoNetFixture fx;
  ServerOptions options;
  options.threads = 3;
  options.max_batch = 8;
  options.max_wait = std::chrono::microseconds(500);
  InferenceServer server(fx.plan, options);

  std::vector<Tensor> expected;
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 48; ++i) {
    auto [sample, ref] = fx.make_sample();
    expected.push_back(std::move(ref));
    futures.push_back(test::submit_future(server, std::move(sample)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Tensor out = futures[i].get();
    EXPECT_LT(max_abs_diff(out, expected[i]), 1e-4F) << "request " << i;
  }
  server.shutdown();  // joins the workers: stats are final afterwards
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 48u);
  EXPECT_EQ(stats.completed, 48u);
  EXPECT_GE(stats.batches, 1u);
}

TEST(InferenceServer, CoalescesConcurrentRequestsIntoBatches) {
  TempoNetFixture fx;
  ServerOptions options;
  options.threads = 1;  // one worker: every coalesce is visible in stats
  options.max_batch = 16;
  options.max_wait = std::chrono::milliseconds(5);
  InferenceServer server(fx.plan, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  std::vector<std::thread> clients;
  std::vector<Tensor> samples;
  for (int i = 0; i < kClients; ++i) {
    samples.push_back(fx.make_sample().first);
  }
  std::atomic<int> outputs{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const bool accepted = server.try_submit(
            samples[static_cast<std::size_t>(c)].clone(),
            [&outputs](Tensor&& out, std::exception_ptr err) {
              if (err == nullptr && out.defined()) {
                outputs.fetch_add(1);
              }
            });
        EXPECT_TRUE(accepted);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  server.shutdown();  // drains the queue and joins: stats are final
  EXPECT_EQ(outputs.load(), kClients * kPerClient);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  // Concurrent submits against one worker must have coalesced: strictly
  // fewer forwards than requests, and at least one real batch.
  EXPECT_LT(stats.batches, stats.requests);
  EXPECT_GE(stats.max_batch_executed, 2);
  EXPECT_GT(stats.mean_batch(), 1.0);
}

TEST(InferenceServer, DeadlineFlushesAPartialBatch) {
  TempoNetFixture fx;
  ServerOptions options;
  options.threads = 1;
  options.max_batch = 1024;  // never fills — only the deadline can flush
  options.max_wait = std::chrono::milliseconds(2);
  InferenceServer server(fx.plan, options);

  auto [sample, ref] = fx.make_sample();
  std::future<Tensor> fut = test::submit_future(server, std::move(sample));
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a lone request must be flushed by the deadline, not wait for "
         "max_batch";
  EXPECT_LT(max_abs_diff(fut.get(), ref), 1e-4F);
}

TEST(InferenceServer, ShutdownDrainsEveryQueuedRequest) {
  TempoNetFixture fx;
  ServerOptions options;
  options.threads = 2;
  options.max_batch = 4;
  options.max_wait = std::chrono::milliseconds(50);
  auto server = std::make_unique<InferenceServer>(fx.plan, options);

  constexpr std::size_t kRequests = 20;
  std::vector<Tensor> outputs(kRequests);
  std::vector<int> calls(kRequests, 0);
  std::vector<Tensor> expected;
  for (std::size_t i = 0; i < kRequests; ++i) {
    auto [sample, ref] = fx.make_sample();
    expected.push_back(std::move(ref));
    // Each callback writes only its own slot; shutdown() joins the
    // workers, which orders every write before the reads below.
    ASSERT_TRUE(server->try_submit(
        std::move(sample),
        [&outputs, &calls, i](Tensor&& out, std::exception_ptr err) {
          ++calls[i];
          if (err == nullptr) {
            outputs[i] = std::move(out);
          }
        }));
  }
  server->shutdown();
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(calls[i], 1) << "request " << i
                           << " was dropped or completed twice at shutdown";
    ASSERT_TRUE(outputs[i].defined()) << "request " << i << " failed";
    EXPECT_LT(max_abs_diff(outputs[i], expected[i]), 1e-4F);
  }
  EXPECT_FALSE(server->try_submit(fx.make_sample().first, ignore_completion));
  server.reset();  // double-shutdown via the destructor must be a no-op
}

// ---- try_submit admission: deterministic queue-full and shutdown cases ---

/// One worker whose batch window (10 s, max_batch 1024) stays open for the
/// whole test, so accepted requests sit in the queue until shutdown() —
/// the queue depth is exactly the number of accepted requests.
ServerOptions held_window_options() {
  ServerOptions options;
  options.threads = 1;
  options.max_queue = 4;
  options.max_batch = 1024;
  options.max_wait = std::chrono::seconds(10);
  return options;
}

TEST(InferenceServer, TrySubmitRejectsWhenTheQueueIsFull) {
  TempoNetFixture fx;
  InferenceServer server(fx.plan, held_window_options());
  std::atomic<int> calls{0};
  const auto count = [&calls](Tensor&& /*out*/, std::exception_ptr /*err*/) {
    calls.fetch_add(1);
  };
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(server.try_submit(fx.make_sample().first, count))
        << "request " << i << " fits in max_queue";
  }
  bool rejected_ran = false;
  EXPECT_FALSE(server.try_submit(
      fx.make_sample().first,
      [&rejected_ran](Tensor&& /*out*/, std::exception_ptr /*err*/) {
        rejected_ran = true;
      }))
      << "the 5th request must be refused: the queue holds max_queue";
  EXPECT_EQ(server.stats().requests, 4u);
  server.shutdown();
  EXPECT_EQ(calls.load(), 4);
  EXPECT_FALSE(rejected_ran) << "a refused request's callback must never run";
}

TEST(InferenceServer, TrySubmitShutdownFlushesEachCallbackExactlyOnce) {
  TempoNetFixture fx;
  InferenceServer server(fx.plan, held_window_options());
  constexpr std::size_t kQueued = 4;
  std::vector<Tensor> samples;
  std::vector<Tensor> outputs(kQueued);
  std::vector<int> calls(kQueued, 0);
  for (std::size_t i = 0; i < kQueued; ++i) {
    samples.push_back(fx.make_sample().first);
    ASSERT_TRUE(server.try_submit(
        samples.back().clone(),
        [&outputs, &calls, i](Tensor&& out, std::exception_ptr err) {
          ++calls[i];
          if (err == nullptr) {
            outputs[i] = std::move(out);
          }
        }));
  }
  // Nothing can have run yet: the window is open for another ~10 s.
  EXPECT_EQ(server.stats().completed, 0u);
  server.shutdown();  // flushes the open window, then joins
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kQueued);
  EXPECT_EQ(stats.batches, 1u);
  runtime::ExecutionContext ctx;
  for (std::size_t i = 0; i < kQueued; ++i) {
    ASSERT_EQ(calls[i], 1) << "request " << i;
    ASSERT_TRUE(outputs[i].defined()) << "request " << i << " failed";
    Tensor one = Tensor::empty(Shape{1, 4, 64});
    std::copy(samples[i].data(), samples[i].data() + samples[i].numel(),
              one.data());
    const Tensor want = fx.plan->forward(one, ctx);
    ASSERT_EQ(outputs[i].numel(), want.numel());
    EXPECT_EQ(std::memcmp(outputs[i].data(), want.data(),
                          static_cast<std::size_t>(want.numel()) *
                              sizeof(float)),
              0)
        << "request " << i << " differs from CompiledPlan::forward";
  }
}

TEST(InferenceServer, TrySubmitIsRefusedAfterShutdown) {
  TempoNetFixture fx;
  InferenceServer server(fx.plan, held_window_options());
  server.shutdown();
  bool ran = false;
  EXPECT_FALSE(server.try_submit(
      fx.make_sample().first,
      [&ran](Tensor&& /*out*/, std::exception_ptr /*err*/) { ran = true; }));
  EXPECT_FALSE(ran);
  EXPECT_EQ(server.stats().requests, 0u);
}

TEST(InferenceServer, RejectsBadInputs) {
  TempoNetFixture fx;
  InferenceServer server(fx.plan, {});
  RandomEngine rng(1301);
  // A bad shape is a caller bug, not load: it throws rather than
  // returning false.
  EXPECT_THROW(
      server.try_submit(Tensor::randn(Shape{5, 64}, rng), ignore_completion),
      Error);
  EXPECT_THROW(
      server.try_submit(Tensor::randn(Shape{4, 63}, rng), ignore_completion),
      Error);
  EXPECT_THROW(server.try_submit(Tensor::randn(Shape{1, 4, 64}, rng),
                                 ignore_completion),
               Error);
  EXPECT_THROW(InferenceServer(nullptr, {}), Error);
  ServerOptions bad;
  bad.threads = 0;
  EXPECT_THROW(InferenceServer(fx.plan, bad), Error);
}

// ---- StreamSession ---------------------------------------------------------

TEST(StreamSession, MatchesWholeSequenceForward) {
  RandomEngine rng(1401);
  models::ResTcnConfig cfg;
  cfg.input_channels = 6;
  cfg.output_channels = 6;
  cfg.hidden_channels = 8;
  models::ResTCN model(
      cfg, models::dilated_conv_factory(rng, {1, 2, 4, 8, 16, 2, 1, 32}),
      rng);
  model.eval();
  const index_t steps = 24;
  const auto plan = runtime::compile_plan(model, steps);

  Tensor x = Tensor::randn(Shape{1, 6, steps}, rng);
  runtime::ExecutionContext ctx;
  const Tensor full = plan->forward(x, ctx);

  StreamSession session(plan);
  for (index_t t = 0; t < steps; ++t) {
    Tensor in = Tensor::empty(Shape{6});
    for (index_t c = 0; c < 6; ++c) {
      in.data()[c] = x.data()[c * steps + t];
    }
    const Tensor out = session.step(in);
    for (index_t c = 0; c < 6; ++c) {
      EXPECT_NEAR(out.data()[c], full.data()[c * steps + t], 1e-4F)
          << "channel " << c << " step " << t;
    }
  }
  EXPECT_EQ(session.position(), static_cast<std::uint64_t>(steps));
  session.reset();
  EXPECT_EQ(session.position(), 0u);
}

TEST(StreamSession, RefusesNonStreamablePlans) {
  TempoNetFixture fx;
  EXPECT_THROW(StreamSession{fx.plan}, Error);
  EXPECT_THROW(StreamSession{nullptr}, Error);
}

}  // namespace
}  // namespace pit::serve
