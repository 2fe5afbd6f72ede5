// Standalone PIT serving daemon: one TempoNet behind the TCP front end.
//
// Compiles a seeded TEMPONet twice — the windowed plan (SUBMIT: one
// (C, 64) window in, the regression head's output out) and the streaming
// backbone (OPEN/STEP/CLOSE: one sensor tick in, the causal feature
// vector out) — and serves both over the wire protocol in
// docs/PROTOCOL.md.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/example_frontend_server --port 7433
//   ./build/loadgen_frontend --connect 127.0.0.1:7433   # drive it
//
// --smoke runs an in-process self-check instead of serving: it binds an
// ephemeral port, connects a real TCP client to it, and requires the
// socket-served SUBMIT and STEP outputs to be bit-identical to direct
// InferenceServer / StreamSession calls on the same inputs. CTest runs
// this mode (example_frontend_server_smoke).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "models/temponet.hpp"
#include "net/client.hpp"
#include "net/front_end.hpp"
#include "runtime/compile_models.hpp"
#include "serve/inference_server.hpp"
#include "serve/session_manager.hpp"
#include "serve/stream_session.hpp"

using namespace pit;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

int run_smoke() {
  const bench::ServedPlans plans = bench::make_served_temponet_plans();
  serve::ServerOptions server_opts;
  server_opts.threads = 2;
  server_opts.max_wait = std::chrono::microseconds(200);
  serve::InferenceServer server(plans.submit_plan, server_opts);
  serve::SessionManagerOptions session_opts;
  session_opts.max_sessions = 64;
  session_opts.shards = 1;
  serve::SessionManager sessions(plans.stream_plan, session_opts);

  net::FrontEndOptions fe_opts;  // port 0: ephemeral
  net::FrontEnd frontend(&server, &sessions, fe_opts);
  frontend.start();
  std::printf("smoke: front end on 127.0.0.1:%u\n", frontend.port());

  net::BlockingClient client;
  if (!client.connect("127.0.0.1", frontend.port())) {
    std::fprintf(stderr, "smoke: connect failed: %s\n",
                 client.last_error().message.c_str());
    return 1;
  }
  const net::HelloOkMsg& hello = client.hello();
  if (!hello.submit_available || !hello.stream_available ||
      !client.ping()) {
    std::fprintf(stderr, "smoke: negotiation reported missing surfaces\n");
    return 1;
  }

  // SUBMIT parity: socket bytes vs a direct in-process blocking try_submit().
  RandomEngine rng(99);
  std::vector<float> wire_out;
  for (int i = 0; i < 8; ++i) {
    Tensor window =
        Tensor::randn(Shape{static_cast<index_t>(hello.submit_in_channels),
                            static_cast<index_t>(hello.submit_in_steps)},
                      rng);
    if (!client.submit(window.data(), wire_out)) {
      std::fprintf(stderr, "smoke: SUBMIT failed: %s\n",
                   client.last_error().message.c_str());
      return 1;
    }
    const Tensor direct = bench::submit_blocking(server, window.clone());
    if (wire_out.size() != static_cast<std::size_t>(direct.numel())) {
      std::fprintf(stderr, "smoke: RESULT size mismatch\n");
      return 1;
    }
    if (std::memcmp(wire_out.data(), direct.data(),
                    wire_out.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "smoke: socket result != direct result\n");
      return 1;
    }
  }

  // STEP parity: a socket session vs a direct StreamSession, same ticks.
  serve::StreamSession direct_stream(plans.stream_plan);
  std::uint32_t handle = 0;
  if (!client.open_session(handle)) {
    std::fprintf(stderr, "smoke: OPEN failed: %s\n",
                 client.last_error().message.c_str());
    return 1;
  }
  std::vector<float> step_out;
  for (int t = 0; t < 32; ++t) {
    Tensor tick = Tensor::randn(
        Shape{static_cast<index_t>(hello.stream_in_channels)}, rng);
    if (!client.step(handle, tick.data(), step_out)) {
      std::fprintf(stderr, "smoke: STEP failed: %s\n",
                   client.last_error().message.c_str());
      return 1;
    }
    const Tensor direct = direct_stream.step(tick);
    if (static_cast<index_t>(step_out.size()) != direct.numel() ||
        std::memcmp(step_out.data(), direct.data(),
                    step_out.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "smoke: socket stream != direct stream at t=%d\n",
                   t);
      return 1;
    }
  }
  if (!client.close_session(handle)) {
    std::fprintf(stderr, "smoke: CLOSE failed\n");
    return 1;
  }

  frontend.stop();
  const net::FrontEndStats stats = frontend.stats();
  std::printf("smoke: %llu submits, %llu steps, %llu sheds — parity OK\n",
              static_cast<unsigned long long>(stats.submits),
              static_cast<unsigned long long>(stats.steps),
              static_cast<unsigned long long>(stats.sheds));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  net::FrontEndOptions fe_opts;
  fe_opts.port = 7433;
  fe_opts.idle_timeout = std::chrono::milliseconds(60000);
  serve::ServerOptions server_opts;
  server_opts.threads = 2;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--port") {
      fe_opts.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--bind") {
      fe_opts.bind_address = next();
    } else if (arg == "--threads") {
      server_opts.threads = std::atoi(next());
    } else if (arg == "--max-inflight") {
      fe_opts.max_inflight = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--idle-timeout-ms") {
      fe_opts.idle_timeout = std::chrono::milliseconds(std::atoi(next()));
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--bind ADDR] [--threads N] "
                   "[--max-inflight N] [--idle-timeout-ms N] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    return run_smoke();
  }

  std::printf("compiling the served TEMPONet...\n");
  const bench::ServedPlans plans = bench::make_served_temponet_plans();
  serve::InferenceServer server(plans.submit_plan, server_opts);
  serve::SessionManager sessions(plans.stream_plan);
  net::FrontEnd frontend(&server, &sessions, fe_opts);
  frontend.start();
  std::printf(
      "serving on %s:%u — SUBMIT (%lldx%lld -> %lldx%lld), STEP (%lld -> "
      "%lld)\nCtrl-C drains and exits.\n",
      fe_opts.bind_address.c_str(), frontend.port(),
      static_cast<long long>(plans.submit_plan->input_channels()),
      static_cast<long long>(plans.submit_plan->input_steps()),
      static_cast<long long>(plans.submit_plan->output_channels()),
      static_cast<long long>(plans.submit_plan->output_steps()),
      static_cast<long long>(plans.stream_plan->input_channels()),
      static_cast<long long>(plans.stream_plan->output_channels()));

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  const auto started = bench::BenchClock::now();
  auto last_report = started;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto now = bench::BenchClock::now();
    if (bench::ms_between(last_report, now) >= 5000.0) {
      const net::FrontEndStats s = frontend.stats();
      std::printf(
          "[%8.1fs] conns %zu  inflight %zu  submits %llu  steps %llu  "
          "sheds %llu  sessions %zu\n",
          bench::ms_between(started, now) / 1000.0, s.connections,
          s.inflight, static_cast<unsigned long long>(s.submits),
          static_cast<unsigned long long>(s.steps),
          static_cast<unsigned long long>(s.sheds), s.open_sessions);
      last_report = now;
    }
  }
  std::printf("draining...\n");
  frontend.stop();
  const net::FrontEndStats s = frontend.stats();
  std::printf("served %llu submits, %llu steps; shed %llu; %llu conns\n",
              static_cast<unsigned long long>(s.submits),
              static_cast<unsigned long long>(s.steps),
              static_cast<unsigned long long>(s.sheds),
              static_cast<unsigned long long>(s.accepted));
  return 0;
}
