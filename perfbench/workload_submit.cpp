// Workload `window_submit`: open-loop SUBMITs of 4x64 windows over TCP to
// an in-process net::FrontEnd -> serve::InferenceServer serving the fp32
// bench-scale TEMPONet.
//
// Why: the forward takes tens of microseconds, so frame handling,
// admission, queueing and micro-batching dominate the latency; the
// SessionManager and autograd do no work here.
//
// Untraced run: a short warm-up, a fixed low rate, a fixed high rate, and
// a rate-ladder search for the highest rung meeting the SLO. Traced run:
// the high rate once untraced and once with client spans, then the
// in-process isolation sub-runs (try_submit at the same schedule on the
// same windows, CompiledPlan::forward at batch 1 and at the observed mean
// batch, the codec loops). Every RESULT is compared bit for bit with
// CompiledPlan::forward on the same window after the timed phases.
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "models/temponet.hpp"
#include "net/front_end.hpp"
#include "runtime/compile_models.hpp"
#include "serve/inference_server.hpp"
#include "trace.hpp"

namespace pitbench {
namespace {

using namespace pit;

// Fixed configuration: recorded in every output, never tuned per host.
constexpr int kConnections = 4;
constexpr int kWorkers = 2;
constexpr index_t kMaxBatch = 16;
constexpr std::chrono::microseconds kMaxWait{200};
constexpr std::size_t kMaxInflight = 16384;
constexpr std::uint64_t kModelSeed = 17;
constexpr double kLowRate = 10000.0;  // SUBMIT/s
constexpr double kHighRate = 40000.0; // SUBMIT/s; knees of 70k-150k measured here
constexpr double kSloMs = 10.0;       // p99 limit of a ladder rung
constexpr double kLadderBase = 1000.0;
constexpr double kLadderStep = 1.04;  // rungs 4% apart
constexpr int kLadderRungs = 140;     // up to ~240k SUBMIT/s
constexpr int kLadderStride = 6;
constexpr double kRungSeconds = 1.0;
// A rung passes when answers keep pace with offers in its last second;
// it is abandoned once the unanswered backlog covers this many seconds
// of offers (far past the SLO, so a host stall alone does not trip it).
constexpr double kMinPace = 0.97;
constexpr double kAbortBacklogS = 0.25;
constexpr std::size_t kWindowPool = 1024;
constexpr int kSetupReps = 9;
constexpr std::size_t kChunk = 1000;  // samples per percentile chunk
constexpr int kSegments = 8;

double ladder_rate(int k) { return kLadderBase * std::pow(kLadderStep, k); }

enum Status : std::uint8_t { kPending, kOk, kShed, kError, kUnanswered };

struct Op {
  std::int64_t sched = 0;
  std::int64_t sent = 0;
  std::int64_t done = 0;
  std::uint64_t digest = 0;
  std::uint32_t window = 0;
  std::uint8_t status = kPending;
  std::int32_t span = -1;
};

/// The bench-scale TEMPONet the front end serves: the same seeded,
/// BN-warmed model and compile as the repository's served plans.
std::shared_ptr<const runtime::CompiledPlan> build_plan() {
  models::TempoNetConfig cfg;
  cfg.input_length = 64;
  cfg.channel_scale = 0.25;
  cfg.dropout = 0.1F;
  RandomEngine rng(kModelSeed);
  models::TempoNet model(cfg, models::dilated_conv_factory(rng, cfg.dilations),
                         rng);
  model.train();
  model.forward(
      Tensor::randn(Shape{8, cfg.input_channels, cfg.input_length}, rng));
  model.eval();
  return runtime::compile_plan(model);
}

struct Served {
  std::shared_ptr<const runtime::CompiledPlan> plan;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<net::FrontEnd> frontend;
  std::unique_ptr<Wire> wire;  // destroyed first: clients before server
  double compile_ms = 0.0;
};

serve::ServerOptions server_options() {
  serve::ServerOptions so;
  so.threads = kWorkers;
  so.max_batch = kMaxBatch;
  so.max_wait = kMaxWait;
  so.intra_op_threads = 1;
  // The queue never sheds before the front end's own budget does.
  so.max_queue = kMaxInflight;
  return so;
}

net::FrontEndOptions frontend_options() {
  net::FrontEndOptions fo;
  fo.max_inflight = kMaxInflight;
  return fo;
}

/// Compile, server start, front-end start, connect + HELLO. A thread
/// inherits the CPU set of the thread that creates it, so this thread
/// pins itself before each start: workers on CPUs 1..n-2, the event loop
/// on CPU 0, and finally itself, the generator, on CPU n-1. Fixed
/// placement keeps the scheduler's choices out of the run-to-run spread.
std::unique_ptr<Served> set_up(bool pinned, std::string& err) {
  if (pinned) {
    pin_self(1, host_cpus() - 2);
  }
  auto s = std::make_unique<Served>();
  const std::int64_t t0 = now_ns();
  s->plan = build_plan();
  s->compile_ms = ns_to_ms(now_ns() - t0);
  s->server = std::make_unique<serve::InferenceServer>(s->plan, server_options());
  s->frontend = std::make_unique<net::FrontEnd>(s->server.get(), nullptr,
                                                frontend_options());
  if (pinned) {
    pin_self(0, 0);
  }
  s->frontend->start();
  s->wire = std::make_unique<Wire>();
  if (!s->wire->connect(s->frontend->port(), kConnections, err)) {
    return nullptr;
  }
  if (pinned) {
    pin_self(host_cpus() - 1, host_cpus() - 1);
  }
  return s;
}

struct PhaseResult {
  std::size_t first = 0;
  std::size_t count = 0;
  bool aborted = false;
  bool transport_ok = true;
  std::int64_t t_end = 0;  // scheduled end of the phase
  std::size_t inflight_peak = 0;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t wire_bytes = 0;
};

class SubmitLoad {
 public:
  SubmitLoad(Served& s, std::uint64_t seed) : s_(s), seed_(seed) {
    c_ = static_cast<std::uint32_t>(s.plan->input_channels());
    t_ = static_cast<std::uint32_t>(s.plan->input_steps());
    pool_.resize(kWindowPool * c_ * t_);
    for (std::size_t w = 0; w < kWindowPool; ++w) {
      const Waveform wave = Waveform::make(static_cast<int>(w % 4),
                                           mix_seed(seed, w));
      wave.fill(window(w), c_, t_,
                static_cast<std::int64_t>(mix_seed(seed ^ 0x5A5A, w) % 4096));
    }
    ops_.reserve(std::size_t{4} << 20);  // no reallocation stall mid-phase
  }

  float* window(std::size_t w) { return pool_.data() + w * c_ * t_; }
  std::uint32_t channels() const { return c_; }
  std::uint32_t steps() const { return t_; }
  std::vector<Op>& ops() { return ops_; }

  /// The window op `i` of a phase carries; phases with one `salt` draw
  /// the same sequence (the isolation sub-run replays the traced one).
  std::uint32_t pick(std::uint64_t salt, std::size_t i) const {
    return static_cast<std::uint32_t>(mix_seed(seed_ ^ salt, i) % kWindowPool);
  }

  /// One open-loop phase over TCP: `rate` SUBMIT/s for `seconds`. Stops
  /// sending when more than `abort_backlog` requests are unanswered (a
  /// ladder rung that cannot keep up), then drains.
  PhaseResult run(double rate, double seconds, std::uint64_t salt,
                  std::size_t abort_backlog, SpanRecorder* rec,
                  bool sample_inflight) {
    PhaseResult res;
    const std::int64_t period = std::llround(1e9 / rate);
    const std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * seconds)));
    res.first = ops_.size();
    ops_.resize(res.first + n);
    Wire& wire = *s_.wire;
    const std::uint64_t bytes0 = wire.bytes_sent() + wire.bytes_received();
    const double cpu0 = process_cpu_ms();
    const std::int64_t t0 = now_ns() + 1000000;
    const std::int64_t t_end = t0 + static_cast<std::int64_t>(n) * period;
    const std::int64_t drain_limit = t_end + 3000000000LL;
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::int64_t next_sample = t0;
    const std::size_t first = res.first;

    auto on_frame = [&](int, const net::FrameView& f) {
      net::ErrCode code{};
      std::uint64_t req = 0;
      std::uint8_t status = kError;
      std::uint64_t dig = 0;
      if (f.type == net::MsgType::kResult) {
        net::ResultMsg msg;
        if (!net::decode_result(f.payload, msg, code)) {
          res.transport_ok = false;
          return;
        }
        req = msg.req_id;
        status = kOk;
        dig = digest(kDigestSeed, msg.data.data(), msg.data.size());
      } else if (f.type == net::MsgType::kError) {
        net::ErrorMsg msg;
        if (!net::decode_error(f.payload, msg, code)) {
          res.transport_ok = false;
          return;
        }
        req = msg.req_id;
        status = msg.code == net::ErrCode::kRetryAfter ? kShed : kError;
      } else {
        res.transport_ok = false;
        return;
      }
      if (req <= first || req > first + n) {
        res.transport_ok = false;
        return;
      }
      Op& op = ops_[req - 1];
      if (op.status != kPending) {
        res.transport_ok = false;
        return;
      }
      op.done = now_ns();
      op.status = status;
      op.digest = dig;
      if (rec != nullptr && op.span >= 0) {
        rec->set_end(op.span, op.done);
      }
      --outstanding;
    };

    while (res.transport_ok) {
      const std::int64_t now = now_ns();
      if (!res.aborted) {
        while (next < n && t0 + static_cast<std::int64_t>(next) * period <= now) {
          const std::size_t idx = first + next;
          Op& op = ops_[idx];
          op.sched = t0 + static_cast<std::int64_t>(next) * period;
          op.sent = now;
          op.window = pick(salt, next);
          net::encode_submit(wire.out(static_cast<int>(idx % kConnections)),
                             idx + 1, c_, t_, window(op.window));
          if (rec != nullptr) {
            op.span = rec->add("client.request", op.sched, op.sched, -1, idx + 1);
            rec->add("loadgen.lag", op.sched, op.sent, op.span, idx + 1);
          }
          ++next;
          if (++outstanding > abort_backlog) {
            res.aborted = true;
            break;
          }
        }
      }
      if (sample_inflight && now >= next_sample) {
        res.inflight_peak = std::max(res.inflight_peak, s_.frontend->stats().inflight);
        next_sample = now + 1000000;
      }
      if ((next >= n || res.aborted) && outstanding == 0) {
        break;
      }
      if (now > drain_limit) {
        break;
      }
      std::int64_t deadline = drain_limit;
      if (!res.aborted && next < n) {
        deadline = t0 + static_cast<std::int64_t>(next) * period;
      }
      if (sample_inflight) {
        deadline = std::min(deadline, next_sample);
      }
      if (!wire.pump(deadline, on_frame)) {
        res.transport_ok = false;
      }
    }
    res.t_end = t_end;
    ops_.resize(first + next);  // an aborted rung never sent the rest
    for (std::size_t i = first; i < ops_.size(); ++i) {
      if (ops_[i].status == kPending) {
        ops_[i].status = kUnanswered;
      }
    }
    res.count = next;
    res.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    res.cpu_ms = process_cpu_ms() - cpu0;
    res.wire_bytes = wire.bytes_sent() + wire.bytes_received() - bytes0;
    return res;
  }

  std::vector<double> latencies_ms(const PhaseResult& r) const {
    std::vector<double> lat;
    lat.reserve(r.count);
    for (std::size_t i = r.first; i < r.first + r.count; ++i) {
      if (ops_[i].status == kOk) {
        lat.push_back(ns_to_ms(ops_[i].done - ops_[i].sched));
      }
    }
    return lat;
  }

  std::size_t failures(const PhaseResult& r) const {
    std::size_t f = 0;
    for (std::size_t i = r.first; i < r.first + r.count; ++i) {
      f += ops_[i].status != kOk ? 1 : 0;
    }
    return f;
  }

  double lag_p99_ms(const PhaseResult& r) const {
    std::vector<double> lag;
    for (std::size_t i = r.first; i < r.first + r.count; ++i) {
      lag.push_back(ns_to_ms(ops_[i].sent - ops_[i].sched));
    }
    return quantile(lag, 0.99);
  }

 private:
  Served& s_;
  std::uint64_t seed_;
  std::uint32_t c_ = 0;
  std::uint32_t t_ = 0;
  std::vector<float> pool_;
  std::vector<Op> ops_;
};

/// Bit-exact reference: CompiledPlan::forward at batch 1 on every pool
/// window, digested like the RESULT payloads.
std::vector<std::uint64_t> reference_digests(SubmitLoad& d,
                                             const runtime::CompiledPlan& plan) {
  std::vector<std::uint64_t> ref(kWindowPool);
  runtime::ExecutionContext ctx;
  for (std::size_t w = 0; w < kWindowPool; ++w) {
    Tensor in = Tensor::empty(Shape{1, static_cast<index_t>(d.channels()),
                                    static_cast<index_t>(d.steps())});
    std::memcpy(in.data(), d.window(w), sizeof(float) * d.channels() * d.steps());
    const Tensor out = plan.forward(in, ctx);
    ref[w] = digest(kDigestSeed, out.data(),
                    sizeof(float) * static_cast<std::size_t>(out.numel()));
  }
  return ref;
}

index_t plan_macs(const runtime::CompiledPlan& plan) {
  index_t macs = 0;
  for (const auto& op : plan.op_infos()) {
    macs += op.macs();
  }
  return macs;
}

/// Median wall time of plan.forward at batch `batch`, in microseconds.
double time_forward_us(SubmitLoad& d, const runtime::CompiledPlan& plan,
                       index_t batch, double budget_s, SpanRecorder& rec,
                       const char* span_name) {
  const std::size_t per = static_cast<std::size_t>(d.channels()) * d.steps();
  Tensor in = Tensor::empty(Shape{batch, static_cast<index_t>(d.channels()),
                                  static_cast<index_t>(d.steps())});
  for (index_t b = 0; b < batch; ++b) {
    std::memcpy(in.data() + static_cast<std::size_t>(b) * per,
                d.window(static_cast<std::size_t>(b) % kWindowPool),
                sizeof(float) * per);
  }
  runtime::ExecutionContext ctx;
  for (int i = 0; i < 50; ++i) {
    (void)plan.forward(in, ctx);
  }
  std::vector<double> us;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while ((now_ns() < stop || us.size() < 200) && us.size() < 20000) {
    const std::int32_t sp = rec.open(span_name, 0);
    const std::int64_t a = now_ns();
    (void)plan.forward(in, ctx);
    us.push_back(ns_to_us(now_ns() - a));
    rec.close(sp);
  }
  return median(us);
}

struct IsolationResult {
  std::vector<double> done_us;  // try_submit -> completion, from schedule
  std::size_t ops = 0;
  std::size_t rejects = 0;
  std::size_t failed = 0;
};

/// In-process isolation: the traced phase's schedule and windows, sent
/// straight to InferenceServer::try_submit from this thread.
IsolationResult run_isolation(SubmitLoad& d, serve::InferenceServer& server,
                              const std::vector<std::uint64_t>& ref,
                              double rate, double seconds, std::uint64_t salt,
                              SpanRecorder& rec) {
  IsolationResult out;
  const std::int64_t period = std::llround(1e9 / rate);
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * seconds)));
  std::vector<std::int64_t> sched(n), call_start(n), call_end(n), done(n, 0);
  std::vector<std::uint64_t> dig(n, 0);
  std::vector<std::uint8_t> status(n, kPending);
  std::atomic<std::size_t> completed{0};
  const std::size_t per = static_cast<std::size_t>(d.channels()) * d.steps();
  const std::int64_t t0 = now_ns() + 1000000;
  std::size_t submitted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sched[i] = t0 + static_cast<std::int64_t>(i) * period;
    sleep_until_ns(sched[i]);
    Tensor in = Tensor::empty(Shape{static_cast<index_t>(d.channels()),
                                    static_cast<index_t>(d.steps())});
    std::memcpy(in.data(), d.window(d.pick(salt, i)), sizeof(float) * per);
    call_start[i] = now_ns();
    const bool ok = server.try_submit(
        std::move(in), [&, i](Tensor&& outp, std::exception_ptr err) {
          done[i] = now_ns();
          if (err == nullptr) {
            dig[i] = digest(kDigestSeed, outp.data(),
                            sizeof(float) * static_cast<std::size_t>(outp.numel()));
            status[i] = kOk;
          } else {
            status[i] = kError;
          }
          completed.fetch_add(1, std::memory_order_release);
        });
    call_end[i] = now_ns();
    if (ok) {
      ++submitted;
    } else {
      status[i] = kShed;
      ++out.rejects;
    }
  }
  const std::int64_t limit = now_ns() + 3000000000LL;
  while (completed.load(std::memory_order_acquire) < submitted && now_ns() < limit) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (completed.load(std::memory_order_acquire) < submitted) {
    // Callbacks still pending would write into the vectors below after
    // they are gone; wait them out (the server drains on shutdown).
    server.shutdown();
  }
  out.ops = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] == kOk && dig[i] == ref[d.pick(salt, i)]) {
      out.done_us.push_back(ns_to_us(done[i] - sched[i]));
      const std::int32_t sp = rec.add("serve.request", sched[i], done[i], -1, i + 1);
      rec.add("serve.try_submit", call_start[i], call_end[i], sp, i + 1);
    } else {
      ++out.failed;
    }
  }
  return out;
}

}  // namespace

Report run_window_submit(const RunOptions& opts) {
  Report rep;
  const bool pinned = host_cpus() >= 4;
  tighten_timer_slack();

  std::vector<double> setup_s;
  std::vector<double> compile_ms;
  std::unique_ptr<Served> served;
  const int reps = opts.trace ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    served.reset();
    std::string err;
    const std::int64_t t0 = now_ns();
    served = set_up(pinned, err);
    if (!served) {
      rep.check(false, "window_submit setup: " + err);
      return rep;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    compile_ms.push_back(served->compile_ms);
  }
  const runtime::CompiledPlan& plan = *served->plan;
  SubmitLoad d(*served, opts.seed);

  const double secs = opts.seconds;
  rep.config("model", "temponet_scaled fp32 (4x64 -> 1)");
  rep.config("server.threads", kWorkers);
  rep.config("server.max_batch", static_cast<double>(kMaxBatch));
  rep.config("server.max_wait_us", static_cast<double>(kMaxWait.count()));
  rep.config("server.intra_op_threads", 1);
  rep.config("frontend.max_inflight", static_cast<double>(kMaxInflight));
  rep.config("server.max_queue", static_cast<double>(kMaxInflight));
  rep.config("frontend.event_loop_threads", 1);
  rep.config("connections", kConnections);
  rep.config("rate.low_per_s", kLowRate);
  rep.config("rate.high_per_s", kHighRate);
  rep.config("slo.p99_ms", kSloMs);
  rep.config("ladder", "1000/s x 1.04^k, k < 140, 1 s rungs");
  rep.config("cpus.pinned", pinned ? "event loop 0, workers 1..n-2, generator n-1" : "no");

  constexpr std::uint64_t kSaltWarm = 1, kSaltLow = 2, kSaltHigh = 3,
                          kSaltLadder = 100;
  const std::size_t no_abort = static_cast<std::size_t>(-1);
  SpanRecorder rec;
  (void)d.run(kHighRate, 0.5, kSaltWarm, no_abort, nullptr, false);

  if (!opts.trace) {
    // The low and high rates alternate in kSegments segments, so a host
    // stall of a few seconds lands in a few chunks of each, not in all of
    // one rate's samples.
    std::vector<double> low_lat;
    std::vector<double> high_lat;
    double high_cpu_ms = 0.0;
    double high_ops = 0.0;
    bool transport_ok = true;
    for (int i = 0; i < kSegments; ++i) {
      const PhaseResult low = d.run(kLowRate, 0.2 * secs / kSegments, kSaltLow + 16 * i,
                                    no_abort, nullptr, false);
      const PhaseResult high = d.run(kHighRate, 0.3 * secs / kSegments, kSaltHigh + 16 * i,
                                     no_abort, nullptr, false);
      transport_ok = transport_ok && low.transport_ok && high.transport_ok;
      const std::vector<double> l = d.latencies_ms(low);
      const std::vector<double> h = d.latencies_ms(high);
      low_lat.insert(low_lat.end(), l.begin(), l.end());
      high_lat.insert(high_lat.end(), h.begin(), h.end());
      high_cpu_ms += high.cpu_ms;
      high_ops += static_cast<double>(high.count);
    }
    rep.check(transport_ok, "transport error in a fixed-rate phase");
    // Peak RSS through the fixed-rate phases, before the ladder (whose
    // probe count, and so the harness's own op log, varies by run).
    const double rss_mb = peak_rss_mb();
    const LatencySummary lo = chunked_percentiles(low_lat, kChunk);
    const LatencySummary hi = chunked_percentiles(high_lat, kChunk);
    print_distribution("low", low_lat);
    print_distribution("high", high_lat);

    const LadderResult ladder = search_ladder(
        kLadderRungs,
        static_cast<int>(std::lround(std::log(2.0 * kHighRate / kLadderBase) /
                                     std::log(kLadderStep))),
        kLadderStride, [&](int k) {
          const double rate = ladder_rate(k);
          const std::size_t abort = std::min(
              kMaxInflight / 2, std::max<std::size_t>(64, static_cast<std::size_t>(
                                                           rate * kAbortBacklogS)));
          const PhaseResult r = d.run(rate, kRungSeconds, kSaltLadder + k, abort,
                                      nullptr, false);
          const double p99 = chunked_percentiles(d.latencies_ms(r), kChunk).p99;
          const double pace = last_second_pace(d.ops(), r.first, r.count, r.t_end,
                                               static_cast<std::int64_t>(kSloMs * 1e6), kOk);
          const bool pass = r.transport_ok && !r.aborted && d.failures(r) == 0 &&
                            p99 <= kSloMs && pace >= kMinPace;
          std::printf("rung %3d  %8.0f/s  p99 %7.3f ms  pace %.3f%s  %s\n", k, rate, p99,
                      pace, r.aborted ? " (aborted)" : "", pass ? "pass" : "FAIL");
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          return pass;
        });
    rep.check(ladder.best >= 0, "the ladder's lowest rung already fails the SLO");
    rep.check(ladder.first_fail >= 0,
              "no ladder rung failed the SLO: the knee lies above the ladder");

    rep.metric("setup_s", median(setup_s), "s");
    rep.config("p50_ms.low", lo.p50);
    rep.config("p99_ms.low", lo.p99);
    rep.config("p50_ms.high", hi.p50);
    rep.config("p99_ms.high", hi.p99);
    rep.metric("ops_per_s", ladder.best >= 0 ? ladder_rate(ladder.best) : 0.0, "1/s");
    rep.config("samples.low", static_cast<double>(lo.samples));
    rep.config("samples.high", static_cast<double>(hi.samples));
    rep.config("max_rps_at_slo", ladder.best >= 0 ? ladder_rate(ladder.best) : 0.0);
    rep.config("ladder.probes", ladder.probes);
    rep.config("ladder.first_failing_rung_per_s",
               ladder.first_fail >= 0 ? ladder_rate(ladder.first_fail) : 0.0);
    rep.metric("cpu_ms_per_kop", high_ops > 0 ? 1000.0 * high_cpu_ms / high_ops : 0.0, "ms");
    rep.metric("peak_rss_mb", rss_mb, "MB");
  } else {
    // Same schedule and windows three ways: untraced TCP, traced TCP,
    // and in-process isolation.
    const double phase_s = 0.25 * secs;
    const PhaseResult plain = d.run(kHighRate, phase_s, kSaltHigh, no_abort, nullptr, false);
    const serve::ServerStats ss0 = served->server->stats();
    const net::FrontEndStats fs0 = served->frontend->stats();
    rec.reserve(static_cast<std::size_t>(kHighRate * phase_s) * 3 + 100000);
    const PhaseResult traced = d.run(kHighRate, phase_s, kSaltHigh, no_abort, &rec, true);
    const serve::ServerStats ss1 = served->server->stats();
    const net::FrontEndStats fs1 = served->frontend->stats();
    rep.check(plain.transport_ok && traced.transport_ok, "transport error in a traced phase");

    std::vector<double> plain_lat = d.latencies_ms(plain);
    std::vector<double> tcp_lat = d.latencies_ms(traced);
    const double plain_p50 = quantile(plain_lat, 0.5);
    const double tcp_p50 = quantile(tcp_lat, 0.5);
    const double tcp_p99 = quantile(tcp_lat, 0.99);

    const std::vector<std::uint64_t> ref = reference_digests(d, plan);
    IsolationResult iso = run_isolation(d, *served->server, ref, kHighRate, phase_s,
                                        kSaltHigh, rec);
    rep.ops(iso.ops, iso.failed);
    rep.check(iso.failed == 0, "isolation outputs differ from CompiledPlan::forward");
    const double done_p50 = quantile(iso.done_us, 0.5);
    const double done_p99 = quantile(iso.done_us, 0.99);

    const double batches = static_cast<double>(ss1.batches - ss0.batches);
    const double mean_batch =
        batches > 0 ? static_cast<double>(ss1.completed - ss0.completed) / batches : 0.0;
    const index_t bmean = std::max<index_t>(1, std::lround(mean_batch));
    const double fwd_b1 = time_forward_us(d, plan, 1, 0.04 * secs, rec, "runtime.forward.b1");
    const double fwd_bm = time_forward_us(d, plan, bmean, 0.04 * secs, rec, "runtime.forward.bmean");
    const index_t macs = plan_macs(plan);

    rep.metric("net.overhead_p50_us", 1000.0 * tcp_p50 - done_p50, "us");
    rep.metric("net.overhead_p99_us", 1000.0 * tcp_p99 - done_p99, "us");
    rep.metric("net.codec_submit_ns",
               time_submit_codec(d.window(0), d.channels(), d.steps(),
                                 static_cast<std::uint32_t>(plan.output_channels()),
                                 static_cast<std::uint32_t>(plan.output_steps())),
               "ns");
    rep.metric("net.wire_bytes_per_op",
               traced.count > 0 ? static_cast<double>(traced.wire_bytes) /
                                      static_cast<double>(traced.count)
                                : 0.0,
               "bytes");
    rep.metric("net.sheds", static_cast<double>(fs1.sheds - fs0.sheds), "count");
    rep.metric("net.inflight_peak", static_cast<double>(traced.inflight_peak), "count");
    rep.metric("net.protocol_errors",
               static_cast<double>(fs1.protocol_errors - fs0.protocol_errors), "count");
    rep.metric("net.exec_errors", static_cast<double>(fs1.exec_errors - fs0.exec_errors),
               "count");
    rep.metric("serve.done_p50_us", done_p50, "us");
    rep.metric("serve.done_p99_us", done_p99, "us");
    rep.metric("serve.queue_wait_p50_us", done_p50 - fwd_bm, "us");
    rep.metric("serve.mean_batch", mean_batch, "count");
    rep.metric("serve.batches_per_s", traced.wall_s > 0 ? batches / traced.wall_s : 0.0, "1/s");
    rep.metric("serve.rejects", static_cast<double>(iso.rejects), "count");
    rep.metric("runtime.fwd_us.b1", fwd_b1, "us");
    rep.metric("runtime.fwd_us.bmean", fwd_bm, "us");
    rep.metric("runtime.gmacs.bmean",
               static_cast<double>(macs) * static_cast<double>(bmean) / (fwd_bm * 1e3),
               "GMAC/s");
    rep.metric("runtime.macs_per_window", static_cast<double>(macs), "count");
    rep.metric("runtime.arena_kb_per_sample",
               static_cast<double>(plan.arena_floats_per_sample()) * sizeof(float) / 1024.0,
               "KiB");
    rep.metric("runtime.compile_ms", median(compile_ms), "ms");
    rep.metric("loadgen.lag_p99_ms", d.lag_p99_ms(traced), "ms");
    rep.metric("trace.overhead_frac", plain_p50 > 0 ? (tcp_p50 - plain_p50) / plain_p50 : 0.0,
               "ratio");
    rep.config("runtime.bmean", static_cast<double>(bmean));
    rep.config("samples.traced", static_cast<double>(tcp_lat.size()));
  }

  // Output check over every SUBMIT of every phase, after the timed work.
  const std::vector<std::uint64_t> ref = reference_digests(d, plan);
  std::size_t attempted = 0;
  std::size_t by_status[5] = {0, 0, 0, 0, 0};
  std::size_t wrong = 0;
  for (const Op& op : d.ops()) {
    ++attempted;
    ++by_status[op.status];
    wrong += op.status == kOk && op.digest != ref[op.window] ? 1 : 0;
  }
  const std::size_t failed = attempted - by_status[kOk] + wrong;
  rep.ops(attempted, failed);
  rep.check(wrong == 0, std::to_string(wrong) + " RESULTs differ from CompiledPlan::forward");
  rep.config("ops.shed", static_cast<double>(by_status[kShed]));
  rep.config("ops.error", static_cast<double>(by_status[kError]));
  rep.config("ops.unanswered", static_cast<double>(by_status[kUnanswered]));
  rep.config("ops.wrong", static_cast<double>(wrong));
  if (opts.trace) {
    const std::string path =
        opts.out_dir + "/trace-window_submit-seed" + std::to_string(opts.seed) + ".json";
    rep.check(rec.write(path, 50000), "cannot write " + path);
    rep.config("trace.file", path);
  }
  served.reset();
  return rep;
}

}  // namespace pitbench
