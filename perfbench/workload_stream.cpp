// Workload `stream_fleet`: a fleet of streaming sessions of the int8
// paper-width TEMPONet backbone, each stepped at 200 Hz by pipelined STEP
// frames over four connections, while a fixed share of the sessions is
// closed and re-opened every second.
//
// Why: the network layer works differently here — frames are tiny, STEPs
// run inline on the event loop, and open/close churn writes beside the
// step reads. The InferenceServer is idle; the int8 stream executor, the
// SessionManager shards and the SessionAllocator do the work.
//
// The offered rate is sessions x 200 steps/s; the ladder varies the
// number of stepped sessions. Every STEP_OUT is digested per session
// incarnation and compared, after the timed phases, with an in-process
// reference context stepping the same input sequence.
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "data/dataloader.hpp"
#include "data/dataset.hpp"
#include "loadgen.hpp"
#include "models/temponet.hpp"
#include "net/front_end.hpp"
#include "runtime/compile_models.hpp"
#include "runtime/quantize_plan.hpp"
#include "serve/session_manager.hpp"
#include "trace.hpp"

namespace pitbench {
namespace {

using namespace pit;

constexpr int kConnections = 4;
constexpr double kHz = 200.0;              // steps per session per second
constexpr double kChurnPerS = 0.10;        // share of sessions re-opened per second
constexpr int kLowSessions = 50;           // 10k STEP/s
constexpr int kHighSessions = 400;         // 80k STEP/s; knees of 145k-205k measured here
constexpr double kSloMs = 5.0;             // one sample period at 200 Hz
constexpr double kLadderBase = 50.0;       // sessions at rung 0
constexpr double kLadderStep = 1.04;
constexpr int kLadderRungs = 100;          // up to ~2500 sessions
constexpr int kLadderStride = 6;
constexpr double kRungSeconds = 1.0;
constexpr double kMinPace = 0.97;        // see workload_submit.cpp
constexpr double kAbortBacklogS = 0.25;
constexpr std::size_t kMaxAbortBacklog = 16384;
constexpr std::size_t kMaxSessions = 8192;
constexpr index_t kWindowSteps = 256;
constexpr std::uint64_t kModelSeed = 59;
constexpr int kSetupReps = 9;
constexpr std::size_t kChunk = 1000;
constexpr int kSegments = 8;

int ladder_sessions(int k) {
  return static_cast<int>(std::lround(kLadderBase * std::pow(kLadderStep, k)));
}
int fleet_size() { return ladder_sessions(kLadderRungs - 1); }

enum Kind : std::uint8_t { kStep, kOpen, kClose };
enum Status : std::uint8_t { kPending, kOk, kError, kUnanswered };

struct Op {
  std::int64_t sched = 0;
  std::int64_t sent = 0;
  std::int64_t done = 0;
  std::uint32_t incarnation = 0;
  std::uint8_t kind = kStep;
  std::uint8_t status = kPending;
  std::int32_t span = -1;
};

/// One sequence of one session slot, from OPEN to CLOSE.
struct Incarnation {
  std::uint32_t slot = 0;
  std::uint64_t wave_seed = 0;
  std::uint64_t steps = 0;     // steps sent
  std::uint64_t answered = 0;  // STEP_OUTs received
  std::uint64_t digest = kDigestSeed;
  bool broken = false;         // a step failed: no reference comparison
};

struct Session {
  std::uint32_t handle = 0;
  bool opening = false;
  std::uint32_t incarnation = 0;
  Waveform wave;
  std::vector<std::size_t> deferred;  // steps due while re-opening
};

struct Plans {
  std::shared_ptr<const runtime::CompiledPlan> fp32;
  std::shared_ptr<const runtime::CompiledPlan> int8;
  double compile_ms = 0.0;
  double quantize_ms = 0.0;
};

/// The paper-width TEMPONet backbone, compiled for streaming and lowered
/// to int8 over a fixed calibration set of the four waveform families.
Plans build_plans() {
  Plans p;
  models::TempoNetConfig cfg;
  cfg.channel_scale = 1.0;
  cfg.input_length = kWindowSteps;
  RandomEngine rng(kModelSeed);
  const std::int64_t t0 = now_ns();
  models::TempoNet model(cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
  model.train();
  model.forward(Tensor::randn(Shape{8, cfg.input_channels, kWindowSteps}, rng));
  model.eval();
  p.fp32 = runtime::compile_stream_backbone(model, kWindowSteps);
  p.compile_ms = ns_to_ms(now_ns() - t0);
  std::vector<Tensor> rows;
  std::vector<Tensor> targets;
  for (int i = 0; i < 16; ++i) {
    Tensor x = Tensor::empty(Shape{cfg.input_channels, kWindowSteps});
    Waveform::make(i % 4, mix_seed(kModelSeed, static_cast<std::uint64_t>(i)))
        .fill(x.data(), cfg.input_channels, kWindowSteps);
    rows.push_back(x);
    targets.push_back(Tensor::zeros(Shape{1}));
  }
  data::TensorDataset calib(std::move(rows), std::move(targets));
  data::DataLoader loader(calib, 4, /*shuffle=*/false);
  const std::int64_t t1 = now_ns();
  p.int8 = runtime::quantize_plan(*p.fp32, loader);
  p.quantize_ms = ns_to_ms(now_ns() - t1);
  return p;
}

struct Fleet {
  Plans plans;
  std::unique_ptr<serve::SessionManager> sessions;
  std::unique_ptr<net::FrontEnd> frontend;
  std::unique_ptr<Wire> wire;
};

struct PhaseResult {
  std::size_t first = 0;
  std::size_t count = 0;
  bool aborted = false;
  bool transport_ok = true;
  std::int64_t t_end = 0;  // scheduled end of the phase
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t wire_bytes = 0;
  std::size_t steps = 0;
};

class StreamLoad {
 public:
  StreamLoad(Fleet& f, std::uint64_t seed) : f_(f), seed_(seed) {
    c_in_ = static_cast<std::uint32_t>(f.plans.int8->input_channels());
    c_out_ = static_cast<std::uint32_t>(f.plans.int8->output_channels());
    step_in_.resize(c_in_);
    ops_.reserve(std::size_t{8} << 20);  // no reallocation stall mid-phase
  }

  std::uint32_t c_in() const { return c_in_; }
  std::uint32_t c_out() const { return c_out_; }
  std::vector<Op>& ops() { return ops_; }
  std::vector<Incarnation>& incarnations() { return incs_; }

  /// Starts a new incarnation of `slot` (its input sequence is a fresh
  /// seeded waveform) and returns its index.
  std::uint32_t new_incarnation(std::uint32_t slot) {
    Incarnation inc;
    inc.slot = slot;
    inc.wave_seed = mix_seed(seed_, (static_cast<std::uint64_t>(slot) << 32) | incs_.size());
    incs_.push_back(inc);
    return static_cast<std::uint32_t>(incs_.size() - 1);
  }

  static Waveform wave_of(const Incarnation& inc) {
    return Waveform::make(static_cast<int>(inc.slot % 4), inc.wave_seed);
  }

  /// Opens the whole fleet over TCP (pipelined OPENs, then all OPENED).
  bool open_fleet(int count, std::string& err) {
    sessions_.resize(static_cast<std::size_t>(count));
    for (int j = 0; j < count; ++j) {
      begin_open(static_cast<std::uint32_t>(j), now_ns());
    }
    PhaseResult res;
    const std::int64_t limit = now_ns() + 10000000000LL;
    while (outstanding_ > 0 && now_ns() < limit && res.transport_ok) {
      if (!f_.wire->pump(limit, [&](int, const net::FrameView& fr) { on_frame(fr, res, nullptr); })) {
        res.transport_ok = false;
      }
    }
    if (outstanding_ != 0 || !res.transport_ok) {
      err = "fleet OPENs unanswered";
      return false;
    }
    return true;
  }

  /// One open-loop phase over TCP: the first `active` sessions stepped at
  /// 200 Hz, kChurnPerS of them re-opened per second, for `seconds`.
  PhaseResult run(int active, double seconds, std::size_t abort_backlog,
                  SpanRecorder* rec) {
    PhaseResult res;
    res.first = ops_.size();
    const double rate = kHz * active;
    const std::int64_t step_period = std::llround(1e9 / rate);
    const std::int64_t churn_period = std::llround(1e9 / (kChurnPerS * active));
    const std::size_t n_steps = static_cast<std::size_t>(std::llround(rate * seconds));
    Wire& wire = *f_.wire;
    const std::uint64_t bytes0 = wire.bytes_sent() + wire.bytes_received();
    const double cpu0 = process_cpu_ms();
    const std::int64_t t0 = now_ns() + 1000000;
    const std::int64_t t_end = t0 + static_cast<std::int64_t>(n_steps) * step_period;
    const std::int64_t drain_limit = t_end + 3000000000LL;
    std::size_t next = 0;
    std::int64_t next_churn = t0 + churn_period / 2;

    auto handler = [&](int, const net::FrameView& fr) { on_frame(fr, res, rec); };
    while (res.transport_ok) {
      const std::int64_t now = now_ns();
      if (!res.aborted) {
        while (next < n_steps &&
               t0 + static_cast<std::int64_t>(next) * step_period <= now) {
          const std::int64_t sched = t0 + static_cast<std::int64_t>(next) * step_period;
          const auto slot = static_cast<std::uint32_t>(next % static_cast<std::size_t>(active));
          Session& s = sessions_[slot];
          const std::size_t idx = push_op(kStep, sched, s.incarnation);
          ++res.steps;
          if (s.opening) {
            s.deferred.push_back(idx);
          } else {
            send_step(idx, slot, now, rec);
          }
          ++next;
          if (outstanding_ > abort_backlog) {
            res.aborted = true;
            break;
          }
        }
        while (!res.aborted && next_churn <= now && next_churn < t_end) {
          const auto slot = static_cast<std::uint32_t>(churn_cursor_++ % static_cast<std::uint64_t>(active));
          Session& s = sessions_[slot];
          if (!s.opening) {
            const std::size_t idx = push_op(kClose, next_churn, s.incarnation);
            ops_[idx].sent = now;
            net::encode_close(wire.out(conn_of(slot)), idx + 1, s.handle);
            begin_open(slot, next_churn);
          }
          next_churn += churn_period;
        }
      }
      if ((next >= n_steps || res.aborted) && outstanding_ == 0) {
        break;
      }
      if (now > drain_limit) {
        break;
      }
      std::int64_t deadline = drain_limit;
      if (!res.aborted && next < n_steps) {
        deadline = std::min(t0 + static_cast<std::int64_t>(next) * step_period,
                            std::max(next_churn, now));
      }
      if (!wire.pump(deadline, handler)) {
        res.transport_ok = false;
      }
    }
    res.t_end = t_end;
    res.count = ops_.size() - res.first;
    res.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    res.cpu_ms = process_cpu_ms() - cpu0;
    res.wire_bytes = wire.bytes_sent() + wire.bytes_received() - bytes0;
    return res;
  }

  /// Marks everything still unanswered (call once the load is over).
  void finish() {
    for (Op& op : ops_) {
      if (op.status == kPending) {
        op.status = kUnanswered;
        if (op.kind == kStep) {
          incs_[op.incarnation].broken = true;
        }
      }
    }
  }

  std::vector<double> step_latencies_ms(const PhaseResult& r) const {
    std::vector<double> lat;
    lat.reserve(r.count);
    for (std::size_t i = r.first; i < r.first + r.count; ++i) {
      if (ops_[i].kind == kStep && ops_[i].status == kOk) {
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
  int conn_of(std::uint32_t slot) const { return static_cast<int>(slot % kConnections); }

  std::size_t push_op(Kind kind, std::int64_t sched, std::uint32_t inc) {
    Op op;
    op.kind = kind;
    op.sched = sched;
    op.incarnation = inc;
    ops_.push_back(op);
    ++outstanding_;
    return ops_.size() - 1;
  }

  void begin_open(std::uint32_t slot, std::int64_t sched) {
    Session& s = sessions_[slot];
    s.incarnation = new_incarnation(slot);
    s.wave = wave_of(incs_[s.incarnation]);
    s.opening = true;
    s.handle = 0;
    const std::size_t idx = push_op(kOpen, sched, s.incarnation);
    ops_[idx].sent = now_ns();
    net::encode_open(f_.wire->out(conn_of(slot)), idx + 1);
  }

  void send_step(std::size_t idx, std::uint32_t slot, std::int64_t now, SpanRecorder* rec) {
    Session& s = sessions_[slot];
    Incarnation& inc = incs_[s.incarnation];
    Op& op = ops_[idx];
    op.sent = now;
    for (std::uint32_t ch = 0; ch < c_in_; ++ch) {
      step_in_[ch] = s.wave.value(static_cast<std::int64_t>(inc.steps), ch);
    }
    ++inc.steps;
    net::encode_step(f_.wire->out(conn_of(slot)), idx + 1, s.handle, step_in_.data(), c_in_);
    if (rec != nullptr) {
      op.span = rec->add("client.request", op.sched, op.sched, -1, idx + 1);
      rec->add("loadgen.lag", op.sched, op.sent, op.span, idx + 1);
    }
  }

  void on_frame(const net::FrameView& fr, PhaseResult& res, SpanRecorder* rec) {
    net::ErrCode code{};
    std::uint64_t req = 0;
    std::uint8_t status = kOk;
    const std::uint8_t* out = nullptr;
    std::uint32_t session = 0;
    switch (fr.type) {
      case net::MsgType::kStepOut: {
        net::StepOutMsg m;
        if (!net::decode_step_out(fr.payload, m, code) || m.data.size() != 4U * c_out_) {
          res.transport_ok = false;
          return;
        }
        req = m.req_id;
        out = m.data.data();
        break;
      }
      case net::MsgType::kOpened: {
        net::OpenedMsg m;
        if (!net::decode_opened(fr.payload, m, code)) {
          res.transport_ok = false;
          return;
        }
        req = m.req_id;
        session = m.session;
        break;
      }
      case net::MsgType::kClosed: {
        net::ClosedMsg m;
        if (!net::decode_closed(fr.payload, m, code)) {
          res.transport_ok = false;
          return;
        }
        req = m.req_id;
        break;
      }
      case net::MsgType::kError: {
        net::ErrorMsg m;
        if (!net::decode_error(fr.payload, m, code)) {
          res.transport_ok = false;
          return;
        }
        req = m.req_id;
        status = kError;
        break;
      }
      default:
        res.transport_ok = false;
        return;
    }
    if (req == 0 || req > ops_.size() || ops_[req - 1].status != kPending) {
      res.transport_ok = false;
      return;
    }
    Op& op = ops_[req - 1];
    op.done = now_ns();
    op.status = status;
    --outstanding_;
    Incarnation& inc = incs_[op.incarnation];
    if (op.kind == kStep) {
      if (status == kOk) {
        inc.digest = digest(inc.digest, out, 4U * c_out_);
        ++inc.answered;
      } else {
        inc.broken = true;
      }
      if (rec != nullptr && op.span >= 0) {
        rec->set_end(op.span, op.done);
      }
    } else if (op.kind == kOpen) {
      Session& s = sessions_[inc.slot];
      if (status != kOk) {
        inc.broken = true;
        return;
      }
      s.handle = session;
      s.opening = false;
      for (const std::size_t idx : s.deferred) {
        send_step(idx, inc.slot, op.done, rec);
      }
      s.deferred.clear();
    }
  }

  Fleet& f_;
  std::uint64_t seed_;
  std::uint32_t c_in_ = 0;
  std::uint32_t c_out_ = 0;
  std::vector<Op> ops_;
  std::vector<Incarnation> incs_;
  std::vector<Session> sessions_;
  std::size_t outstanding_ = 0;
  std::uint64_t churn_cursor_ = 0;
  std::vector<float> step_in_;
};

/// Replays every incarnation through a private reference context and
/// compares the digests. Returns the number of incarnations that differ.
std::size_t verify_incarnations(const runtime::CompiledPlan& plan,
                                std::vector<Incarnation>& incs) {
  pin_self(0, host_cpus() - 1);  // the replay threads inherit every CPU
  const unsigned threads = std::min(4U, host_cpus());
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> cursor{0};
  const index_t c_in = plan.input_channels();
  const index_t c_out = plan.output_channels();
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      runtime::ExecutionContext ctx;
      std::vector<float> in(static_cast<std::size_t>(c_in));
      std::vector<float> out(static_cast<std::size_t>(c_out));
      for (std::size_t i = cursor.fetch_add(1); i < incs.size(); i = cursor.fetch_add(1)) {
        const Incarnation& inc = incs[i];
        if (inc.broken) {
          continue;
        }
        if (inc.answered != inc.steps) {
          wrong.fetch_add(1);
          continue;
        }
        const Waveform wave = StreamLoad::wave_of(inc);
        ctx.reset_stream();
        std::uint64_t h = kDigestSeed;
        for (std::uint64_t t = 0; t < inc.steps; ++t) {
          for (index_t ch = 0; ch < c_in; ++ch) {
            in[static_cast<std::size_t>(ch)] = wave.value(static_cast<std::int64_t>(t), ch);
          }
          plan.step(in.data(), out.data(), ctx);
          h = digest(h, out.data(), sizeof(float) * out.size());
        }
        if (h != inc.digest) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return wrong.load();
}

std::unique_ptr<Fleet> set_up(bool pinned, int fleet, std::uint64_t seed,
                              std::unique_ptr<StreamLoad>& load, std::string& err) {
  if (pinned) {
    pin_self(0, 0);  // the event loop, the only server thread, on CPU 0
  }
  auto f = std::make_unique<Fleet>();
  f->plans = build_plans();
  serve::SessionManagerOptions so;
  so.max_sessions = kMaxSessions;
  f->sessions = std::make_unique<serve::SessionManager>(f->plans.int8, so);
  f->frontend = std::make_unique<net::FrontEnd>(nullptr, f->sessions.get(), net::FrontEndOptions{});
  f->frontend->start();
  f->wire = std::make_unique<Wire>();
  if (!f->wire->connect(f->frontend->port(), kConnections, err)) {
    return nullptr;
  }
  if (pinned) {
    pin_self(host_cpus() - 1, host_cpus() - 1);
  }
  load = std::make_unique<StreamLoad>(*f, seed);
  if (!load->open_fleet(fleet, err)) {
    return nullptr;
  }
  return f;
}

double macs_per_step(const runtime::CompiledPlan& plan) {
  double macs = 0.0;
  for (const auto& op : plan.op_infos()) {
    macs += static_cast<double>(op.macs()) / static_cast<double>(std::max<index_t>(1, op.t_out));
  }
  return macs;
}

struct IsolationResult {
  std::vector<double> lat_us;   // from schedule
  std::vector<double> step_us;  // SessionManager::step call
  std::vector<double> open_us;
  std::vector<double> close_us;
  std::size_t ops = 0;
  std::size_t failed = 0;
};

/// In-process isolation: the traced phase's schedule and churn, driven
/// straight into the SessionManager from this thread.
IsolationResult run_isolation(serve::SessionManager& mgr, StreamLoad& d, int active,
                              double seconds, SpanRecorder& rec) {
  IsolationResult out;
  std::vector<serve::SessionManager::SessionId> ids(static_cast<std::size_t>(active));
  std::vector<std::uint32_t> inc_of(static_cast<std::size_t>(active));
  std::vector<Waveform> waves(static_cast<std::size_t>(active));
  auto open_slot = [&](std::size_t j) {
    const std::uint32_t inc = d.new_incarnation(static_cast<std::uint32_t>(j));
    inc_of[j] = inc;
    waves[j] = StreamLoad::wave_of(d.incarnations()[inc]);
    const std::int64_t a = now_ns();
    try {
      ids[j] = mgr.open();
    } catch (const std::exception&) {
      d.incarnations()[inc].broken = true;
      ++out.failed;
    }
    const std::int64_t b = now_ns();
    out.open_us.push_back(ns_to_us(b - a));
    rec.add("serve.open", a, b, -1, 0);
    ++out.ops;
  };
  for (std::size_t j = 0; j < ids.size(); ++j) {
    open_slot(j);
  }
  const double rate = kHz * active;
  const std::int64_t step_period = std::llround(1e9 / rate);
  const std::int64_t churn_period = std::llround(1e9 / (kChurnPerS * active));
  const std::size_t n = static_cast<std::size_t>(std::llround(rate * seconds));
  const std::int64_t t0 = now_ns() + 1000000;
  std::int64_t next_churn = t0 + churn_period / 2;
  std::size_t cursor = 0;
  std::vector<float> in(d.c_in());
  std::vector<float> outv(d.c_out());
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t sched = t0 + static_cast<std::int64_t>(i) * step_period;
    while (next_churn <= sched) {
      sleep_until_ns(next_churn);
      const std::size_t j = cursor++ % ids.size();
      const std::int64_t a = now_ns();
      try {
        mgr.close(ids[j]);
      } catch (const std::exception&) {
        ++out.failed;
      }
      const std::int64_t b = now_ns();
      out.close_us.push_back(ns_to_us(b - a));
      rec.add("serve.close", a, b, -1, 0);
      ++out.ops;
      open_slot(j);
      next_churn += churn_period;
    }
    sleep_until_ns(sched);
    const std::size_t j = i % ids.size();
    Incarnation& inc = d.incarnations()[inc_of[j]];
    for (std::uint32_t ch = 0; ch < d.c_in(); ++ch) {
      in[ch] = waves[j].value(static_cast<std::int64_t>(inc.steps), ch);
    }
    ++inc.steps;
    const std::int64_t a = now_ns();
    try {
      mgr.step(ids[j], in.data(), outv.data());
      inc.digest = digest(inc.digest, outv.data(), sizeof(float) * outv.size());
      ++inc.answered;
    } catch (const std::exception&) {
      inc.broken = true;
      ++out.failed;
    }
    const std::int64_t b = now_ns();
    out.step_us.push_back(ns_to_us(b - a));
    out.lat_us.push_back(ns_to_us(b - sched));
    const std::int32_t sp = rec.add("serve.request", sched, b, -1, i + 1);
    rec.add("serve.step", a, b, sp, i + 1);
    ++out.ops;
  }
  for (const auto id : ids) {
    try {
      mgr.close(id);
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  return out;
}

/// Median wall time of one int8 plan.step on a private context, in us.
double time_step_us(const runtime::CompiledPlan& plan, double budget_s, SpanRecorder& rec) {
  runtime::ExecutionContext ctx;
  const Waveform wave = Waveform::make(0, 99);
  std::vector<float> in(static_cast<std::size_t>(plan.input_channels()));
  std::vector<float> out(static_cast<std::size_t>(plan.output_channels()));
  std::vector<double> us;
  std::int64_t t = 0;
  auto one = [&] {
    for (std::size_t ch = 0; ch < in.size(); ++ch) {
      in[ch] = wave.value(t, static_cast<std::int64_t>(ch));
    }
    ++t;
    plan.step(in.data(), out.data(), ctx);
  };
  for (int i = 0; i < 500; ++i) {
    one();
  }
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while ((now_ns() < stop || us.size() < 1000) && us.size() < 200000) {
    const std::int32_t sp = rec.open("runtime.step.i8", 0);
    const std::int64_t a = now_ns();
    one();
    us.push_back(ns_to_us(now_ns() - a));
    rec.close(sp);
  }
  return median(us);
}

}  // namespace

Report run_stream_fleet(const RunOptions& opts) {
  Report rep;
  const bool pinned = host_cpus() >= 4;
  tighten_timer_slack();
  const int fleet = fleet_size();

  std::vector<double> setup_s;
  std::vector<double> compile_ms;
  std::vector<double> quantize_ms;
  std::unique_ptr<Fleet> f;
  std::unique_ptr<StreamLoad> d;
  const int reps = opts.trace ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    d.reset();
    f.reset();
    std::string err;
    const std::int64_t t0 = now_ns();
    f = set_up(pinned, fleet, opts.seed, d, err);
    if (!f) {
      rep.check(false, "stream_fleet setup: " + err);
      return rep;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    compile_ms.push_back(f->plans.compile_ms);
    quantize_ms.push_back(f->plans.quantize_ms);
  }
  const runtime::CompiledPlan& plan = *f->plans.int8;

  const double secs = opts.seconds;
  rep.config("model", "temponet_paper backbone int8 (4 -> 128 per step)");
  rep.config("session_manager.shards", static_cast<double>(f->sessions->num_shards()));
  rep.config("session_manager.max_sessions", static_cast<double>(kMaxSessions));
  rep.config("frontend.event_loop_threads", 1);
  rep.config("connections", kConnections);
  rep.config("fleet.sessions_opened", fleet);
  rep.config("step_hz", kHz);
  rep.config("churn_per_s", kChurnPerS);
  rep.config("rate.low_per_s", kHz * kLowSessions);
  rep.config("rate.high_per_s", kHz * kHighSessions);
  rep.config("slo.p99_ms", kSloMs);
  rep.config("ladder", "200 Hz x round(50 x 1.04^k) sessions, k < 100, 1 s rungs");
  rep.config("cpus.pinned", pinned ? "event loop 0, generator n-1" : "no");

  const std::size_t no_abort = static_cast<std::size_t>(-1);
  SpanRecorder rec;
  (void)d->run(kHighSessions, 0.5, no_abort, nullptr);  // warm-up

  if (!opts.trace) {
    // Alternating segments, as in window_submit.
    std::vector<double> low_lat;
    std::vector<double> high_lat;
    double high_cpu_ms = 0.0;
    double high_steps = 0.0;
    bool transport_ok = true;
    for (int i = 0; i < kSegments; ++i) {
      const PhaseResult low = d->run(kLowSessions, 0.2 * secs / kSegments, no_abort, nullptr);
      const PhaseResult high = d->run(kHighSessions, 0.3 * secs / kSegments, no_abort, nullptr);
      transport_ok = transport_ok && low.transport_ok && high.transport_ok;
      const std::vector<double> l = d->step_latencies_ms(low);
      const std::vector<double> h = d->step_latencies_ms(high);
      low_lat.insert(low_lat.end(), l.begin(), l.end());
      high_lat.insert(high_lat.end(), h.begin(), h.end());
      high_cpu_ms += high.cpu_ms;
      high_steps += static_cast<double>(high.steps);
    }
    rep.check(transport_ok, "transport error in a fixed-rate phase");
    const double rss_mb = peak_rss_mb();  // before the ladder, as in window_submit
    const LatencySummary lo = chunked_percentiles(low_lat, kChunk);
    const LatencySummary hi = chunked_percentiles(high_lat, kChunk);
    print_distribution("low", low_lat);
    print_distribution("high", high_lat);

    const int start = static_cast<int>(std::lround(
        std::log(2.0 * kHighSessions / kLadderBase) / std::log(kLadderStep)));
    const LadderResult ladder = search_ladder(kLadderRungs, start, kLadderStride, [&](int k) {
      const int active = ladder_sessions(k);
      const double rate = kHz * active;
      // Capped so the replies a stalled reader leaves queued stay far
      // below the front end's slow-reader limit (max_outbuf).
      const std::size_t abort = std::min<std::size_t>(
          kMaxAbortBacklog,
          std::max<std::size_t>(64, static_cast<std::size_t>(rate * kAbortBacklogS)));
      const PhaseResult r = d->run(active, kRungSeconds, abort, nullptr);
      const double p99 = chunked_percentiles(d->step_latencies_ms(r), kChunk).p99;
      const double pace = last_second_pace(d->ops(), r.first, r.count, r.t_end,
                                           static_cast<std::int64_t>(kSloMs * 1e6), kOk);
      const bool pass = r.transport_ok && !r.aborted && d->failures(r) == 0 &&
                        p99 <= kSloMs && pace >= kMinPace;
      std::printf("rung %3d  %5d sessions %8.0f/s  p99 %7.3f ms  pace %.3f%s  %s\n", k,
                  active, rate, p99, pace, r.aborted ? " (aborted)" : "",
                  pass ? "pass" : "FAIL");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return pass;
    });
    rep.check(ladder.best >= 0, "the ladder's lowest rung already fails the SLO");
    rep.check(ladder.first_fail >= 0,
              "no ladder rung failed the SLO: the knee lies above the ladder");
    const double best_rate = ladder.best >= 0 ? kHz * ladder_sessions(ladder.best) : 0.0;

    rep.metric("setup_s", median(setup_s), "s");
    rep.config("p50_ms.low", lo.p50);
    rep.config("p99_ms.low", lo.p99);
    rep.config("p50_ms.high", hi.p50);
    rep.config("p99_ms.high", hi.p99);
    rep.metric("ops_per_s", best_rate, "1/s");
    rep.config("samples.low", static_cast<double>(lo.samples));
    rep.config("samples.high", static_cast<double>(hi.samples));
    rep.config("max_rps_at_slo", best_rate);
    rep.config("ladder.probes", ladder.probes);
    rep.config("ladder.first_failing_rung_per_s",
               ladder.first_fail >= 0 ? kHz * ladder_sessions(ladder.first_fail) : 0.0);
    rep.metric("cpu_ms_per_kop", high_steps > 0 ? 1000.0 * high_cpu_ms / high_steps : 0.0,
               "ms");
    rep.metric("peak_rss_mb", rss_mb, "MB");
  } else {
    const double phase_s = 0.25 * secs;
    const PhaseResult plain = d->run(kHighSessions, phase_s, no_abort, nullptr);
    const serve::SessionManagerStats ms0 = f->sessions->stats();
    const net::FrontEndStats fs0 = f->frontend->stats();
    rec.reserve(static_cast<std::size_t>(kHz * kHighSessions * phase_s) * 5 + 100000);
    const PhaseResult traced = d->run(kHighSessions, phase_s, no_abort, &rec);
    const serve::SessionManagerStats ms1 = f->sessions->stats();
    const net::FrontEndStats fs1 = f->frontend->stats();
    const serve::SessionAllocatorStats as = f->sessions->allocator_stats();
    rep.check(plain.transport_ok && traced.transport_ok, "transport error in a traced phase");
    std::vector<double> plain_lat = d->step_latencies_ms(plain);
    std::vector<double> tcp_lat = d->step_latencies_ms(traced);
    const double plain_p50 = quantile(plain_lat, 0.5);
    const double tcp_p50 = quantile(tcp_lat, 0.5);
    const double tcp_p99 = quantile(tcp_lat, 0.99);

    IsolationResult iso = run_isolation(*f->sessions, *d, kHighSessions, phase_s, rec);
    rep.ops(iso.ops, iso.failed);
    const double iso_p50 = quantile(iso.lat_us, 0.5);
    const double iso_p99 = quantile(iso.lat_us, 0.99);
    const double step_us = time_step_us(plan, 0.05 * secs, rec);
    const double mps = macs_per_step(plan);
    const double opened = static_cast<double>(ms1.opened - ms0.opened);

    rep.metric("net.overhead_p50_us", 1000.0 * tcp_p50 - iso_p50, "us");
    rep.metric("net.overhead_p99_us", 1000.0 * tcp_p99 - iso_p99, "us");
    rep.metric("net.codec_step_ns", time_step_codec(d->c_in(), d->c_out()), "ns");
    rep.metric("net.wire_bytes_per_op",
               traced.count > 0 ? static_cast<double>(traced.wire_bytes) /
                                      static_cast<double>(traced.count)
                                : 0.0,
               "bytes");
    rep.metric("net.sheds", static_cast<double>(fs1.sheds - fs0.sheds), "count");
    rep.metric("net.inflight_peak", static_cast<double>(fs1.inflight), "count");
    rep.metric("net.protocol_errors",
               static_cast<double>(fs1.protocol_errors - fs0.protocol_errors), "count");
    rep.metric("net.exec_errors", static_cast<double>(fs1.exec_errors - fs0.exec_errors),
               "count");
    rep.metric("serve.step_p50_us", quantile(iso.step_us, 0.5), "us");
    rep.metric("serve.step_p99_us", quantile(iso.step_us, 0.99), "us");
    rep.metric("serve.open_p50_us", quantile(iso.open_us, 0.5), "us");
    rep.metric("serve.close_p50_us", quantile(iso.close_us, 0.5), "us");
    rep.metric("serve.recycled_frac",
               opened > 0 ? static_cast<double>(ms1.recycled - ms0.recycled) / opened : 0.0,
               "ratio");
    rep.metric("serve.alloc_hit_frac",
               as.allocations > 0 ? static_cast<double>(as.cache_hits) /
                                        static_cast<double>(as.allocations)
                                  : 0.0,
               "ratio");
    rep.metric("serve.evicted", static_cast<double>(ms1.evicted - ms0.evicted), "count");
    rep.metric("serve.session_live_mb", static_cast<double>(as.live_bytes) / (1 << 20), "MB");
    rep.metric("serve.session_cached_mb", static_cast<double>(as.cached_bytes) / (1 << 20),
               "MB");
    rep.metric("runtime.step_us.i8", step_us, "us");
    rep.metric("runtime.step_gmacs.i8", mps / (step_us * 1e3), "GMAC/s");
    rep.metric("runtime.macs_per_step", mps, "count");
    rep.metric("runtime.arena_kb_per_sample",
               static_cast<double>(plan.quant_arena_bytes_per_sample()) / 1024.0, "KiB");
    rep.metric("runtime.compile_ms", median(compile_ms), "ms");
    rep.metric("runtime.quantize_ms", median(quantize_ms), "ms");
    rep.metric("loadgen.lag_p99_ms", d->lag_p99_ms(traced), "ms");
    rep.metric("trace.overhead_frac", plain_p50 > 0 ? (tcp_p50 - plain_p50) / plain_p50 : 0.0,
               "ratio");
    rep.check(ms1.evicted == ms0.evicted, "sessions were evicted");
    rep.config("samples.traced", static_cast<double>(tcp_lat.size()));
  }

  // Close the fleet's connections before replaying the reference.
  d->finish();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const Op& op : d->ops()) {
    ++attempted;
    failed += op.status != kOk ? 1 : 0;
  }
  const std::size_t wrong = verify_incarnations(plan, d->incarnations());
  rep.ops(attempted, failed + wrong);
  rep.check(wrong == 0, std::to_string(wrong) +
                            " session sequences differ from the reference context");
  rep.config("incarnations", static_cast<double>(d->incarnations().size()));
  if (opts.trace) {
    const std::string path =
        opts.out_dir + "/trace-stream_fleet-seed" + std::to_string(opts.seed) + ".json";
    rep.check(rec.write(path, 50000), "cannot write " + path);
    rep.config("trace.file", path);
  }
  d.reset();
  f.reset();
  return rep;
}

}  // namespace pitbench
