// End-to-end loopback tests for the network front end (src/net/): a real
// FrontEnd bound to an ephemeral port, driven over real TCP sockets by
// the client in net/client.hpp. The core acceptance property is parity —
// a socket round trip must return the exact bytes the in-process serving
// call returns — plus the protocol's failure surface: negotiation
// rejects, admission-control sheds, session errors, drain, and idle
// collection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "models/temponet.hpp"
#include "net/client.hpp"
#include "net/front_end.hpp"
#include "runtime/compile_models.hpp"
#include "serve/inference_server.hpp"
#include "serve/session_manager.hpp"
#include "serve/stream_session.hpp"
#include "server_requests.hpp"

using namespace pit;

namespace {

struct Plans {
  std::shared_ptr<const runtime::CompiledPlan> submit;
  std::shared_ptr<const runtime::CompiledPlan> stream;
};

/// One bench-scale TEMPONet compiled both ways, shared across the suite
/// (compiling is the expensive part; FrontEnd instances are cheap).
const Plans& plans() {
  static const Plans shared = [] {
    models::TempoNetConfig cfg;
    cfg.input_length = 64;
    cfg.channel_scale = 0.25;
    RandomEngine rng(17);
    models::TempoNet model(
        cfg, models::dilated_conv_factory(rng, cfg.dilations), rng);
    model.train();
    model.forward(
        Tensor::randn(Shape{4, cfg.input_channels, cfg.input_length}, rng));
    model.eval();
    Plans out;
    out.submit = runtime::compile_plan(model);
    out.stream = runtime::compile_stream_backbone(model, cfg.input_length);
    return out;
  }();
  return shared;
}

serve::ServerOptions small_server_options() {
  serve::ServerOptions opts;
  opts.threads = 2;
  opts.max_wait = std::chrono::microseconds(200);
  return opts;
}

serve::SessionManagerOptions small_session_options() {
  serve::SessionManagerOptions opts;
  opts.max_sessions = 32;
  opts.shards = 1;
  return opts;
}

/// Polls `fn` (a stats predicate) until true or ~2 s passes.
template <typename Fn>
bool eventually(Fn&& fn) {
  for (int i = 0; i < 200; ++i) {
    if (fn()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fn();
}

}  // namespace

TEST(FrontEnd, HelloNegotiationReportsPlanGeometry) {
  serve::InferenceServer server(plans().submit, small_server_options());
  serve::SessionManager sessions(plans().stream, small_session_options());
  net::FrontEndOptions opts;
  opts.max_inflight = 77;
  net::FrontEnd frontend(&server, &sessions, opts);
  frontend.start();
  ASSERT_GT(frontend.port(), 0);

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()))
      << client.last_error().message;
  const net::HelloOkMsg& hello = client.hello();
  EXPECT_EQ(hello.version, net::kProtocolVersion);
  EXPECT_TRUE(hello.submit_available);
  EXPECT_TRUE(hello.stream_available);
  EXPECT_EQ(hello.submit_in_channels,
            static_cast<std::uint32_t>(plans().submit->input_channels()));
  EXPECT_EQ(hello.submit_in_steps,
            static_cast<std::uint32_t>(plans().submit->input_steps()));
  EXPECT_EQ(hello.submit_out_channels,
            static_cast<std::uint32_t>(plans().submit->output_channels()));
  EXPECT_EQ(hello.submit_out_steps,
            static_cast<std::uint32_t>(plans().submit->output_steps()));
  EXPECT_EQ(hello.stream_in_channels,
            static_cast<std::uint32_t>(plans().stream->input_channels()));
  EXPECT_EQ(hello.stream_out_channels,
            static_cast<std::uint32_t>(plans().stream->output_channels()));
  EXPECT_EQ(hello.max_inflight, 77U);
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(frontend.stats().hellos, 1U);
  frontend.stop();
}

TEST(FrontEnd, FirstFrameMustBeHello) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEnd frontend(&server, nullptr);
  frontend.start();

  net::ClientConn conn;
  ASSERT_TRUE(conn.connect("127.0.0.1", frontend.port()));
  std::vector<std::uint8_t> bytes;
  net::encode_ping(bytes, 1);
  ASSERT_TRUE(conn.send_frames(bytes));

  net::FrameView frame;
  ASSERT_EQ(conn.recv_frame(frame), net::FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, net::MsgType::kError);
  net::ErrorMsg msg;
  net::ErrCode err{};
  ASSERT_TRUE(net::decode_error(frame.payload, msg, err));
  EXPECT_EQ(msg.code, net::ErrCode::kBadFrame);
  // BAD_FRAME is fatal: the server closes after flushing the error.
  EXPECT_EQ(conn.recv_frame(frame, 1000),
            net::FrameReader::Status::kNeedMore);
  EXPECT_TRUE(eventually(
      [&] { return frontend.stats().protocol_errors >= 1; }));
  frontend.stop();
}

TEST(FrontEnd, RejectsUnsupportedVersionRange) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEnd frontend(&server, nullptr);
  frontend.start();

  net::ClientConn conn;
  ASSERT_TRUE(conn.connect("127.0.0.1", frontend.port()));
  net::HelloMsg hello;
  hello.ver_min = net::kProtocolVersion + 1;
  hello.ver_max = net::kProtocolVersion + 5;
  std::vector<std::uint8_t> bytes;
  net::encode_hello(bytes, hello);
  ASSERT_TRUE(conn.send_frames(bytes));

  net::FrameView frame;
  ASSERT_EQ(conn.recv_frame(frame), net::FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, net::MsgType::kError);
  net::ErrorMsg msg;
  net::ErrCode err{};
  ASSERT_TRUE(net::decode_error(frame.payload, msg, err));
  EXPECT_EQ(msg.code, net::ErrCode::kUnsupportedVersion);
  frontend.stop();
}

TEST(FrontEnd, DuplicateHelloIsFatal) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEnd frontend(&server, nullptr);
  frontend.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  std::vector<std::uint8_t> bytes;
  net::encode_hello(bytes, net::HelloMsg{});
  ASSERT_TRUE(client.conn().send_frames(bytes));
  net::FrameView frame;
  ASSERT_EQ(client.conn().recv_frame(frame),
            net::FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, net::MsgType::kError);
  net::ErrorMsg msg;
  net::ErrCode err{};
  ASSERT_TRUE(net::decode_error(frame.payload, msg, err));
  EXPECT_EQ(msg.code, net::ErrCode::kBadFrame);
  frontend.stop();
}

TEST(FrontEnd, SubmitParityIsBitExact) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEnd frontend(&server, nullptr);
  frontend.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const net::HelloOkMsg& hello = client.hello();
  RandomEngine rng(123);
  std::vector<float> wire_out;
  for (int i = 0; i < 12; ++i) {
    Tensor window = Tensor::randn(
        Shape{static_cast<index_t>(hello.submit_in_channels),
              static_cast<index_t>(hello.submit_in_steps)},
        rng);
    ASSERT_TRUE(client.submit(window.data(), wire_out))
        << client.last_error().message;
    const Tensor direct = test::submit_blocking(server, window.clone());
    ASSERT_EQ(wire_out.size(), static_cast<std::size_t>(direct.numel()));
    EXPECT_EQ(std::memcmp(wire_out.data(), direct.data(),
                          wire_out.size() * sizeof(float)),
              0)
        << "socket result diverged from direct submit at window " << i;
  }
  EXPECT_EQ(frontend.stats().results, 12U);
  frontend.stop();
}

TEST(FrontEnd, BadShapeIsReportedAndRecoverable) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEnd frontend(&server, nullptr);
  frontend.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const net::HelloOkMsg& hello = client.hello();

  // A well-formed frame whose window does not match the plan geometry.
  const std::uint32_t bad_c = hello.submit_in_channels + 1;
  std::vector<float> window(static_cast<std::size_t>(bad_c) *
                            hello.submit_in_steps);
  std::vector<std::uint8_t> bytes;
  net::encode_submit(bytes, 4242, bad_c, hello.submit_in_steps,
                     window.data());
  ASSERT_TRUE(client.conn().send_frames(bytes));
  net::FrameView frame;
  ASSERT_EQ(client.conn().recv_frame(frame),
            net::FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, net::MsgType::kError);
  net::ErrorMsg msg;
  net::ErrCode err{};
  ASSERT_TRUE(net::decode_error(frame.payload, msg, err));
  EXPECT_EQ(msg.code, net::ErrCode::kBadShape);
  EXPECT_EQ(msg.req_id, 4242U);

  // BAD_SHAPE is not fatal: the same connection still serves work.
  RandomEngine rng(5);
  Tensor good = Tensor::randn(
      Shape{static_cast<index_t>(hello.submit_in_channels),
            static_cast<index_t>(hello.submit_in_steps)},
      rng);
  std::vector<float> out;
  EXPECT_TRUE(client.submit(good.data(), out))
      << client.last_error().message;
  frontend.stop();
}

TEST(FrontEnd, StreamParityAndSessionLifecycle) {
  serve::SessionManager sessions(plans().stream, small_session_options());
  net::FrontEnd frontend(nullptr, &sessions);
  frontend.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const net::HelloOkMsg& hello = client.hello();
  EXPECT_FALSE(hello.submit_available);
  EXPECT_TRUE(hello.stream_available);

  std::uint32_t handle = 0;
  ASSERT_TRUE(client.open_session(handle))
      << client.last_error().message;

  serve::StreamSession direct(plans().stream);
  RandomEngine rng(321);
  std::vector<float> wire_out;
  for (int t = 0; t < 40; ++t) {
    Tensor tick = Tensor::randn(
        Shape{static_cast<index_t>(hello.stream_in_channels)}, rng);
    ASSERT_TRUE(client.step(handle, tick.data(), wire_out))
        << client.last_error().message;
    const Tensor expect = direct.step(tick);
    ASSERT_EQ(static_cast<index_t>(wire_out.size()), expect.numel());
    EXPECT_EQ(std::memcmp(wire_out.data(), expect.data(),
                          wire_out.size() * sizeof(float)),
              0)
        << "socket stream diverged from direct StreamSession at t=" << t;
  }
  ASSERT_TRUE(client.close_session(handle));

  // A closed handle and a never-issued handle both answer UNKNOWN_SESSION
  // without killing the connection.
  std::vector<float> tick(hello.stream_in_channels, 0.0F);
  EXPECT_FALSE(client.step(handle, tick.data(), wire_out));
  EXPECT_EQ(client.last_error().code, net::ErrCode::kUnknownSession);
  EXPECT_FALSE(client.step(9999, tick.data(), wire_out));
  EXPECT_EQ(client.last_error().code, net::ErrCode::kUnknownSession);
  EXPECT_TRUE(client.ping());

  const net::FrontEndStats stats = frontend.stats();
  EXPECT_EQ(stats.steps, 40U);
  EXPECT_EQ(stats.opens, 1U);
  EXPECT_EQ(stats.session_closes, 1U);
  EXPECT_EQ(stats.open_sessions, 0U);
  frontend.stop();
}

TEST(FrontEnd, ShedsWithRetryAfterAtBudget) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEndOptions opts;
  opts.max_inflight = 0;  // admission budget of zero: everything sheds
  opts.retry_after_ms = 7;
  net::FrontEnd frontend(&server, nullptr, opts);
  frontend.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const net::HelloOkMsg& hello = client.hello();
  std::vector<float> window(
      static_cast<std::size_t>(hello.submit_in_channels) *
      hello.submit_in_steps);
  std::vector<float> out;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(client.submit(window.data(), out));
    EXPECT_EQ(client.last_error().code, net::ErrCode::kRetryAfter);
    EXPECT_EQ(client.last_error().retry_after_ms, 7U);
  }
  // The shed was a fast-reject, not a close: the connection still works.
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(frontend.stats().sheds, 3U);
  EXPECT_EQ(frontend.stats().submits, 0U);
  frontend.stop();
}

TEST(FrontEnd, SessionLimitCarriesBackoffHint) {
  serve::SessionManagerOptions session_opts;
  session_opts.max_sessions = 1;
  session_opts.shards = 1;
  serve::SessionManager sessions(plans().stream, session_opts);
  net::FrontEndOptions opts;
  opts.retry_after_ms = 11;
  net::FrontEnd frontend(nullptr, &sessions, opts);
  frontend.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  std::uint32_t first = 0;
  ASSERT_TRUE(client.open_session(first));
  std::uint32_t second = 0;
  EXPECT_FALSE(client.open_session(second));
  EXPECT_EQ(client.last_error().code, net::ErrCode::kSessionLimit);
  EXPECT_EQ(client.last_error().retry_after_ms, 11U);
  // Closing the first frees the slot for a retry.
  ASSERT_TRUE(client.close_session(first));
  EXPECT_TRUE(client.open_session(second))
      << client.last_error().message;
  EXPECT_EQ(frontend.stats().session_rejects, 1U);
  frontend.stop();
}

TEST(FrontEnd, MissingSurfacesAnswerNotAvailable) {
  serve::SessionManager sessions(plans().stream, small_session_options());
  net::FrontEnd stream_only(nullptr, &sessions);
  stream_only.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", stream_only.port()));
  // With no InferenceServer the advertised submit geometry is 0x0, so a
  // zero-float SUBMIT is the well-formed probe.
  const float dummy = 0.0F;
  std::vector<std::uint8_t> bytes;
  net::encode_submit(bytes, 7, 0, 0, &dummy);
  ASSERT_TRUE(client.conn().send_frames(bytes));
  net::FrameView frame;
  ASSERT_EQ(client.conn().recv_frame(frame),
            net::FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, net::MsgType::kError);
  net::ErrorMsg msg;
  net::ErrCode err{};
  ASSERT_TRUE(net::decode_error(frame.payload, msg, err));
  EXPECT_EQ(msg.code, net::ErrCode::kNotAvailable);
  stream_only.stop();

  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEnd submit_only(&server, nullptr);
  submit_only.start();
  net::BlockingClient client2;
  ASSERT_TRUE(client2.connect("127.0.0.1", submit_only.port()));
  std::uint32_t handle = 0;
  EXPECT_FALSE(client2.open_session(handle));
  EXPECT_EQ(client2.last_error().code, net::ErrCode::kNotAvailable);
  submit_only.stop();
}

TEST(FrontEnd, DrainAnswersAdmittedWorkBeforeClosing) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEnd frontend(&server, nullptr);
  frontend.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const net::HelloOkMsg& hello = client.hello();

  // Pipeline several SUBMITs without reading replies, wait until all are
  // admitted, then stop(): drain must answer every one of them.
  constexpr int kPipelined = 6;
  RandomEngine rng(9);
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kPipelined; ++i) {
    Tensor window = Tensor::randn(
        Shape{static_cast<index_t>(hello.submit_in_channels),
              static_cast<index_t>(hello.submit_in_steps)},
        rng);
    net::encode_submit(burst, static_cast<std::uint64_t>(i + 1),
                       hello.submit_in_channels, hello.submit_in_steps,
                       window.data());
  }
  ASSERT_TRUE(client.conn().send_frames(burst));
  ASSERT_TRUE(eventually(
      [&] { return frontend.stats().submits == kPipelined; }));
  frontend.stop();

  // Everything admitted was flushed before the close: read to EOF.
  int results = 0;
  net::FrameView frame;
  while (client.conn().recv_frame(frame, 1000) ==
         net::FrameReader::Status::kFrame) {
    if (frame.type == net::MsgType::kResult) {
      ++results;
    }
  }
  EXPECT_EQ(results, kPipelined);
  EXPECT_EQ(frontend.stats().results,
            static_cast<std::uint64_t>(kPipelined));
}

TEST(FrontEnd, IdleConnectionsAreCollected) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEndOptions opts;
  opts.idle_timeout = std::chrono::milliseconds(50);
  net::FrontEnd frontend(&server, nullptr, opts);
  frontend.start();

  net::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(eventually(
      [&] { return frontend.stats().idle_closed >= 1; }));
  EXPECT_EQ(frontend.stats().connections, 0U);
  frontend.stop();
}

TEST(FrontEnd, ConnectionCapClosesExcessClients) {
  serve::InferenceServer server(plans().submit, small_server_options());
  net::FrontEndOptions opts;
  opts.max_connections = 1;
  net::FrontEnd frontend(&server, nullptr, opts);
  frontend.start();

  net::BlockingClient first;
  ASSERT_TRUE(first.connect("127.0.0.1", frontend.port()));
  net::BlockingClient second;
  // Accepted then immediately closed: negotiation cannot complete.
  EXPECT_FALSE(second.connect("127.0.0.1", frontend.port(), 1000));
  EXPECT_TRUE(first.ping());
  frontend.stop();
}
