// The open-loop generator's transport: up to four non-blocking TCP
// connections to the in-process front end, one thread.
//
// The caller encodes frames into a connection's output buffer when their
// scheduled time comes and calls pump(), which flushes what the sockets
// accept and waits in ppoll() until the next scheduled send or the next
// reply, whichever is first. No sleep quantum: a send is late only by the
// wake-up cost, which the caller reports as generator lag.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/protocol.hpp"

namespace pitbench {

class Wire {
 public:
  Wire() = default;
  ~Wire() { close(); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Opens `n` connections to 127.0.0.1:`port` and negotiates HELLO on
  /// each (blocking), then switches them to non-blocking.
  bool connect(std::uint16_t port, int n, std::string& err) {
    for (int i = 0; i < n; ++i) {
      auto c = std::make_unique<Conn>();
      c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (c->fd < 0 ||
          ::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        err = "connect to 127.0.0.1:" + std::to_string(port) + " failed";
        return false;
      }
      int one = 1;
      (void)::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::vector<std::uint8_t> hello;
      pit::net::encode_hello(hello, pit::net::HelloMsg{});
      if (::send(c->fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(hello.size())) {
        err = "HELLO send failed";
        return false;
      }
      pit::net::FrameView frame;
      bool got = false;
      while (!got) {
        const auto st = c->reader.next(frame);
        if (st == pit::net::FrameReader::Status::kFrame) {
          pit::net::ErrCode code{};
          pit::net::HelloOkMsg ok;
          if (frame.type != pit::net::MsgType::kHelloOk ||
              !pit::net::decode_hello_ok(frame.payload, ok, code)) {
            err = "server did not answer HELLO with HELLO_OK";
            return false;
          }
          got = true;
          break;
        }
        if (st == pit::net::FrameReader::Status::kError) {
          err = "malformed HELLO reply";
          return false;
        }
        std::uint8_t buf[4096];
        const ssize_t r = ::recv(c->fd, buf, sizeof(buf), 0);
        if (r <= 0) {
          err = "connection closed during HELLO";
          return false;
        }
        c->reader.feed(buf, static_cast<std::size_t>(r));
      }
      const int flags = ::fcntl(c->fd, F_GETFL, 0);
      (void)::fcntl(c->fd, F_SETFL, flags | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
    return true;
  }

  /// Output buffer of connection `c`: append complete frames, then pump().
  std::vector<std::uint8_t>& out(int c) { return conns_[static_cast<std::size_t>(c)]->out; }

  /// Sends what the sockets take now, then waits until `deadline_ns` or
  /// until bytes arrive, and hands every complete frame to
  /// on_frame(conn_index, frame). False on a transport or framing error
  /// (the peer closed, a malformed frame).
  template <typename OnFrame>
  bool pump(std::int64_t deadline_ns, OnFrame&& on_frame) {
    for (auto& c : conns_) {
      if (!flush_one(*c)) {
        return false;
      }
    }
    pfds_.resize(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds_[i].fd = conns_[i]->fd;
      pfds_[i].events = static_cast<short>(
          POLLIN | (conns_[i]->out.size() > conns_[i]->out_off ? POLLOUT : 0));
      pfds_[i].revents = 0;
    }
    const std::int64_t wait = std::max<std::int64_t>(0, deadline_ns - now_ns());
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait / 1000000000);
    ts.tv_nsec = static_cast<long>(wait % 1000000000);
    const int ready = ::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
    if (ready < 0) {
      return errno == EINTR;
    }
    for (std::size_t i = 0; i < conns_.size() && ready > 0; ++i) {
      const short rev = pfds_[i].revents;
      if ((rev & (POLLERR | POLLNVAL)) != 0) {
        return false;
      }
      if ((rev & POLLOUT) != 0 && !flush_one(*conns_[i])) {
        return false;
      }
      if ((rev & (POLLIN | POLLHUP)) != 0 &&
          !read_one(static_cast<int>(i), on_frame)) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

  void close() {
    for (auto& c : conns_) {
      if (c->fd >= 0) {
        ::close(c->fd);
        c->fd = -1;
      }
    }
    conns_.clear();
  }

 private:
  struct Conn {
    int fd = -1;
    pit::net::FrameReader reader;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
  };

  bool flush_one(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        bytes_sent_ += static_cast<std::uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      return false;
    }
    c.out.clear();
    c.out_off = 0;
    return true;
  }

  template <typename OnFrame>
  bool read_one(int idx, OnFrame& on_frame) {
    Conn& c = *conns_[static_cast<std::size_t>(idx)];
    for (int round = 0; round < 16; ++round) {
      const ssize_t n = ::recv(c.fd, buf_, sizeof(buf_), 0);
      if (n == 0) {
        return false;  // the server closed the connection
      }
      if (n < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      }
      bytes_received_ += static_cast<std::uint64_t>(n);
      c.reader.feed(buf_, static_cast<std::size_t>(n));
      pit::net::FrameView frame;
      for (;;) {
        const auto st = c.reader.next(frame);
        if (st == pit::net::FrameReader::Status::kNeedMore) {
          break;
        }
        if (st == pit::net::FrameReader::Status::kError) {
          return false;
        }
        on_frame(idx, frame);
      }
      if (static_cast<std::size_t>(n) < sizeof(buf_)) {
        return true;
      }
    }
    return true;
  }

  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<pollfd> pfds_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint8_t buf_[256 * 1024];
};

/// Result of a rate-ladder search.
struct LadderResult {
  int best = -1;        ///< highest rung that met the SLO (-1: none)
  int first_fail = -1;  ///< the failing rung just above it (-1: none)
  int probes = 0;
};

/// Finds the knee of a fixed ladder of `rungs` rungs with as few probes
/// as possible: from rung `start` it gallops by `stride` rungs towards the
/// boundary, then bisects, so the answer is a passing rung whose upper
/// neighbour was probed and failed. run_rung(k) runs rung k and returns
/// whether it met the SLO; a rung fails only when three runs of it fail,
/// so host stalls do not end the search early.
template <typename RunRung>
LadderResult search_ladder(int rungs, int start, int stride, RunRung&& run_rung) {
  LadderResult out;
  auto probe = [&](int k) { return run_rung(k) || run_rung(k) || run_rung(k); };
  int pass = -1;
  int fail = rungs;
  int k = std::clamp(start, 0, rungs - 1);
  ++out.probes;
  if (probe(k)) {
    pass = k;
    while (pass + stride < rungs) {
      ++out.probes;
      if (probe(pass + stride)) {
        pass += stride;
      } else {
        fail = pass + stride;
        break;
      }
    }
    if (fail == rungs && pass < rungs - 1) {
      ++out.probes;
      if (probe(rungs - 1)) {
        pass = rungs - 1;
      } else {
        fail = rungs - 1;
      }
    }
  } else {
    fail = k;
    while (fail - stride >= 0) {
      ++out.probes;
      if (probe(fail - stride)) {
        pass = fail - stride;
        break;
      }
      fail -= stride;
    }
    if (pass < 0 && fail > 0) {
      ++out.probes;
      if (probe(0)) {
        pass = 0;
      } else {
        fail = 0;
      }
    }
  }
  while (pass >= 0 && fail < rungs && fail - pass > 1) {
    const int mid = pass + (fail - pass) / 2;
    ++out.probes;
    if (probe(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  out.best = pass;
  out.first_fail = fail < rungs ? fail : -1;
  return out;
}

/// Per-op cost of the wire codec for one SUBMIT round trip: encode the
/// request, reassemble and decode it, encode the RESULT, reassemble and
/// decode that — the frame work both ends of a connection do. Median of
/// five timed loops, in nanoseconds per op.
inline double time_submit_codec(const float* window, std::uint32_t c,
                                std::uint32_t t, std::uint32_t out_c,
                                std::uint32_t out_t) {
  using namespace pit::net;
  const int n = 20000;
  std::vector<float> in(static_cast<std::size_t>(c) * t);
  std::vector<float> res(static_cast<std::size_t>(out_c) * out_t, 0.5F);
  std::vector<std::uint8_t> buf;
  std::vector<double> reps;
  float sink = 0.0F;
  for (int r = 0; r < 5; ++r) {
    FrameReader server_reader;
    FrameReader client_reader;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) {
      ErrCode err{};
      FrameView frame;
      buf.clear();
      encode_submit(buf, static_cast<std::uint64_t>(i) + 1, c, t, window);
      server_reader.feed(buf.data(), buf.size());
      SubmitMsg sub;
      if (server_reader.next(frame) != FrameReader::Status::kFrame ||
          !decode_submit(frame.payload, sub, err)) {
        return -1.0;
      }
      copy_floats(sub.data, in.data(), in.size());
      buf.clear();
      encode_result(buf, sub.req_id, out_c, out_t, res.data());
      client_reader.feed(buf.data(), buf.size());
      ResultMsg result;
      if (client_reader.next(frame) != FrameReader::Status::kFrame ||
          !decode_result(frame.payload, result, err)) {
        return -1.0;
      }
      copy_floats(result.data, res.data(), res.size());
      sink += in[static_cast<std::size_t>(i) % in.size()];
    }
    reps.push_back(static_cast<double>(now_ns() - t0) / n);
  }
  if (sink == 12345.0F) {
    std::printf("(codec sink)\n");
  }
  return median(reps);
}

/// Same for one STEP -> STEP_OUT round trip.
inline double time_step_codec(std::uint32_t c_in, std::uint32_t c_out) {
  using namespace pit::net;
  const int n = 20000;
  std::vector<float> in(c_in, 0.25F);
  std::vector<float> out(c_out, 0.5F);
  std::vector<std::uint8_t> buf;
  std::vector<double> reps;
  float sink = 0.0F;
  for (int r = 0; r < 5; ++r) {
    FrameReader server_reader;
    FrameReader client_reader;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) {
      ErrCode err{};
      FrameView frame;
      buf.clear();
      encode_step(buf, static_cast<std::uint64_t>(i) + 1, 7, in.data(), c_in);
      server_reader.feed(buf.data(), buf.size());
      StepMsg step;
      if (server_reader.next(frame) != FrameReader::Status::kFrame ||
          !decode_step(frame.payload, step, err)) {
        return -1.0;
      }
      copy_floats(step.data, in.data(), in.size());
      buf.clear();
      encode_step_out(buf, step.req_id, step.session, out.data(), c_out);
      client_reader.feed(buf.data(), buf.size());
      StepOutMsg so;
      if (client_reader.next(frame) != FrameReader::Status::kFrame ||
          !decode_step_out(frame.payload, so, err)) {
        return -1.0;
      }
      copy_floats(so.data, out.data(), out.size());
      sink += out[static_cast<std::size_t>(i) % out.size()];
    }
    reps.push_back(static_cast<double>(now_ns() - t0) / n);
  }
  if (sink == 12345.0F) {
    std::printf("(codec sink)\n");
  }
  return median(reps);
}

}  // namespace pitbench
