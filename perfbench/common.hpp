// Shared helpers of the repository benchmark: clocks, percentiles, the
// seeded input generators, host/process probes, and the result report
// whose last stdout line is the JSON result.
#pragma once

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pitbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Nearest-rank quantile (q in [0, 1]); sorts `v` in place. 0 when empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// One line of pooled percentiles, for the human-readable output.
inline void print_distribution(const char* label, std::vector<double> v) {
  const double p50 = quantile(v, 0.50);
  const double p90 = quantile(v, 0.90);
  const double p99 = quantile(v, 0.99);
  const double p999 = quantile(v, 0.999);
  std::printf("%-12s n=%zu p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f ms\n",
              label, v.size(), p50, p90, p99, p999, v.empty() ? 0.0 : v.back());
}

/// Latency summary of one fixed-rate phase. The phase is cut into
/// consecutive chunks of `chunk` samples (each with >= 10 samples beyond
/// its p99); p50 and p99 are the medians of the per-chunk figures, which
/// keeps one scheduler hiccup from moving the whole run's tail.
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
};

inline LatencySummary chunked_percentiles(const std::vector<double>& lat,
                                          std::size_t chunk) {
  LatencySummary out;
  out.samples = lat.size();
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::size_t at = 0; at + chunk <= lat.size(); at += chunk) {
    std::vector<double> part(lat.begin() + static_cast<std::ptrdiff_t>(at),
                             lat.begin() + static_cast<std::ptrdiff_t>(at + chunk));
    p50s.push_back(quantile(part, 0.50));
    p99s.push_back(quantile(part, 0.99));
  }
  if (p50s.empty()) {  // shorter than one chunk: one pooled figure
    std::vector<double> all = lat;
    p50s.push_back(quantile(all, 0.50));
    p99s.push_back(quantile(all, 0.99));
  }
  out.p50 = median(p50s);
  out.p99 = median(p99s);
  return out;
}

/// "Answers keep pace with offers through the phase's last second": the
/// answers that arrived in [t_end - 1 s, t_end + grace] over the ops
/// scheduled in [t_end - 1 s, t_end). Below 1 when the backlog grows.
template <typename Op>
double last_second_pace(const std::vector<Op>& ops, std::size_t first,
                        std::size_t count, std::int64_t t_end,
                        std::int64_t grace_ns, std::uint8_t ok_status) {
  const std::int64_t from = t_end - 1000000000LL;
  std::size_t offered = 0;
  std::size_t answered = 0;
  for (std::size_t i = first; i < first + count; ++i) {
    offered += ops[i].sched >= from ? 1 : 0;
    answered += ops[i].status == ok_status && ops[i].done >= from &&
                        ops[i].done <= t_end + grace_ns
                    ? 1
                    : 0;
  }
  return offered > 0 ? static_cast<double>(answered) / static_cast<double>(offered)
                     : 0.0;
}

// ------------------------------------------------------------ seeded inputs

/// splitmix64: the benchmark's only random source, so one seed gives the
/// same inputs on every platform and standard library.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL));
  return r.next();
}

/// One sensor stream of the multi-task TCN mix (arXiv 2301.10281): the
/// family picks the waveform shape (0 PPG, 1 ECG, 2 sEMG, 3 KWS), the
/// seeded parameters make every stream distinct.
struct Waveform {
  int family = 0;
  double freq = 1.0;
  double phase = 0.0;
  double amp = 1.0;
  double offset = 0.0;

  static Waveform make(int family, std::uint64_t seed) {
    Rng r(seed);
    Waveform w;
    w.family = family & 3;
    w.freq = 0.05 + 0.2 * r.uniform();
    w.phase = 6.283185307179586 * r.uniform();
    w.amp = 0.5 + r.uniform();
    w.offset = 0.2 * (r.uniform() - 0.5);
    return w;
  }

  /// Sample `t` of channel `ch`.
  float value(std::int64_t t, std::int64_t ch) const {
    const double x = freq * static_cast<double>(t) + phase +
                     0.7 * static_cast<double>(ch);
    double v = 0.0;
    switch (family) {
      case 0:  // PPG: slow oscillation plus baseline wander
        v = std::sin(x) + 0.2 * std::sin(x / 7.0);
        break;
      case 1:  // ECG: sharp periodic spikes over a flat baseline
        v = std::fmod(x, 6.283185307179586) < 0.3 ? 2.0 : 0.05 * std::sin(x);
        break;
      case 2:  // sEMG: amplitude-modulated bursts
        v = std::sin(x * 13.7) * (0.5 + 0.5 * std::sin(x / 5.0));
        break;
      default:  // KWS: rising chirp
        v = std::sin(x * (1.0 + std::fmod(x, 10.0) / 10.0));
        break;
    }
    return static_cast<float>(offset + amp * v);
  }

  /// A channel-major (c, t) window starting at sample `t0`.
  void fill(float* dst, std::int64_t c, std::int64_t t,
            std::int64_t t0 = 0) const {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t i = 0; i < t; ++i) {
        dst[ch * t + i] = value(t0 + i, ch);
      }
    }
  }
};

/// Order-sensitive 64-bit digest of raw bytes (bit patterns, so a single
/// flipped float bit changes it).
inline std::uint64_t digest(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  for (; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kDigestSeed = 0xCBF29CE484222325ULL;

// ------------------------------------------------------- host and process

inline unsigned host_cpus() {
  return std::max(1U, std::thread::hardware_concurrency());
}

/// CPU brand string from cpuid (no file outside the checkout is read).
inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string m(brand);
  m.erase(0, m.find_first_not_of(' '));
  return m;
#else
  return "unknown";
#endif
}

/// Pins the calling thread to CPUs [first, last]. False (and unpinned)
/// when the range does not exist on this host.
inline bool pin_self(unsigned first, unsigned last) {
  if (last >= host_cpus() || first > last) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = first; c <= last; ++c) {
    CPU_SET(c, &set);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// Microsecond-precise timed waits: the default 50 us timer slack would
/// make every scheduled send late by up to that much.
inline void tighten_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1UL); }

/// User + system CPU time of the whole process so far.
inline double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Sleeps until the steady-clock instant `t_ns` (returns at once if past).
inline void sleep_until_ns(std::int64_t t_ns) {
  const std::int64_t d = t_ns - now_ns();
  if (d > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  }
}

// ------------------------------------------------------------------ report

/// Everything one run prints: configuration lines, metrics (name, value,
/// unit), the check tallies, and the final one-line JSON object.
class Report {
 public:
  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }
  void config(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    config_.emplace_back(key, buf);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A failed output check: counted, and printed with its reason.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::vector<std::string> metric_names() const {
    std::vector<std::string> out;
    for (const Metric& m : metrics_) {
      out.push_back(m.name);
    }
    return out;
  }

  /// Prints the human-readable block, then the JSON line (stdout's last).
  void print() const {
    for (const auto& [k, v] : config_) {
      std::printf("config %-28s %s\n", k.c_str(), v.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const double frac = attempted_ > 0 ? static_cast<double>(failed_) /
                                             static_cast<double>(attempted_)
                                       : 1.0;
    std::printf("ops attempted %llu, failed %llu (failed_frac %.6g)\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), frac);
    const bool ok = correct_ && failed_ == 0 && attempted_ > 0;
    std::string json = "{\"correct\": ";
    json += ok ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      json += (i > 0 ? ", \"" : "\"") + metrics_[i].name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + metrics_[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Command-line options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

Report run_window_submit(const RunOptions& opts);
Report run_stream_fleet(const RunOptions& opts);
Report run_pit_search(const RunOptions& opts);

}  // namespace pitbench
