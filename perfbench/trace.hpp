// In-memory span recorder of the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around calls into
// each layer (no instrumentation inside the program). A span is a name, a
// start and end on the steady clock, the index of the span that caused it
// (-1 for a root) and a request id shared by the spans of one request. A
// recorder belongs to one thread; nothing here locks. Spans stay in memory
// until write(), which runs after the measured phases.
//
// Self time: a span's duration minus the part of its interval that its
// child spans cover (the union, so overlapping children are not counted
// twice).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace pitbench {

struct Span {
  const char* name = "";  // a string literal: spans never own their name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_us = 0.0;       // of durations
  double p50_self_us = 0.0;  // of self times
};

class SpanRecorder {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Opens a span now (end filled by close()); returns its index.
  std::int32_t open(const char* name, std::uint64_t request,
                    std::int32_t parent = -1) {
    return add(name, now_ns(), 0, parent, request);
  }
  void close(std::int32_t idx) { spans_[static_cast<std::size_t>(idx)].end_ns = now_ns(); }

  /// Records a span whose bounds the caller measured.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t request) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void set_end(std::int32_t idx, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed like spans().
  std::vector<std::int64_t> self_times() const {
    std::vector<std::vector<std::int32_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int32_t p = spans_[i].parent;
      if (p >= 0) {
        children[static_cast<std::size_t>(p)].push_back(static_cast<std::int32_t>(i));
      }
    }
    std::vector<std::int64_t> self(spans_.size(), 0);
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      iv.clear();
      for (const std::int32_t c : children[i]) {
        const Span& k = spans_[static_cast<std::size_t>(c)];
        const std::int64_t a = std::max(k.start_ns, s.start_ns);
        const std::int64_t b = std::min(k.end_ns, s.end_ns);
        if (b > a) {
          iv.emplace_back(a, b);
        }
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t cur_a = 0;
      std::int64_t cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (cur_b < a) {
          covered += cur_b > cur_a ? cur_b - cur_a : 0;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b > cur_a ? cur_b - cur_a : 0;
      self[i] = std::max<std::int64_t>(0, (s.end_ns - s.start_ns) - covered);
    }
    return self;
  }

  /// Per-name totals and medians, in name order.
  std::vector<SpanSummary> summarize() const {
    const std::vector<std::int64_t> self = self_times();
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [durs, selfs] = by_name[spans_[i].name];
      durs.push_back(ns_to_us(spans_[i].end_ns - spans_[i].start_ns));
      selfs.push_back(ns_to_us(self[i]));
    }
    std::vector<SpanSummary> out;
    for (auto& [name, v] : by_name) {
      SpanSummary s;
      s.name = name;
      s.count = v.first.size();
      for (std::size_t i = 0; i < v.first.size(); ++i) {
        s.total_ms += v.first[i] / 1e3;
        s.self_ms += v.second[i] / 1e3;
      }
      s.p50_us = quantile(v.first, 0.5);
      s.p50_self_us = quantile(v.second, 0.5);
      out.push_back(std::move(s));
    }
    return out;
  }

  /// Writes the summary and the first `max_spans` spans as JSON; the
  /// times are relative to the first span. False when the file cannot be
  /// written.
  bool write(const std::string& path, std::size_t max_spans) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"summary\": [");
    const std::vector<SpanSummary> sums = summarize();
    for (std::size_t i = 0; i < sums.size(); ++i) {
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"count\": %zu, \"total_ms\": "
                   "%.6f, \"self_ms\": %.6f, \"p50_us\": %.4f, "
                   "\"p50_self_us\": %.4f}",
                   i > 0 ? "," : "", sums[i].name.c_str(), sums[i].count,
                   sums[i].total_ms, sums[i].self_ms, sums[i].p50_us,
                   sums[i].p50_self_us);
    }
    std::fprintf(f, "],\n\"spans_total\": %zu,\n\"spans\": [", spans_.size());
    const std::size_t n = std::min(max_spans, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                   "%lld, \"parent\": %d, \"request\": %llu}",
                   i > 0 ? "," : "", s.name,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace pitbench
