// pitbench: the repository benchmark binary.
//
//   pitbench --workload window_submit|stream_fleet|pit_search
//            --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Untraced runs (--trace 0) print every end-to-end metric; traced runs
// (--trace 1) print every per-layer metric, zero for a layer the workload
// does not run. The last line of stdout is the one-line JSON result.
// perfbench/run.py builds this binary and is the command to run.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common.hpp"
#include "nn/kernels/kernels.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace {

using namespace pitbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks every result against it).
// The fixed-rate latencies (p50_ms.* and p99_ms.*) are printed as config
// lines, not bounded metrics: on a shared VM, episodes of host steal
// multiply them up to fivefold for whole runs (see README.md).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"cpu_ms_per_kop", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.overhead_p50_us", "us"},     {"net.overhead_p99_us", "us"},
    {"net.codec_submit_ns", "ns"},     {"net.codec_step_ns", "ns"},
    {"net.wire_bytes_per_op", "bytes"}, {"net.sheds", "count"},
    {"net.inflight_peak", "count"},    {"net.protocol_errors", "count"},
    {"net.exec_errors", "count"},      {"serve.done_p50_us", "us"},
    {"serve.done_p99_us", "us"},       {"serve.queue_wait_p50_us", "us"},
    {"serve.mean_batch", "count"},     {"serve.batches_per_s", "1/s"},
    {"serve.rejects", "count"},        {"serve.step_p50_us", "us"},
    {"serve.step_p99_us", "us"},       {"serve.open_p50_us", "us"},
    {"serve.close_p50_us", "us"},      {"serve.recycled_frac", "ratio"},
    {"serve.alloc_hit_frac", "ratio"}, {"serve.evicted", "count"},
    {"serve.session_live_mb", "MB"},   {"serve.session_cached_mb", "MB"},
    {"runtime.fwd_us.b1", "us"},       {"runtime.fwd_us.bmean", "us"},
    {"runtime.gmacs.bmean", "GMAC/s"}, {"runtime.step_us.i8", "us"},
    {"runtime.step_gmacs.i8", "GMAC/s"}, {"runtime.macs_per_window", "count"},
    {"runtime.macs_per_step", "count"}, {"runtime.arena_kb_per_sample", "KiB"},
    {"runtime.compile_ms", "ms"},      {"runtime.quantize_ms", "ms"},
    {"data.batch_ms", "ms"},           {"core.fwd_ms", "ms"},
    {"nn.loss_ms", "ms"},              {"tensor.backward_ms", "ms"},
    {"nn.optim_ms", "ms"},             {"core.eval_ms", "ms"},
    {"core.warmup_s", "s"},            {"core.prune_s", "s"},
    {"core.finetune_s", "s"},          {"core.grid_parallel_eff", "ratio"},
    {"loadgen.lag_p99_ms", "ms"},      {"trace.overhead_frac", "ratio"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload window_submit|stream_fleet|pit_search "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(val);
    } else if (key == "--trace") {
      opts.trace = std::atoi(val) != 0;
    } else if (key == "--out-dir") {
      opts.out_dir = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || !(opts.seconds > 0.0)) {
    return usage(argv[0]);
  }
  (void)::mkdir(opts.out_dir.c_str(), 0755);

  Report rep;
  if (opts.workload == "window_submit") {
    rep = run_window_submit(opts);
  } else if (opts.workload == "stream_fleet") {
    rep = run_stream_fleet(opts);
  } else if (opts.workload == "pit_search") {
    rep = run_pit_search(opts);
  } else {
    return usage(argv[0]);
  }

  int omp_threads = 1;
#if defined(_OPENMP)
  omp_threads = omp_get_max_threads();
#endif
  rep.config("workload", opts.workload);
  rep.config("seed", static_cast<double>(opts.seed));
  rep.config("seconds", opts.seconds);
  rep.config("trace", opts.trace ? 1 : 0);
  rep.config("host.nproc", static_cast<double>(host_cpus()));
  rep.config("host.cpu", cpu_model());
  rep.config("host.i8_kernel_variant", pit::nn::kernels::quant_kernel_variant());
  rep.config("host.omp_max_threads", omp_threads);

  // Every run reports the full metric set of its mode: a layer the
  // workload never enters reports zero.
  std::set<std::string> have;
  for (const std::string& n : rep.metric_names()) {
    have.insert(n);
  }
  if (opts.trace) {
    for (const MetricSpec& m : kPerLayer) {
      if (have.count(m.name) == 0) {
        rep.metric(m.name, 0.0, m.unit);
      }
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      rep.check(have.count(m.name) == 1, std::string("missing metric ") + m.name);
    }
  }
  rep.print();
  return 0;
}
