// Shared plumbing of lhws_bench: run options, the result record every
// workload fills, and the accumulators that turn the layers' public
// counters into per-layer metrics.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "io/reactor.hpp"
#include "obs/histogram.hpp"
#include "spans.hpp"
#include "support/timing.hpp"
#include "stats.hpp"

namespace lhws_bench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of one run, set-up excluded
  bool traced = false;
  bool smoke = false;
  std::string out;
};

struct metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;  // samples behind the value (0 for counts)
};

struct check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, metric> metrics;
  // Printed but never gated: tails too wide to gate, ladders, counts.
  std::map<std::string, metric> diagnostics;
  std::vector<check> checks;
  // Phase name -> seconds, in the provenance stamp.
  std::vector<std::pair<std::string, double>> phases;

  void set(const std::string& name, double v, const char* unit,
           std::uint64_t n = 0) {
    metrics[name] = {v, unit, n};
  }
  void diag(const std::string& name, double v, const char* unit,
            std::uint64_t n = 0) {
    diagnostics[name] = {v, unit, n};
  }
  void require(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  [[nodiscard]] bool all_checks_pass() const {
    for (const check& c : checks) {
      if (!c.ok) return false;
    }
    return failed == 0;
  }
};

// Process CPU time (user + sys, every thread) in seconds.
[[nodiscard]] inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// Peak resident set of this process image in MB: VmHWM, not ru_maxrss,
// which keeps the peak of the process before execve (a Python launcher's
// forked copy of itself, about 10 MB) and would add it to every workload.
[[nodiscard]] inline double peak_rss_mb() {
  double kb = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

// Number of set-up/timed blocks in one run. Each block sets the system up
// afresh and is measured on its own; the end-to-end metrics are medians
// over blocks, so one block that met a noisy moment of the host does not
// move the run's figure.
[[nodiscard]] inline int blocks_for(const options& o) {
  if (o.traced) return o.smoke ? 3 : 6;
  return o.smoke ? 2 : 10;
}

// What a block records. An untraced run has only plain blocks. A traced
// run cycles plain, spans, metrics on the same host state: spans blocks
// give the benchmark's spans and the layers' counters, and their headline
// against the plain blocks' is the tracing overhead. Metrics blocks turn on
// the scheduler's own latency histograms (scheduler_options::metrics),
// which cost 30-90% of a run on a shared 4-core host, so only those
// histograms are taken from them and their cost is reported on its own.
enum class block_mode : std::uint8_t { plain, spans, metrics };

[[nodiscard]] inline block_mode mode_of(const options& o, int b) {
  if (!o.traced) return block_mode::plain;
  return static_cast<block_mode>(b % 3);
}

// What one block's timed phase measured.
struct block_stats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double cpu_per_op_us = 0.0;
  double ops_per_s = 0.0;
};

// The end-to-end numbers shared by every workload. An operation is a run
// (fj_*), a request at the fixed rate (rpc_open) or a round (cluster_mr).
struct e2e_acc {
  std::vector<timed_value> op_ms;  // (timed clock at start, duration in ms)
  std::vector<double> setup_s;     // one per block
  std::vector<block_stats> blocks;
  double timed_s = 0.0;            // wall seconds of the timed phases
  std::uint64_t ops = 0;           // operations completed while timed
  // Block p50s (ms) of a traced run, by block_mode.
  std::vector<double> headline_ms[3];
  // Peak RSS when the last timed phase ended. Set rss_frozen before work
  // that must not count (the capacity ladder, whose reach varies), or after
  // reading rss_mb at a fixed amount of work.
  double rss_mb = 0.0;
  bool rss_frozen = false;

  std::int64_t phase_t0 = 0;
  double phase_base_s = 0.0;
  double phase_cpu0 = 0.0;
  std::size_t phase_first_op = 0;

  // Starts a block's timed phase; returns its start time (now_ns clock).
  std::int64_t begin_timed() {
    phase_base_s = timed_s;
    phase_first_op = op_ms.size();
    phase_cpu0 = process_cpu_s();
    return phase_t0 = lhws::now_ns();
  }
  // Ends the timed phase once its operations are all in op_ms.
  void end_timed(block_mode mode) {
    const double wall = static_cast<double>(lhws::now_ns() - phase_t0) / 1e9;
    const double cpu = process_cpu_s() - phase_cpu0;
    std::vector<double> v;
    for (std::size_t i = phase_first_op; i < op_ms.size(); ++i) {
      v.push_back(op_ms[i].v);
    }
    const auto n = static_cast<double>(v.size());
    blocks.push_back({percentile(v, 0.5).value, percentile(v, 0.9).value,
                      n > 0 ? cpu * 1e6 / n : 0.0, n / wall});
    headline_ms[static_cast<int>(mode)].push_back(blocks.back().p50_ms);
    timed_s += wall;
    ops += v.size();
    if (!rss_frozen) rss_mb = peak_rss_mb();
  }
  // A now_ns time inside the latest timed phase on a clock that runs only
  // while timed, so 1-s windows never straddle the set-up between blocks.
  [[nodiscard]] std::int64_t timed_clock(std::int64_t t) const {
    return static_cast<std::int64_t>(phase_base_s * 1e9) + (t - phase_t0);
  }
  [[nodiscard]] double setup_total() const {
    double s = 0.0;
    for (const double x : setup_s) s += x;
    return s;
  }
  // Median over blocks of one block_stats field.
  [[nodiscard]] pct block_median(double block_stats::*field) const {
    std::vector<double> v;
    for (const block_stats& b : blocks) v.push_back(b.*field);
    return percentile(std::move(v), 0.5);
  }
};

// Lemma 7 of the paper: no worker ever owns more than U + 1 deques, U the
// suspension width. Checked after every scheduler run against the run's
// observed U; a violation fails the run.
struct lemma7_guard {
  std::string violation;

  void observe(const lhws::rt::run_stats& st) {
    if (violation.empty() &&
        st.max_deques_per_worker > st.max_concurrent_suspended + 1) {
      violation = "max deques per worker " +
                  std::to_string(st.max_deques_per_worker) +
                  " > observed U + 1 = " +
                  std::to_string(st.max_concurrent_suspended + 1);
    }
  }
  void report(result& r) const {
    r.require("lemma7", violation.empty(),
              violation.empty() ? "max deques <= observed U + 1 on every run"
                                : violation);
  }
};

// A window's tail quantile needs this many samples to count.
inline constexpr std::size_t kMinWindowSamples = 20;

// Fills setup_s, op_ms.*, cpu_per_op_us and peak_rss_mb, each the median
// over blocks of the block's own figure, plus the diagnostics. The caller
// adds the capacity_per_s diagnostic, whose definition differs between
// closed and open loops.
void emit_e2e(const e2e_acc& a, result& r);

// Fills bench.trace_overhead from the headline samples of a traced run.
void emit_trace_overhead(const e2e_acc& a, result& r);

// Scheduler counters summed over the spans blocks' runs, and latency
// histograms merged over the metrics blocks' runs.
struct runtime_acc {
  lhws::rt::run_stats sum{};
  lhws::obs::latency_histograms hist{};
  std::uint64_t max_deques = 0;
  std::uint64_t max_suspended = 0;
  std::uint64_t slab_bytes = 0;
  std::vector<double> enter_us, exit_us;

  // Takes what block mode m measures from the scheduler's last run.
  void add(const lhws::scheduler& s, block_mode m);
};

// Reactor getters of the spans blocks, summed (peaks are maxima).
struct io_acc {
  std::uint64_t epoll_wakeups = 0;
  std::uint64_t peak_ready_batch = 0;
  std::uint64_t peak_fds = 0;
  std::uint64_t timeouts = 0;
  lhws::obs::log_histogram connect_delta, read_delta, rtt;

  void add(const lhws::io::reactor& r);
};

// Every per-layer metric, each present on every workload: a layer the
// workload does not use reads 0 (the predicted-idle control). `ops` is the
// traced-run operation count the *_per_op metrics divide by.
struct layer_inputs {
  std::uint64_t ops = 0;
  const runtime_acc* rt = nullptr;
  const io_acc* io = nullptr;
};
void emit_runtime_mem_core_io(const layer_inputs& in, result& r);

// Zero-filled defaults for the load.* and dist.* layers; the workloads that
// use those layers overwrite them.
void emit_idle_load_dist(result& r);

// Microseconds at quantile q of a histogram recorded in ns.
[[nodiscard]] inline double hist_us(const lhws::obs::log_histogram& h,
                                    double q) {
  return static_cast<double>(h.quantile(q)) / 1000.0;
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// Seeded 64-bit mixer (splitmix64 finalizer): every generated input is a
// pure function of the workload seed and an index.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] inline std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                                       std::uint64_t b = 0) {
  return mix(mix(mix(seed) ^ a) ^ b);
}

// fib(n) by iteration: the reference the RPC and cluster checks compare to.
[[nodiscard]] inline std::uint64_t fib_ref(unsigned n) {
  std::uint64_t a = 0, b = 1;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

// Wraps a root task to time scheduler::run's entry and exit: `enter` is
// stamped when the root starts, `exit` when it returns.
template <typename T>
lhws::task<T> stamped_root(lhws::task<T> inner, std::int64_t& enter,
                           std::int64_t& exit) {
  enter = lhws::now_ns();
  T v = co_await std::move(inner);
  exit = lhws::now_ns();
  co_return v;
}

// Host and build stamp of a result file.
struct provenance {
  long nproc = 0;  // CPUs this process may run on (what `nproc` prints)
  double loadavg_start = 0.0;
  double loadavg_end = 0.0;
};

[[nodiscard]] long affinity_cpus();
[[nodiscard]] double loadavg_1m();

// Writes the result file named by o.out; false on an I/O error.
[[nodiscard]] bool write_result(const options& o, const result& r,
                                const provenance& p);

// Workload entry points; each fills `r` and returns normally (failed
// checks are recorded in `r`, not thrown).
void run_fj_compute(const options& o, result& r);
void run_fj_latency(const options& o, result& r);
void run_rpc_open(const options& o, result& r);
void run_cluster_mr(const options& o, result& r);

}  // namespace lhws_bench
