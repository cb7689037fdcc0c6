// Metric emitters shared by the workloads and the result-file writer.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common.hpp"

namespace lhws_bench {

namespace {

std::vector<double> values_of(const std::vector<timed_value>& s) {
  std::vector<double> v;
  v.reserve(s.size());
  for (const timed_value& x : s) v.push_back(x.v);
  return v;
}

void put_pct(result& r, const std::string& name, const pct& p,
             const char* unit, bool diagnostic = false) {
  if (diagnostic) {
    r.diag(name, p.value, unit, p.n);
  } else {
    r.set(name, p.value, unit, p.n);
  }
}

// JSON string escaping for the few free-text fields (check details).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_metrics(std::ostream& out, const std::map<std::string, metric>& m) {
  out << "{";
  bool first = true;
  char num[64];
  for (const auto& [name, v] : m) {
    std::snprintf(num, sizeof num, "%.9g", v.value);
    out << (first ? "" : ",") << "\n    " << quoted(name) << ": {\"value\": "
        << num << ", \"unit\": " << quoted(v.unit) << ", \"n\": " << v.n
        << "}";
    first = false;
  }
  out << "\n  }";
}

}  // namespace

void emit_e2e(const e2e_acc& a, result& r) {
  const auto nops = static_cast<std::uint64_t>(a.op_ms.size());
  put_pct(r, "setup_s", percentile(a.setup_s, 0.5), "s");
  r.set("op_ms.p50", a.block_median(&block_stats::p50_ms).value, "ms", nops);
  r.set("op_ms.p90", a.block_median(&block_stats::p90_ms).value, "ms", nops);
  r.set("cpu_per_op_us", a.block_median(&block_stats::cpu_per_op_us).value,
        "us", nops);
  r.set("peak_rss_mb", a.rss_mb, "MB");
  // Tails too wide to gate on a shared 4-core host, even as the median of
  // 1-s windows: printed with their n, never gated.
  const std::vector<double> ms = values_of(a.op_ms);
  put_pct(r, "op_ms.p99w",
          windowed_quantile(a.op_ms, 1'000'000'000, 0.99, kMinWindowSamples),
          "ms", true);
  put_pct(r, "op_ms.p99", percentile(ms, 0.99), "ms", true);
  put_pct(r, "op_ms.p999", percentile(ms, 0.999), "ms", true);
  // Within-run spread: if blocks of one run differ as much as runs do, a
  // longer run would help; if not, the spread is host drift between runs.
  const pct mid = a.block_median(&block_stats::p50_ms);
  const auto [lo, hi] = std::minmax_element(
      a.blocks.begin(), a.blocks.end(),
      [](const block_stats& x, const block_stats& y) {
        return x.p50_ms < y.p50_ms;
      });
  r.diag("op_ms.p50.block_range",
         a.blocks.empty() ? 0.0 : ratio(hi->p50_ms - lo->p50_ms, mid.value),
         "ratio", mid.n);
  r.diag("timed_s", a.timed_s, "s");
  r.diag("ops", static_cast<double>(a.ops), "count");
  r.diag("failed_ratio",
         ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
         "ratio", r.attempted);
}

void emit_trace_overhead(const e2e_acc& a, result& r) {
  auto med = [&](block_mode m) {
    return percentile(a.headline_ms[static_cast<int>(m)], 0.5);
  };
  const pct plain = med(block_mode::plain);
  const pct spanned = med(block_mode::spans);
  const pct metered = med(block_mode::metrics);
  r.set("bench.trace_overhead", ratio(spanned.value, plain.value) - 1.0,
        "ratio", spanned.n);
  r.diag("bench.metrics_overhead", ratio(metered.value, plain.value) - 1.0,
         "ratio", metered.n);
  r.diag("bench.headline_plain_ms", plain.value, "ms", plain.n);
  r.diag("bench.headline_spans_ms", spanned.value, "ms", spanned.n);
  r.diag("bench.headline_metrics_ms", metered.value, "ms", metered.n);
}

void runtime_acc::add(const lhws::scheduler& s, block_mode m) {
  if (m == block_mode::metrics) {
    hist.merge(s.histograms());
    return;
  }
  if (m != block_mode::spans) return;
  const lhws::rt::run_stats& st = s.stats();
  sum.steal_attempts += st.steal_attempts;
  sum.successful_steals += st.successful_steals;
  sum.failed_contended += st.failed_contended;
  sum.parks += st.parks;
  sum.park_timeouts += st.park_timeouts;
  sum.unparks += st.unparks;
  sum.segments_executed += st.segments_executed;
  sum.suspensions += st.suspensions;
  sum.resumes_delivered += st.resumes_delivered;
  sum.resumes_direct += st.resumes_direct;
  sum.registry_republishes += st.registry_republishes;
  sum.alloc.magazine_hits += st.alloc.magazine_hits;
  sum.alloc.magazine_misses += st.alloc.magazine_misses;
  sum.alloc.remote_pushes += st.alloc.remote_pushes;
  sum.alloc.fallback_allocs += st.alloc.fallback_allocs;
  max_deques = std::max(max_deques, st.max_deques_per_worker);
  max_suspended = std::max(max_suspended, st.max_concurrent_suspended);
  slab_bytes = std::max(slab_bytes, st.alloc.slab_bytes);
}

void io_acc::add(const lhws::io::reactor& r) {
  epoll_wakeups += r.epoll_wakeups();
  peak_ready_batch = std::max(peak_ready_batch, r.peak_ready_batch());
  peak_fds = std::max(peak_fds, r.peak_registered_fds());
  timeouts += r.timeouts_fired();
  connect_delta.merge(r.delta_hist(lhws::io::op_kind::connect));
  read_delta.merge(r.delta_hist(lhws::io::op_kind::read));
}

void emit_runtime_mem_core_io(const layer_inputs& in, result& r) {
  const auto ops = static_cast<double>(in.ops);
  static const runtime_acc kNoRuntime{};
  static const io_acc kNoIo{};
  const runtime_acc& rt = in.rt != nullptr ? *in.rt : kNoRuntime;
  const io_acc& io = in.io != nullptr ? *in.io : kNoIo;
  const lhws::rt::run_stats& s = rt.sum;
  auto per_op = [&](std::uint64_t c) {
    return ratio(static_cast<double>(c), ops);
  };
  auto ns = [](const lhws::obs::log_histogram& h, double q) {
    return static_cast<double>(h.quantile(q));
  };

  r.set("runtime.steal_attempts_per_op", per_op(s.steal_attempts), "count/op");
  r.set("runtime.steal_success_ratio",
        ratio(static_cast<double>(s.successful_steals),
              static_cast<double>(s.steal_attempts)),
        "ratio", s.steal_attempts);
  r.set("runtime.failed_contended_per_op", per_op(s.failed_contended),
        "count/op");
  r.set("runtime.steal_ns.p50", ns(rt.hist.steal_latency, 0.50), "ns",
        rt.hist.steal_latency.count());
  r.set("runtime.steal_ns.p99", ns(rt.hist.steal_latency, 0.99), "ns",
        rt.hist.steal_latency.count());
  r.set("runtime.parks_per_op", per_op(s.parks), "count/op");
  r.set("runtime.park_timeout_ratio",
        ratio(static_cast<double>(s.park_timeouts),
              static_cast<double>(s.parks)),
        "ratio", s.parks);
  r.set("runtime.unparks_per_op", per_op(s.unparks), "count/op");
  r.set("runtime.segments_per_op", per_op(s.segments_executed), "count/op");
  r.set("runtime.segment_ns.p50", ns(rt.hist.segment_duration, 0.50), "ns",
        rt.hist.segment_duration.count());
  r.set("runtime.suspensions_per_op", per_op(s.suspensions), "count/op");
  r.set("runtime.resumes_direct_ratio",
        ratio(static_cast<double>(s.resumes_direct),
              static_cast<double>(s.resumes_delivered)),
        "ratio", s.resumes_delivered);
  r.set("runtime.wake_ns.p50", ns(rt.hist.wake_latency, 0.50), "ns",
        rt.hist.wake_latency.count());
  r.set("runtime.wake_ns.p99", ns(rt.hist.wake_latency, 0.99), "ns",
        rt.hist.wake_latency.count());
  r.set("runtime.registry_republishes_per_op", per_op(s.registry_republishes),
        "count/op");
  r.set("runtime.max_deques_per_worker", static_cast<double>(rt.max_deques),
        "count");
  r.set("runtime.max_suspended", static_cast<double>(rt.max_suspended),
        "count");

  const lhws::rt::alloc_run_stats& al = s.alloc;
  const double slab_allocs =
      static_cast<double>(al.magazine_hits + al.magazine_misses);
  r.set("mem.magazine_hit_ratio",
        ratio(static_cast<double>(al.magazine_hits), slab_allocs), "ratio",
        al.magazine_hits + al.magazine_misses);
  r.set("mem.remote_free_ratio",
        ratio(static_cast<double>(al.remote_pushes), slab_allocs), "ratio",
        al.magazine_hits + al.magazine_misses);
  r.set("mem.fallback_per_op", per_op(al.fallback_allocs), "count/op");
  r.set("mem.slab_bytes", static_cast<double>(rt.slab_bytes), "bytes");

  const pct enter = percentile(rt.enter_us, 0.5);
  const pct exit = percentile(rt.exit_us, 0.5);
  r.set("core.run_enter_us", enter.value, "us", enter.n);
  r.set("core.run_exit_us", exit.value, "us", exit.n);
  const auto overshoot = spans::merged(spans::series::latency_overshoot);
  r.set("core.latency_overshoot_us.p50", hist_us(overshoot, 0.50), "us",
        overshoot.count());
  r.set("core.latency_overshoot_us.p99", hist_us(overshoot, 0.99), "us",
        overshoot.count());
  const auto self = spans::merged(spans::series::leaf_self);
  r.set("core.leaf_self_us.p50", hist_us(self, 0.50), "us", self.count());
  const auto compute = spans::merged(spans::series::compute);
  r.set("core.compute_us.p50", hist_us(compute, 0.50), "us", compute.count());

  r.set("io.rtt_us.p50", hist_us(io.rtt, 0.50), "us", io.rtt.count());
  r.set("io.rtt_us.p99", hist_us(io.rtt, 0.99), "us", io.rtt.count());
  r.set("io.epoll_wakeups_per_op", per_op(io.epoll_wakeups), "count/op");
  r.set("io.peak_ready_batch", static_cast<double>(io.peak_ready_batch),
        "count");
  r.set("io.peak_fds", static_cast<double>(io.peak_fds), "count");
  r.set("io.connect_delta_us.p50", hist_us(io.connect_delta, 0.50), "us",
        io.connect_delta.count());
  r.set("io.connect_delta_us.p99", hist_us(io.connect_delta, 0.99), "us",
        io.connect_delta.count());
  r.set("io.read_delta_us.p50", hist_us(io.read_delta, 0.50), "us",
        io.read_delta.count());
  r.set("io.timeouts_fired", static_cast<double>(io.timeouts), "count");
  r.diag("traced_ops", ops, "count");
}

void emit_idle_load_dist(result& r) {
  for (const char* n : {"load.queue_us.p50", "load.queue_us.p99",
                        "load.gen_lag_us.p99", "dist.call_local_us.p50",
                        "dist.call_local_us.p99", "dist.call_remote_us.p50",
                        "dist.call_remote_us.p99"}) {
    r.set(n, 0.0, "us");
  }
  r.set("dist.bytes_per_call", 0.0, "bytes");
  r.set("dist.probes_per_round", 0.0, "count/op");
  r.set("dist.grant_ratio", 0.0, "ratio");
  r.set("dist.empty_grant_ratio", 0.0, "ratio");
  r.set("dist.stolen_share", 0.0, "ratio");
  r.set("dist.wire_errors", 0.0, "count");
  r.set("dist.dropped_results", 0.0, "count");
  r.set("dist.mesh_setup_ms", 0.0, "ms");
}

bool write_result(const options& o, const result& r, const provenance& p) {
  std::ofstream out(o.out, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\n  \"schema\": 1,\n  \"workload\": " << quoted(o.workload)
      << ",\n  \"seed\": " << o.seed << ",\n  \"traced\": "
      << (o.traced ? "true" : "false")
      << ",\n  \"smoke\": " << (o.smoke ? "true" : "false")
      << ",\n  \"correct\": " << (r.all_checks_pass() ? "true" : "false")
      << ",\n  \"attempted\": " << r.attempted
      << ",\n  \"failed\": " << r.failed << ",\n  \"provenance\": {"
      << "\"nproc\": " << p.nproc
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << quoted(LHWS_BENCH_BUILD_TYPE)
      << ", \"compiler\": " << quoted(__VERSION__)
      << ", \"git_commit\": " << quoted(LHWS_BENCH_GIT)
      << ", \"loadavg_start\": " << p.loadavg_start
      << ", \"loadavg_end\": " << p.loadavg_end
      << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
      << ", \"phases_s\": {";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(r.phases[i].first) << ": "
        << r.phases[i].second;
  }
  out << "}},\n  \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const check& c = r.checks[i];
    out << (i == 0 ? "" : ",") << "\n    {\"name\": " << quoted(c.name)
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"detail\": " << quoted(c.detail) << "}";
  }
  out << "\n  ],\n  \"metrics\": ";
  write_metrics(out, r.metrics);
  out << ",\n  \"diagnostics\": ";
  write_metrics(out, r.diagnostics);
  out << "\n}\n";
  out.flush();
  return static_cast<bool>(out);
}

double loadavg_1m() {
  double v = -1.0;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &v) != 1) v = -1.0;
    std::fclose(f);
  }
  return v;
}

long affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace lhws_bench
