// cluster_mr: a two-process mesh. Node 0 is this process; each block's
// node 1 is forked from it before any thread starts and runs
// dist::run_node.
// Each round makes kCallsPerRound cluster::call(target_i, kWorkFib, n_i)
// with the target seeded 50/50 between the nodes. Unlike rpc_open, io here
// is two long-lived links carrying batched wire frames, and the remote
// join (a heavy delta edge) and cross-node stealing carry the round.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <string>

#include "common.hpp"
#include "dist/cluster.hpp"
#include "dist/node_runner.hpp"

namespace lhws_bench {

namespace {

constexpr unsigned kNodeWorkers = 2;
constexpr std::uint32_t kCallsPerRound = 256;
// peak_rss_mb is read once, after this many timed rounds of the first block.
// Node 0's resident set grows with the calls the mesh has served, so a read
// at the end of a fixed-length phase would move with throughput.
constexpr std::uint64_t kRssRounds = 100;

// What node 1 sends back through a pipe before it exits.
struct node1_report {
  lhws::dist::cluster_stats stats{};
  double cpu_s = 0.0;
  int rc = -1;
};

bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

// Node 1: wait for node 0's port, serve until node 0 shuts the mesh down,
// report, exit. Never returns.
[[noreturn]] void node1_main(int port_fd, int report_fd) {
  std::uint16_t port = 0;
  if (!read_all(port_fd, &port, sizeof port)) ::_exit(3);
  lhws::dist::node_options no;
  no.cfg.node_id = 1;
  no.cfg.peers.push_back({0, port});
  no.cfg.policy = lhws::dist::remote_steal_policy::threshold;
  no.workers = kNodeWorkers;
  no.spans = false;
  lhws::dist::node_report rep;
  node1_report out;
  out.rc = lhws::dist::run_node(no, {}, &rep);
  out.stats = rep.stats;
  out.cpu_s = process_cpu_s();
  (void)write_all(report_fd, &out, sizeof out);
  ::_exit(out.rc);
}

// A forked node 1 waiting for its block: the port goes down port_w, the
// report comes back up report_r.
struct node1_proc {
  pid_t pid = -1;
  int port_w = -1;
  int report_r = -1;
};

node1_proc spawn_node1(const std::vector<node1_proc>& earlier) {
  node1_proc p;
  int port_pipe[2];
  int report_pipe[2];
  if (::pipe(port_pipe) != 0) return p;
  if (::pipe(report_pipe) != 0) {
    ::close(port_pipe[0]);
    ::close(port_pipe[1]);
    return p;
  }
  p.pid = ::fork();
  if (p.pid == 0) {
    // An inherited write end of an earlier node's port pipe would keep
    // that node from ever seeing EOF.
    for (const node1_proc& e : earlier) {
      ::close(e.port_w);
      ::close(e.report_r);
    }
    ::close(port_pipe[1]);
    ::close(report_pipe[0]);
    node1_main(port_pipe[0], report_pipe[1]);
  }
  ::close(port_pipe[0]);
  ::close(report_pipe[1]);
  if (p.pid < 0) {
    ::close(port_pipe[1]);
    ::close(report_pipe[0]);
    return p;
  }
  p.port_w = port_pipe[1];
  p.report_r = report_pipe[0];
  return p;
}

// Collects node 1's report and exit status; idempotent. True when it ran
// and exited 0.
bool finish_node1(node1_proc& p, node1_report& rep) {
  if (p.pid < 0) return false;
  if (p.port_w >= 0) ::close(p.port_w);
  const bool got = read_all(p.report_r, &rep, sizeof rep);
  ::close(p.report_r);
  int status = 0;
  while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
  }
  p = node1_proc{};
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void add_stats(lhws::dist::cluster_stats& into,
               const lhws::dist::cluster_stats& s) {
  into.calls += s.calls;
  into.executed += s.executed;
  into.stolen_executed += s.stolen_executed;
  into.probes += s.probes;
  into.empty_grants += s.empty_grants;
  into.granted_items += s.granted_items;
  into.results_routed += s.results_routed;
  into.dropped_results += s.dropped_results;
  into.wire_errors += s.wire_errors;
  into.bytes_tx += s.bytes_tx;
  into.bytes_rx += s.bytes_rx;
}

struct drive_state {
  std::uint64_t seed = 0;
  double seconds = 0.0;  // timed phase of this block
  block_mode mode = block_mode::plain;
  e2e_acc* acc = nullptr;
  std::int64_t setup0 = 0;
  std::int64_t mesh_up = 0;
  std::uint64_t rounds = 0;  // including the warm-up round
  std::uint64_t calls = 0;
  std::uint64_t wrong = 0;
};

lhws::task<long> call_tree(lhws::dist::cluster& c, const drive_state& d,
                           std::uint64_t round, std::uint32_t lo,
                           std::uint32_t hi) {
  if (hi - lo == 1) {
    const std::uint64_t h = mix(d.seed, round, lo);
    const auto target = static_cast<std::uint32_t>(h & 1);
    const auto n = static_cast<unsigned>(12 + (h >> 1) % 4);
    const std::int64_t t0 = lhws::now_ns();
    const std::uint64_t v = co_await c.call(target, lhws::dist::kWorkFib, n);
    spans::span(target == 0 ? spans::series::call_local
                            : spans::series::call_remote,
                t0, lhws::now_ns(), round * kCallsPerRound + lo);
    co_return v == fib_ref(n) ? 0 : 1;
  }
  const std::uint32_t mid = lo + (hi - lo) / 2;
  auto [a, b] = co_await lhws::fork2(call_tree(c, d, round, lo, mid),
                                     call_tree(c, d, round, mid, hi));
  co_return a + b;
}

lhws::task<void> one_round(lhws::dist::cluster& c, drive_state& d) {
  const long bad = co_await call_tree(c, d, d.rounds, 0, kCallsPerRound);
  d.wrong += static_cast<std::uint64_t>(bad);
  d.calls += kCallsPerRound;
  ++d.rounds;
}

lhws::task<long> drive_then_stop(lhws::dist::cluster& c, drive_state& d) {
  co_await one_round(c, d);  // warm-up
  e2e_acc& acc = *d.acc;
  acc.setup_s.push_back(static_cast<double>(lhws::now_ns() - d.setup0) / 1e9);

  spans::set_enabled(d.mode == block_mode::spans);
  const std::int64_t until =
      acc.begin_timed() + static_cast<std::int64_t>(d.seconds * 1e9);
  std::uint64_t timed_rounds = 0;
  do {
    const std::int64_t t0 = lhws::now_ns();
    co_await one_round(c, d);
    const std::int64_t t1 = lhws::now_ns();
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    acc.op_ms.push_back({acc.timed_clock(t0), ms});
    spans::span(spans::series::run, t0, t1, d.rounds);
    if (++timed_rounds == kRssRounds && !acc.rss_frozen) {
      acc.rss_mb = peak_rss_mb();
      acc.rss_frozen = true;
    }
  } while (lhws::now_ns() < until);
  acc.end_timed(d.mode);
  spans::set_enabled(false);
  co_await c.stop();
  co_return 0;
}

lhws::task<long> node0_root(lhws::dist::cluster& c, drive_state& d) {
  const bool up = co_await c.start();
  d.mesh_up = lhws::now_ns();
  if (!up) co_return -1;
  auto [served, drove] = co_await lhws::fork2(c.serve(), drive_then_stop(c, d));
  co_return drove != 0 ? drove : served;
}

}  // namespace

void run_cluster_mr(const options& o, result& r) {
  e2e_acc acc;
  runtime_acc rt;
  io_acc io;
  lhws::dist::cluster_stats n0{}, n1{};
  lemma7_guard lemma7;
  std::uint64_t spans_rounds = 0;
  std::vector<double> mesh_ms;
  double node1_cpu_s = 0.0;
  std::string failure;

  // Fork every block's node 1 up front, while this process is single
  // threaded and small: a fork's cost grows with the parent's resident set,
  // which the rounds grow, so forking per block would leak the previous
  // blocks' work into setup_s.
  std::vector<node1_proc> procs;
  for (int b = 0; b < blocks_for(o); ++b) {
    procs.push_back(spawn_node1(procs));
    if (procs.back().pid < 0) {
      failure = "cannot fork node 1";
      break;
    }
  }

  for (int b = 0; b < blocks_for(o) && failure.empty(); ++b) {
    const block_mode mode = mode_of(o, b);
    node1_proc& proc = procs[static_cast<std::size_t>(b)];
    drive_state d;
    d.seed = mix(o.seed, static_cast<std::uint64_t>(b));
    d.seconds = o.seconds / blocks_for(o);
    d.mode = mode;
    d.acc = &acc;
    d.setup0 = lhws::now_ns();
    long rc = -1;
    {
      lhws::io::reactor reactor(1);
      lhws::dist::cluster_config cfg;
      cfg.node_id = 0;
      cfg.peers.push_back({1, 0});  // node 1 dials in
      cfg.policy = lhws::dist::remote_steal_policy::threshold;
      lhws::dist::cluster c(reactor, cfg);
      const std::uint16_t port = c.valid() ? c.port() : 0;
      const bool sent =
          port != 0 && write_all(proc.port_w, &port, sizeof port);
      ::close(proc.port_w);  // on failure node 1 sees EOF and exits
      proc.port_w = -1;
      if (sent) {
        lhws::dist::install_default_handlers(c);
        lhws::scheduler_options so;
        so.workers = kNodeWorkers;
        so.metrics = mode == block_mode::metrics;
        lhws::scheduler sched(so);
        std::int64_t enter = 0, exit = 0;
        const std::int64_t call = lhws::now_ns();
        rc = sched.run(stamped_root(node0_root(c, d), enter, exit));
        const std::int64_t ret = lhws::now_ns();
        lemma7.observe(sched.stats());
        rt.add(sched, mode);
        if (mode == block_mode::spans) {
          rt.enter_us.push_back(static_cast<double>(enter - call) / 1e3);
          rt.exit_us.push_back(static_cast<double>(ret - exit) / 1e3);
          io.add(reactor);
          io.rtt.merge(c.peer_rtt_hist(0));
          add_stats(n0, c.stats());
          spans_rounds += d.rounds;
          mesh_ms.push_back(static_cast<double>(d.mesh_up - d.setup0) / 1e6);
          spans::set_enabled(true);
          spans::span(spans::series::mesh_setup, d.setup0, d.mesh_up, d.seed);
          spans::set_enabled(false);
        }
      }
    }

    node1_report rep;
    const bool ok1 = finish_node1(proc, rep);
    node1_cpu_s += rep.cpu_s;
    // Both nodes burn CPU for the rounds. Node 1's share is its whole
    // lifetime, of which the timed rounds are nearly all.
    if (acc.blocks.size() == static_cast<std::size_t>(b) + 1 && d.rounds > 1) {
      acc.blocks.back().cpu_per_op_us +=
          rep.cpu_s * 1e6 / static_cast<double>(d.rounds - 1);
    }
    if (mode == block_mode::spans) add_stats(n1, rep.stats);
    r.attempted += d.calls;
    r.failed += d.wrong;
    if (rc != 0) {
      failure = "node 0 returned " + std::to_string(rc);
    } else if (!ok1) {
      failure = "node 1 failed";
    }
  }
  for (node1_proc& proc : procs) {
    node1_report unused;
    (void)finish_node1(proc, unused);  // blocks left unrun after a failure
  }

  r.require("nodes", failure.empty(), failure.empty() ? "both nodes exited 0"
                                                      : failure);
  r.require("result", r.failed == 0,
            std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
                " calls returned a wrong value");
  lemma7.report(r);
  r.phases.push_back({"setup_total", acc.setup_total()});
  r.phases.push_back({"timed", acc.timed_s});
  r.diag("node1_cpu_s", node1_cpu_s, "s");

  if (!o.traced) {
    emit_e2e(acc, r);
    r.diag("capacity_per_s", acc.block_median(&block_stats::ops_per_s).value,
           "1/s", acc.ops);
    return;
  }
  emit_trace_overhead(acc, r);
  emit_runtime_mem_core_io({spans_rounds, &rt, &io}, r);
  emit_idle_load_dist(r);
  const auto local = spans::merged(spans::series::call_local);
  const auto remote = spans::merged(spans::series::call_remote);
  r.set("dist.call_local_us.p50", hist_us(local, 0.50), "us", local.count());
  r.set("dist.call_local_us.p99", hist_us(local, 0.99), "us", local.count());
  r.set("dist.call_remote_us.p50", hist_us(remote, 0.50), "us", remote.count());
  r.set("dist.call_remote_us.p99", hist_us(remote, 0.99), "us",
        remote.count());
  r.set("dist.bytes_per_call",
        ratio(static_cast<double>(n0.bytes_tx + n0.bytes_rx),
              static_cast<double>(n0.calls)),
        "bytes", n0.calls);
  const double probes = static_cast<double>(n0.probes + n1.probes);
  r.set("dist.probes_per_round",
        ratio(probes, static_cast<double>(spans_rounds)), "count/op",
        spans_rounds);
  r.set("dist.grant_ratio",
        ratio(static_cast<double>(n0.granted_items + n1.granted_items), probes),
        "ratio", n0.probes + n1.probes);
  r.set("dist.empty_grant_ratio",
        ratio(static_cast<double>(n0.empty_grants + n1.empty_grants), probes),
        "ratio", n0.probes + n1.probes);
  r.set("dist.stolen_share",
        ratio(static_cast<double>(n0.stolen_executed + n1.stolen_executed),
              static_cast<double>(n0.executed + n1.executed)),
        "ratio", n0.executed + n1.executed);
  r.set("dist.wire_errors",
        static_cast<double>(n0.wire_errors + n1.wire_errors), "count");
  r.set("dist.dropped_results",
        static_cast<double>(n0.dropped_results + n1.dropped_results), "count");
  const pct mesh = percentile(mesh_ms, 0.5);
  r.set("dist.mesh_setup_ms", mesh.value, "ms", mesh.n);
}

}  // namespace lhws_bench
