// rpc_open: the server operator's view. An in-process load::rpc_server
// (2 workers, 2 reactor shards) serves fib requests at rpc_depth = 1, so
// every request dials a downstream loopback connection: a heavy delta edge
// through io. The client is open loop: 4 persistent connections with
// seeded Poisson arrivals, each request timed from its scheduled send, so
// a stall shows as latency instead of silently lowering the offered load.
//
// Each block: set up (listen, 4 connects, closed-loop warm-up), then the
// fixed rate. In the last blocks of an untraced run a capacity ladder
// follows, raising the rate until a step fails.
#include <cmath>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/algorithms.hpp"
#include "io/async_ops.hpp"
#include "io/socket.hpp"
#include "load/rpc_server.hpp"

namespace lhws_bench {

namespace {

using namespace std::chrono_literals;

constexpr unsigned kServerWorkers = 2;
constexpr unsigned kServerShards = 2;
constexpr unsigned kClientWorkers = 1;
constexpr std::size_t kConns = 4;
constexpr unsigned kWarmupPerConn = 50;
constexpr double kFixedRate = 2000.0;  // requests/s over all connections
// Capacity ladder: x1.25 per step from the fixed rate, at most 8 steps,
// then 3 bisection steps inside the bracket the climb found, so the
// estimate resolves to about 3% instead of one 25% step.
constexpr double kLadderFactor = 1.25;
constexpr int kLadderSteps = 8;
constexpr int kBisectSteps = 3;
// An untraced run spends half its seconds at the fixed rate and half on
// kLadders ladders, one in each of its last kLadders blocks; capacity is
// their median, since one ladder sees only one block's host conditions.
constexpr int kLadders = 3;
// A step's p99 is the median of the p99s of its kStepWindows windows, so
// one host stall does not fail a step.
constexpr int kStepWindows = 5;
constexpr double kP99LimitMs = 5.0;
// A fixed-rate run whose generator ran later than this at p99 measured the
// client, not the server: the run is invalid.
constexpr double kMaxGenLagUs = 1000.0;
constexpr auto kOpDeadline = 2s;

enum class phase : std::uint8_t { warm_up, fixed, ladder };

// A wrong reply is a failure anywhere. An error or timeout is a failure in
// the warm-up and at the fixed rate; in the ladder it only fails the step,
// because there it marks overload, which the ladder is looking for.
enum class outcome : std::uint8_t { ok, error, wrong };

struct sample {
  std::int64_t sched = 0;      // scheduled send
  std::int64_t sent = 0;       // write started
  std::int64_t done = 0;       // response read and checked
  std::int64_t prev_done = 0;  // previous completion on this connection
  phase ph = phase::warm_up;
  outcome out = outcome::error;
};

struct conn {
  lhws::io::socket s;
  std::uint64_t rng = 0;
  std::int64_t prev_done = 0;
  phase ph = phase::warm_up;
  std::vector<sample> samples;

  std::uint64_t next() { return rng = mix(rng); }
  // Exponential inter-arrival gap for `rate` requests/s on this connection.
  std::int64_t gap_ns(double rate) {
    const double u =
        static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    return static_cast<std::int64_t>(-std::log1p(-u) / rate * 1e9);
  }
};

lhws::task<long> connect_one(lhws::io::reactor& r, conn& c,
                             std::uint16_t port) {
  c.s = lhws::io::socket::create_tcp(r);
  if (!c.s.valid()) co_return -EBADF;
  lhws::io::set_tcp_nodelay(c.s.fd());
  co_return co_await lhws::io::async_connect(r, c.s, port,
                                             lhws::io::with_deadline(5s));
}

// One request: n in {12..15} at depth 1, so the reply must be 2 fib(n).
lhws::task<bool> one_request(lhws::io::reactor& r, conn& c,
                             std::int64_t sched, std::uint16_t port) {
  const auto n = static_cast<std::uint32_t>(12 + c.next() % 4);
  unsigned char req[8];
  unsigned char resp[8];
  lhws::load::put_le32(req, n);
  lhws::load::put_le32(req + 4, 1);
  const std::int64_t sent = lhws::now_ns();
  const auto dl = lhws::io::with_deadline(kOpDeadline);
  long rc = c.s.valid() ? 0 : co_await connect_one(r, c, port);
  if (rc == 0) rc = co_await lhws::load::write_exact(r, c.s, req, 8, dl);
  if (rc > 0) rc = co_await lhws::load::read_exact(r, c.s, resp, 8, dl);
  const std::int64_t done = lhws::now_ns();
  // After an error a late reply may still arrive: the stream is ambiguous,
  // so the next request dials a fresh connection.
  if (rc != 8) c.s.close();
  const outcome out = rc != 8 ? outcome::error
                      : lhws::load::get_le64(resp) == 2 * fib_ref(n)
                          ? outcome::ok
                          : outcome::wrong;
  c.samples.push_back({sched, sent, done, c.prev_done, c.ph, out});
  c.prev_done = done;
  spans::span(spans::series::queue, sched, sent, c.samples.size());
  spans::span(spans::series::rtt, sent, done, c.samples.size());
  co_return out == outcome::ok;
}

lhws::task<long> warm_up(lhws::io::reactor& r, conn& c, std::uint16_t port) {
  long bad = 0;
  for (unsigned i = 0; i < kWarmupPerConn; ++i) {
    if (!co_await one_request(r, c, lhws::now_ns(), port)) ++bad;
  }
  co_return bad;
}

// Open-loop arrivals on one connection over [start, end). A request due
// while the previous one is still in flight goes out as soon as it
// completes and is still timed from its scheduled instant.
lhws::task<long> drive(lhws::io::reactor& r, conn& c, std::uint16_t port,
                       std::int64_t start, std::int64_t end, double rate) {
  long bad = 0;
  for (std::int64_t t = start + c.gap_ns(rate); t < end; t += c.gap_ns(rate)) {
    co_await lhws::io::sleep_until(r, t);
    if (!co_await one_request(r, c, t, port)) ++bad;
  }
  co_return bad;
}

template <typename Leaf>
lhws::task<long> all_conns(Leaf leaf) {
  return lhws::map_reduce<long>(0, kConns, 0L, leaf,
                                [](long a, long b) { return a + b; });
}

struct step_view {
  std::vector<timed_value> lat_ms;  // (scheduled, latency)
  std::vector<double> queue_us, gen_lag_us;
  std::uint64_t failed = 0;
};

// Samples of every connection scheduled in [from, to).
step_view collect(const std::vector<conn>& conns, std::int64_t from,
                  std::int64_t to) {
  step_view v;
  for (const conn& c : conns) {
    for (const sample& s : c.samples) {
      if (s.sched < from || s.sched >= to) continue;
      if (s.out != outcome::ok) {
        ++v.failed;
        continue;
      }
      v.lat_ms.push_back({s.sched, static_cast<double>(s.done - s.sched) / 1e6});
      v.queue_us.push_back(static_cast<double>(s.sent - s.sched) / 1e3);
      v.gen_lag_us.push_back(
          static_cast<double>(gen_lag_ns(s.sched, s.sent, s.prev_done)) / 1e3);
    }
  }
  return v;
}

ladder_step evaluate_step(const step_view& v, double rate, std::int64_t from,
                          std::int64_t to) {
  std::vector<double> early, late;
  const std::int64_t mid = from + (to - from) / 2;
  for (const timed_value& x : v.lat_ms) {
    (x.t_ns < mid ? early : late).push_back(x.v);
  }
  const pct p99 =
      windowed_quantile(v.lat_ms, (to - from) / kStepWindows, 0.99, 1);
  const double p50_early = percentile(early, 0.5).value;
  const double p50_late = percentile(late, 0.5).value;
  ladder_step s;
  s.rate = rate;
  s.failed = v.failed != 0 || v.lat_ms.empty();
  s.score = std::max(p99.value / kP99LimitMs,
                     p50_early > 0 ? p50_late / (2.0 * p50_early) : 0.0);
  return s;
}

// The client side of one block, set up and connected.
struct client {
  lhws::scheduler& sched;
  lhws::io::reactor& reactor;
  std::vector<conn>& conns;
  std::uint16_t port;

  // Runs every connection's open-loop arrivals over [start, end) at `rate`
  // requests/s in total.
  void drive_all(std::int64_t start, std::int64_t end, double rate) {
    const double per_conn = rate / static_cast<double>(kConns);
    (void)sched.run(all_conns([&](std::size_t i) {
      return drive(reactor, conns[i], port, start, end, per_conn);
    }));
  }
};

// One capacity ladder: climb x1.25 from the fixed rate until a step fails,
// then bisect the bracket that failure closed (geometric midpoints).
capacity_estimate run_ladder(client& c, int climb, int bisect, double step_s) {
  for (conn& k : c.conns) k.ph = phase::ladder;
  std::vector<ladder_step> steps;
  auto step = [&](double rate) {
    const std::int64_t s0 = lhws::now_ns() + 1'000'000;
    const std::int64_t s1 = s0 + static_cast<std::int64_t>(step_s * 1e9);
    c.drive_all(s0, s1, rate);
    steps.push_back(evaluate_step(collect(c.conns, s0, s1), rate, s0, s1));
    return step_passes(steps.back());
  };
  double lo = 0.0, hi = 0.0;
  for (int i = 0; i < climb && hi == 0.0; ++i) {
    const double rate = kFixedRate * std::pow(kLadderFactor, i);
    (step(rate) ? lo : hi) = rate;
  }
  for (int i = 0; i < bisect && lo > 0.0 && hi > 0.0; ++i) {
    const double mid = std::sqrt(lo * hi);
    (step(mid) ? lo : hi) = mid;
  }
  return interpolate_capacity(steps);
}

}  // namespace

void run_rpc_open(const options& o, result& r) {
  e2e_acc acc;
  runtime_acc rt;
  io_acc io;
  lemma7_guard lemma7;
  std::uint64_t spans_ops = 0;
  std::vector<double> queue_us, gen_lag_us, gen_lag_fixed_us;
  std::vector<double> capacities;
  double ladder_s = 0.0;
  bool setup_ok = true;
  const int ladders = o.traced ? 0 : (o.smoke ? 1 : kLadders);
  const double fixed_s = (ladders > 0 ? o.seconds / 2 : o.seconds) /
                         blocks_for(o);
  const int climb = o.smoke ? 2 : kLadderSteps;
  const int bisect = o.smoke ? 1 : kBisectSteps;
  const double step_s =
      o.smoke ? 0.1 : o.seconds / 2 / (kLadders * (climb + bisect));

  for (int b = 0; b < blocks_for(o) && setup_ok; ++b) {
    const block_mode mode = mode_of(o, b);
    const std::int64_t setup0 = lhws::now_ns();

    lhws::load::rpc_server srv(kServerShards);
    if (!srv.valid()) {
      r.require("setup", false, "rpc_server could not listen");
      break;
    }
    lhws::scheduler_options so;
    so.workers = kServerWorkers;
    so.reactor_shards = kServerShards;
    so.metrics = mode == block_mode::metrics;
    lhws::scheduler ssched(so);
    std::int64_t enter = 0, exit = 0, run_call = 0, run_return = 0;
    long server_rc = 0;
    std::thread server([&] {
      run_call = lhws::now_ns();
      server_rc = ssched.run(stamped_root(srv.root(), enter, exit));
      run_return = lhws::now_ns();
    });

    lhws::io::reactor cr(1);
    lhws::scheduler_options co;
    co.workers = kClientWorkers;
    lhws::scheduler csched(co);
    std::vector<conn> conns(kConns);
    for (std::size_t i = 0; i < kConns; ++i) {
      conns[i].rng = mix(o.seed, static_cast<std::uint64_t>(b), i);
    }
    client cl{csched, cr, conns, srv.port()};
    const long connect_rc = csched.run(all_conns([&](std::size_t i) {
      return connect_one(cr, conns[i], cl.port);
    }));
    if (connect_rc != 0) {
      r.require("setup", false, "client connect failed: " +
                                    std::to_string(connect_rc));
      setup_ok = false;
    } else {
      (void)csched.run(all_conns(
          [&](std::size_t i) { return warm_up(cr, conns[i], cl.port); }));
      for (conn& c : conns) c.ph = phase::fixed;
      acc.setup_s.push_back(static_cast<double>(lhws::now_ns() - setup0) /
                            1e9);

      spans::set_enabled(mode == block_mode::spans);
      const std::int64_t t0 = acc.begin_timed();
      const std::int64_t t1 = t0 + static_cast<std::int64_t>(fixed_s * 1e9);
      cl.drive_all(t0, t1, kFixedRate);
      const step_view v = collect(conns, t0, t1);
      for (const timed_value& x : v.lat_ms) {
        acc.op_ms.push_back({acc.timed_clock(x.t_ns), x.v});
      }
      acc.end_timed(mode);
      spans::set_enabled(false);
      gen_lag_fixed_us.insert(gen_lag_fixed_us.end(), v.gen_lag_us.begin(),
                              v.gen_lag_us.end());
      if (mode == block_mode::spans) {
        queue_us.insert(queue_us.end(), v.queue_us.begin(), v.queue_us.end());
        gen_lag_us.insert(gen_lag_us.end(), v.gen_lag_us.begin(),
                          v.gen_lag_us.end());
      }

      if (b >= blocks_for(o) - ladders) {
        acc.rss_frozen = true;
        const std::int64_t ladder0 = lhws::now_ns();
        const capacity_estimate cap = run_ladder(cl, climb, bisect, step_s);
        ladder_s += static_cast<double>(lhws::now_ns() - ladder0) / 1e9;
        const std::string k = "ladder" + std::to_string(capacities.size());
        r.diag(k + ".capacity", cap.rate, "1/s");
        r.diag(k + ".bracket", cap.bracket, "count");
        capacities.push_back(cap.rate);
      }
    }

    // Teardown: close the client side so the server's connection loops see
    // EOF, then stop the accept loops and join the server.
    std::uint64_t requests = 0;
    for (const conn& c : conns) {
      for (const sample& s : c.samples) {
        ++r.attempted;
        if (s.out == outcome::wrong ||
            (s.out == outcome::error && s.ph != phase::ladder)) {
          ++r.failed;
        }
      }
      requests += c.samples.size();
    }
    conns.clear();
    lhws::load::send_done(srv.port());
    server.join();
    if (server_rc != 0) {
      r.require("server", false, "server root returned " +
                                     std::to_string(server_rc));
    }
    lemma7.observe(ssched.stats());
    rt.add(ssched, mode);
    if (mode == block_mode::spans) {
      rt.enter_us.push_back(static_cast<double>(enter - run_call) / 1e3);
      rt.exit_us.push_back(static_cast<double>(run_return - exit) / 1e3);
      io.add(srv.reactor());
      spans_ops += requests;
    }
  }

  const pct lag = percentile(gen_lag_fixed_us, 0.99);
  r.require("result", r.failed == 0,
            std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
                " requests failed or returned a wrong value");
  r.require("gen_lag", lag.value <= kMaxGenLagUs,
            "generator lag p99 " + std::to_string(lag.value) +
                " us at the fixed rate (limit 1000 us, n = " +
                std::to_string(lag.n) + ")");
  lemma7.report(r);
  r.diag("load.gen_lag_us.p99_all_blocks", lag.value, "us", lag.n);
  r.phases.push_back({"setup_total", acc.setup_total()});
  r.phases.push_back({"timed", acc.timed_s});
  r.phases.push_back({"ladder", ladder_s});

  if (!o.traced) {
    emit_e2e(acc, r);
    const pct cap = percentile(capacities, 0.5);
    r.diag("capacity_per_s", cap.value, "1/s", cap.n);
    return;
  }
  emit_trace_overhead(acc, r);
  io.rtt.merge(spans::merged(spans::series::rtt));
  emit_runtime_mem_core_io({spans_ops, &rt, &io}, r);
  emit_idle_load_dist(r);
  const pct q50 = percentile(queue_us, 0.50);
  const pct q99 = percentile(queue_us, 0.99);
  const pct g99 = percentile(gen_lag_us, 0.99);
  r.set("load.queue_us.p50", q50.value, "us", q50.n);
  r.set("load.queue_us.p99", q99.value, "us", q99.n);
  r.set("load.gen_lag_us.p99", g99.value, "us", g99.n);
}

}  // namespace lhws_bench
