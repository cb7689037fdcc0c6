// fj_compute and fj_latency: back-to-back scheduler::run calls with four
// workers, one run per operation.
//
// fj_compute has no heavy edge (U = 0): deque push/pop/steal, idle parking
// and slab frame allocation do all the work. It is the no-change control
// for timer, io and framing changes. fj_latency is the paper's Fig. 11
// map-reduce: every leaf suspends on lhws::latency, so the suspend ->
// timer -> deliver_resume -> drain path carries the run.
#include <chrono>
#include <string>

#include "common.hpp"
#include "core/algorithms.hpp"
#include "core/fork_join.hpp"
#include "core/latency.hpp"

namespace lhws_bench {

namespace {

constexpr unsigned kWorkers = 4;

// --- fj_compute inputs -----------------------------------------------------
// A binary fork tree over kTreeLeaves leaves. A range [lo, hi) splits at a
// point drawn uniformly from its middle half, so the tree is irregular but
// never degenerate; leaf i runs 64..256 LCG steps from a seeded start. Both
// the shape and the leaves are pure functions of the seed.
constexpr std::uint32_t kTreeLeaves = std::uint32_t{1} << 17;
// One leaf in kLeafSample records spans in a traced block: per-leaf spans
// would cost more than the leaves themselves.
constexpr std::uint32_t kLeafSample = 1024;

std::uint32_t split_point(std::uint64_t seed, std::uint32_t lo,
                          std::uint32_t hi) {
  const std::uint32_t n = hi - lo;
  const std::uint32_t quarter = n / 4 > 0 ? n / 4 : 1;
  const std::uint32_t first = lo + quarter;
  const std::uint32_t last = hi - quarter;  // inclusive; first <= last
  return first + static_cast<std::uint32_t>(mix(seed, lo, hi) %
                                            (last - first + 1));
}

std::uint64_t leaf_value(std::uint64_t seed, std::uint32_t i) {
  std::uint64_t x = mix(seed, i, 0xfeed);
  const unsigned steps = 64 + static_cast<unsigned>(x % 193);
  for (unsigned s = 0; s < steps; ++s) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

// Order-sensitive, so a child result landing in the wrong join changes
// the checksum.
std::uint64_t combine(std::uint64_t left, std::uint64_t right) {
  return mix(left) + right;
}

std::uint64_t tree_reference(std::uint64_t seed, std::uint32_t lo,
                             std::uint32_t hi) {
  if (hi - lo == 1) return leaf_value(seed, lo);
  const std::uint32_t mid = split_point(seed, lo, hi);
  return combine(tree_reference(seed, lo, mid), tree_reference(seed, mid, hi));
}

// A sampled leaf's span runs from its creation by the parent's fork2 to its
// return, so its self time (outside the compute) is the frame allocation
// and, for a right child, the time it waited in a deque to be run.
bool sampled(std::uint32_t lo, std::uint32_t hi) {
  return hi - lo == 1 && lo % kLeafSample == 0 && spans::enabled();
}

lhws::task<std::uint64_t> tree(std::uint64_t seed, std::uint32_t lo,
                               std::uint32_t hi, std::int64_t created_ns) {
  if (hi - lo == 1) {
    if (created_ns == 0) co_return leaf_value(seed, lo);
    const std::int64_t t0 = lhws::now_ns();
    const std::uint64_t v = leaf_value(seed, lo);
    const std::int64_t t1 = lhws::now_ns();
    spans::span(spans::series::compute, t0, t1, lo);
    spans::span(spans::series::leaf, created_ns, t1, lo);
    spans::value(spans::series::leaf_self,
                 self_time_ns({created_ns, t1}, {{t0, t1}}));
    co_return v;
  }
  const std::uint32_t mid = split_point(seed, lo, hi);
  const std::int64_t left = sampled(lo, mid) ? lhws::now_ns() : 0;
  const std::int64_t right = sampled(mid, hi) ? lhws::now_ns() : 0;
  auto [a, b] = co_await lhws::fork2(tree(seed, lo, mid, left),
                                     tree(seed, mid, hi, right));
  co_return combine(a, b);
}

// --- fj_latency inputs -----------------------------------------------------
// Fig. 11 at a size that runs in about 12 ms: kMrLeaves leaves, each waits
// delta_i ~ U[0.5, 1.5] ms and then computes fib(n_i), n_i in {9, 10, 11}.
constexpr std::size_t kMrLeaves = 4096;

struct mr_inputs {
  std::vector<std::int64_t> delta_ns;
  std::vector<unsigned> fib_n;
};

mr_inputs make_mr_inputs(std::uint64_t seed) {
  mr_inputs in;
  for (std::size_t i = 0; i < kMrLeaves; ++i) {
    in.delta_ns.push_back(500'000 +
                          static_cast<std::int64_t>(mix(seed, i, 1) % 1'000'001));
    in.fib_n.push_back(9 + static_cast<unsigned>(mix(seed, i, 2) % 3));
  }
  return in;
}

lhws::task<std::uint64_t> fib_task(unsigned n) {
  if (n < 2) co_return n;
  auto [a, b] = co_await lhws::fork2(fib_task(n - 1), fib_task(n - 2));
  co_return a + b;
}

// A traced leaf's span runs from its creation by map_reduce to its return;
// its children are the latency wait and the compute, so its self time is
// the frame allocation and the hand-offs between them.
lhws::task<std::uint64_t> mr_leaf(const mr_inputs& in, std::size_t i,
                                  std::int64_t created_ns) {
  const std::chrono::nanoseconds delta(in.delta_ns[i]);
  if (created_ns == 0) {
    co_return co_await fib_task(co_await lhws::latency(delta, in.fib_n[i]));
  }
  const std::int64_t t0 = lhws::now_ns();
  const unsigned n = co_await lhws::latency(delta, in.fib_n[i]);
  const std::int64_t t1 = lhws::now_ns();
  const std::uint64_t v = co_await fib_task(n);
  const std::int64_t t2 = lhws::now_ns();
  spans::span(spans::series::latency, t0, t1, i);
  spans::span(spans::series::compute, t1, t2, i);
  spans::span(spans::series::leaf, created_ns, t2, i);
  spans::value(spans::series::latency_overshoot, (t1 - t0) - in.delta_ns[i]);
  spans::value(spans::series::leaf_self,
               self_time_ns({created_ns, t2}, {{t0, t1}, {t1, t2}}));
  co_return v;
}

lhws::task<std::uint64_t> mr_root(const mr_inputs& in) {
  return lhws::map_reduce<std::uint64_t>(
      0, kMrLeaves, 0,
      [&in](std::size_t i) {
        return mr_leaf(in, i, spans::enabled() ? lhws::now_ns() : 0);
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

// Runs blocks of back-to-back runs of make_root() and checks each result
// against `expect`.
template <typename MakeRoot>
void fj_loop(const options& o, result& r, MakeRoot make_root,
             std::uint64_t expect) {
  e2e_acc acc;
  runtime_acc rt;
  lemma7_guard lemma7;
  std::uint64_t spans_ops = 0;
  auto one_run = [&](lhws::scheduler& sched, bool timed, block_mode mode) {
    std::int64_t enter = 0, exit = 0;
    const std::int64_t t0 = lhws::now_ns();
    const std::uint64_t v = sched.run(stamped_root(make_root(), enter, exit));
    const std::int64_t t1 = lhws::now_ns();
    ++r.attempted;
    if (v != expect) ++r.failed;
    lemma7.observe(sched.stats());
    if (!timed) return;
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    acc.op_ms.push_back({acc.timed_clock(t0), ms});
    rt.add(sched, mode);
    if (mode == block_mode::spans) {
      ++spans_ops;
      rt.enter_us.push_back(static_cast<double>(enter - t0) / 1e3);
      rt.exit_us.push_back(static_cast<double>(t1 - exit) / 1e3);
      spans::span(spans::series::run, t0, t1, r.attempted);
    }
  };

  for (int b = 0; b < blocks_for(o); ++b) {
    const block_mode mode = mode_of(o, b);
    const std::int64_t setup0 = lhws::now_ns();
    lhws::scheduler_options so;
    so.workers = kWorkers;
    so.metrics = mode == block_mode::metrics;
    lhws::scheduler sched(so);
    one_run(sched, false, mode);  // warm-up: pool, slab magazines, timers
    acc.setup_s.push_back(static_cast<double>(lhws::now_ns() - setup0) / 1e9);

    spans::set_enabled(mode == block_mode::spans);
    const std::int64_t until =
        acc.begin_timed() +
        static_cast<std::int64_t>(o.seconds / blocks_for(o) * 1e9);
    do {
      one_run(sched, true, mode);
    } while (lhws::now_ns() < until);
    acc.end_timed(mode);
    spans::set_enabled(false);
  }

  r.require("result", r.failed == 0,
            std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
                " runs returned a wrong checksum");
  lemma7.report(r);
  r.phases.push_back({"setup_total", acc.setup_total()});
  r.phases.push_back({"timed", acc.timed_s});
  if (!o.traced) {
    emit_e2e(acc, r);
    r.diag("capacity_per_s", acc.block_median(&block_stats::ops_per_s).value,
           "1/s", acc.ops);
    return;
  }
  emit_trace_overhead(acc, r);
  emit_runtime_mem_core_io({spans_ops, &rt, nullptr}, r);
  emit_idle_load_dist(r);
}

}  // namespace

void run_fj_compute(const options& o, result& r) {
  const std::uint64_t expect = tree_reference(o.seed, 0, kTreeLeaves);
  fj_loop(o, r, [&] { return tree(o.seed, 0, kTreeLeaves, 0); }, expect);
}

void run_fj_latency(const options& o, result& r) {
  const mr_inputs in = make_mr_inputs(o.seed);
  std::uint64_t expect = 0;
  for (const unsigned n : in.fib_n) expect += fib_ref(n);
  fj_loop(o, r, [&] { return mr_root(in); }, expect);
}

}  // namespace lhws_bench
