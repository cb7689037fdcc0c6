// Pure statistics helpers of lhws_bench. Every number the benchmark prints
// goes through one of these, and tests/test_stats.cpp pins each of them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace lhws_bench {

// A percentile together with the number of samples it was taken from: a
// p99 of 50 samples is a different claim from a p99 of 50000.
struct pct {
  double value = 0.0;
  std::size_t n = 0;
};

// q-quantile (q in [0, 1]) by linear interpolation between closest ranks,
// the estimator numpy and Python's statistics module use by default.
// Empty input gives {0, 0}.
[[nodiscard]] inline pct percentile(std::vector<double> v, double q) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return {v[lo] + (v[hi] - v[lo]) * frac, v.size()};
}

// A timestamped sample: `t_ns` places it in a window, `v` is its value.
struct timed_value {
  std::int64_t t_ns = 0;
  double v = 0.0;
};

// The median, over consecutive windows of `window_ns` (aligned to the
// earliest sample), of each window's q-quantile. Windows with fewer than
// `min_samples` samples are skipped. n is the number of windows used.
// Taking a tail quantile per window and then the median over windows keeps
// one stall from deciding a run's tail figure.
[[nodiscard]] inline pct windowed_quantile(const std::vector<timed_value>& s,
                                           std::int64_t window_ns, double q,
                                           std::size_t min_samples) {
  if (s.empty() || window_ns <= 0) return {};
  std::int64_t t0 = s.front().t_ns;
  for (const timed_value& x : s) t0 = std::min(t0, x.t_ns);
  std::map<std::int64_t, std::vector<double>> windows;
  for (const timed_value& x : s) windows[(x.t_ns - t0) / window_ns].push_back(x.v);
  std::vector<double> per_window;
  for (auto& [idx, vals] : windows) {
    if (vals.size() >= min_samples) {
      per_window.push_back(percentile(std::move(vals), q).value);
    }
  }
  const pct med = percentile(per_window, 0.5);
  return {med.value, per_window.size()};
}

// How late an open-loop generator sent a request, in ns: the send time
// minus the earliest moment the request could have gone out, which is its
// scheduled time or, on a connection with one request in flight, the
// completion of the previous request. Waiting for that completion is
// queueing in the system under test, not generator lag. Never negative.
[[nodiscard]] inline std::int64_t gen_lag_ns(std::int64_t scheduled_ns,
                                             std::int64_t sent_ns,
                                             std::int64_t prev_done_ns) {
  return std::max<std::int64_t>(0,
                                sent_ns - std::max(scheduled_ns, prev_done_ns));
}

struct interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

// Self time of a span: its duration minus the part of it that its child
// spans cover. Children may overlap each other (parallel children) and may
// stick out of the parent; only their union inside the parent counts.
[[nodiscard]] inline std::int64_t self_time_ns(interval parent,
                                               std::vector<interval> children) {
  const std::int64_t dur = std::max<std::int64_t>(0, parent.end - parent.begin);
  for (interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const interval& a, const interval& b) { return a.begin < b.begin; });
  std::int64_t covered = 0;
  std::int64_t reach = parent.begin;
  for (const interval& c : children) {
    if (c.end <= c.begin) continue;
    const std::int64_t from = std::max(c.begin, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return dur - covered;
}

// One step of the open-loop capacity ladder: the offered rate and its
// stress score, max(windowed p99 / limit, late p50 / (2 x early p50)). A
// step passes when the score is at most 1 and no request failed.
struct ladder_step {
  double rate = 0.0;
  double score = 0.0;
  bool failed = false;
};

[[nodiscard]] inline bool step_passes(const ladder_step& s) {
  return !s.failed && s.score <= 1.0;
}

struct capacity_estimate {
  double rate = 0.0;
  // 0: crossing found between a passing and a failing step; 1: no step
  // failed (the value extrapolates past the highest rate); -1: no step
  // passed below the lowest failing rate.
  int bracket = 0;
};

// The rate at which the stress score crosses 1. Steps may come in any
// order (a coarse climb, then bisection inside the bracket it found). The
// crossing is interpolated linearly in the score and logarithmically in the
// rate between the fastest passing step below the slowest failing step and
// that failing step. A failed request counts as a score of at least 2, so
// a step that failed outright still interpolates.
[[nodiscard]] inline capacity_estimate interpolate_capacity(
    const std::vector<ladder_step>& steps) {
  if (steps.empty()) return {};
  auto score = [](const ladder_step& s) {
    return s.failed ? std::max(s.score, 2.0) : s.score;
  };
  auto cross = [&](const ladder_step& a, const ladder_step& b) {
    const double sa = score(a);
    const double sb = score(b);
    if (sb <= sa) return b.rate;
    const double frac = (1.0 - sa) / (sb - sa);
    return std::exp(std::log(a.rate) + frac * (std::log(b.rate) - std::log(a.rate)));
  };
  const ladder_step* fail = nullptr;
  for (const ladder_step& s : steps) {
    if (!step_passes(s) && (fail == nullptr || s.rate < fail->rate)) fail = &s;
  }
  const ladder_step* pass = nullptr;
  const ladder_step* below = nullptr;  // second fastest passing step
  for (const ladder_step& s : steps) {
    if (!step_passes(s) || (fail != nullptr && s.rate >= fail->rate)) continue;
    if (pass == nullptr || s.rate > pass->rate) {
      below = pass;
      pass = &s;
    } else if (below == nullptr || s.rate > below->rate) {
      below = &s;
    }
  }
  if (pass == nullptr) {
    // No passing step to anchor on: scale the rate down by its score.
    return {fail->rate / std::max(score(*fail), 1.0), -1};
  }
  if (fail != nullptr) return {cross(*pass, *fail), 0};
  if (below == nullptr) return {pass->rate, 1};
  // Every step passed: extrapolate the two fastest steps' trend, at most
  // one of their rate ratios past the fastest.
  const double factor = pass->rate / below->rate;
  const double est =
      score(*pass) > score(*below) ? cross(*below, *pass) : pass->rate * factor;
  return {std::clamp(est, pass->rate, pass->rate * factor), 1};
}

}  // namespace lhws_bench
