// Benchmark-side spans: lhws_bench times each call it makes into a layer's
// public functions (a run, a leaf's latency wait and compute, an RPC round
// trip, a cluster call) and nothing inside src/. Spans are per run, leaf,
// request or call, never per fork, so recording stays cheap.
//
// Each thread records into its own sink: a duration histogram per series
// plus the first kRawCap raw spans for the Perfetto trace. Sinks outlive
// their threads (every scheduler::run starts a fresh worker pool), so a
// thread leases one from a pool and returns it on exit.
#pragma once

#include <cstdint>
#include <string>

#include "obs/histogram.hpp"

namespace lhws_bench::spans {

enum class series : std::uint8_t {
  // Spans: recorded with begin and end, written to the trace.
  run,          // one scheduler::run, one cluster round
  leaf,         // one map-reduce or fork-tree leaf
  latency,      // co_await lhws::latency inside a leaf
  compute,      // the leaf's compute after the wait
  rtt,          // RPC client: write start -> verified response read
  queue,        // RPC client: scheduled -> sent
  call_local,   // cluster::call to this node
  call_remote,  // cluster::call to the peer node
  mesh_setup,   // cluster::start (mesh handshake)
  // Values: histogram only.
  leaf_self,          // leaf span minus its child spans
  latency_overshoot,  // awaited minus requested delay
  kCount
};

inline constexpr std::size_t kNumSeries = static_cast<std::size_t>(series::kCount);

[[nodiscard]] const char* name(series s) noexcept;

// Recording is a no-op while disabled. Untraced blocks leave it off so the
// end-to-end numbers carry no tracing cost; callers test enabled() before
// taking timestamps.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

// Records a span [begin_ns, end_ns) of operation `op` (run index, request
// index, call index) on the calling thread's sink.
void span(series s, std::int64_t begin_ns, std::int64_t end_ns,
          std::uint64_t op) noexcept;

// Records a value series sample (ns) on the calling thread's sink.
void value(series s, std::int64_t ns) noexcept;

// Merged histogram of one series over every sink. Call only while no
// thread records (between runs).
[[nodiscard]] lhws::obs::log_histogram merged(series s);

// Writes every kept raw span as Chrome trace-event JSON (ui.perfetto.dev
// or chrome://tracing); false on an I/O error.
[[nodiscard]] bool write_chrome_trace(const std::string& path);

}  // namespace lhws_bench::spans
