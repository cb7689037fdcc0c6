#include "spans.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace lhws_bench::spans {

namespace {

// Raw spans kept per sink for the trace file; beyond this only the
// histograms grow, so a long traced run stays small in memory and on disk.
constexpr std::size_t kRawCap = std::size_t{1} << 15;

struct raw_span {
  std::int64_t begin_ns;
  std::int64_t end_ns;
  std::uint64_t op;
  series s;
};

struct sink {
  std::uint32_t index = 0;
  std::vector<raw_span> raw;
  std::uint64_t raw_dropped = 0;
  lhws::obs::log_histogram hist[kNumSeries];
};

class pool {
 public:
  sink* acquire() {
    std::lock_guard<std::mutex> lk(mu_);
    if (!free_.empty()) {
      sink* s = free_.back();
      free_.pop_back();
      return s;
    }
    all_.push_back(std::make_unique<sink>());
    all_.back()->index = static_cast<std::uint32_t>(all_.size() - 1);
    all_.back()->raw.reserve(1024);
    return all_.back().get();
  }

  void release(sink* s) {
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(s);
  }

  template <typename Fn>
  void for_each(Fn fn) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& s : all_) fn(*s);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<sink>> all_;
  std::vector<sink*> free_;
};

// Leaked on purpose: worker threads return their sinks from thread_local
// destructors, which may run during static destruction.
pool& the_pool() {
  static pool* p = new pool();
  return *p;
}

struct lease {
  sink* s = nullptr;
  ~lease() {
    if (s != nullptr) the_pool().release(s);
  }
};

sink& my_sink() {
  thread_local lease l;
  if (l.s == nullptr) l.s = the_pool().acquire();
  return *l.s;
}

std::atomic<bool> g_enabled{false};

}  // namespace

const char* name(series s) noexcept {
  switch (s) {
    case series::run: return "run";
    case series::leaf: return "leaf";
    case series::latency: return "latency";
    case series::compute: return "compute";
    case series::rtt: return "rtt";
    case series::queue: return "queue";
    case series::call_local: return "call_local";
    case series::call_remote: return "call_remote";
    case series::mesh_setup: return "mesh_setup";
    case series::leaf_self: return "leaf_self";
    case series::latency_overshoot: return "latency_overshoot";
    case series::kCount: break;
  }
  return "?";
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void span(series s, std::int64_t begin_ns, std::int64_t end_ns,
          std::uint64_t op) noexcept {
  if (!enabled()) return;
  sink& k = my_sink();
  const std::int64_t dur = end_ns > begin_ns ? end_ns - begin_ns : 0;
  k.hist[static_cast<std::size_t>(s)].record(static_cast<std::uint64_t>(dur));
  if (k.raw.size() < kRawCap) {
    k.raw.push_back({begin_ns, end_ns, op, s});
  } else {
    ++k.raw_dropped;
  }
}

void value(series s, std::int64_t ns) noexcept {
  if (!enabled()) return;
  my_sink().hist[static_cast<std::size_t>(s)].record(
      static_cast<std::uint64_t>(ns > 0 ? ns : 0));
}

lhws::obs::log_histogram merged(series s) {
  lhws::obs::log_histogram out;
  the_pool().for_each(
      [&](const sink& k) { out.merge(k.hist[static_cast<std::size_t>(s)]); });
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = INT64_MAX;
  the_pool().for_each([&](const sink& k) {
    for (const raw_span& r : k.raw) t0 = r.begin_ns < t0 ? r.begin_ns : t0;
  });
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  the_pool().for_each([&](const sink& k) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%" PRIu32 ",\"args\":{\"name\":\"sink %" PRIu32
                 " (dropped %" PRIu64 ")\"}}",
                 first ? "" : ",\n", k.index, k.index, k.raw_dropped);
    first = false;
    for (const raw_span& r : k.raw) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%" PRIu32
                   ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64 "}}",
                   name(r.s), k.index,
                   static_cast<double>(r.begin_ns - t0) / 1000.0,
                   static_cast<double>(r.end_ns - r.begin_ns) / 1000.0, r.op);
    }
  });
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace lhws_bench::spans
