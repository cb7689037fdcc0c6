// lhws_bench — the end-to-end benchmark of the LHWS runtime.
//
//   lhws_bench --workload {fj_compute|fj_latency|rpc_open|cluster_mr|all}
//              --seed S [--seconds T] [--traced] [--smoke] --out FILE
//
// --seconds is the measured time of one run (default 10); --smoke runs
// every phase in about half a second.
//
// Writes one JSON result file (metrics with unit and sample count, checks,
// provenance) and prints a table. An untraced run measures the end-to-end
// metrics; a --traced run the per-layer metrics and the tracing overhead,
// plus a Perfetto trace at FILE.trace.json. Exits 1 when any check fails,
// so a broken build cannot post a fast number. `all` runs every workload
// in its own process and writes FILE with one entry per workload.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using lhws_bench::options;
using lhws_bench::result;

struct workload {
  const char* name;
  void (*run)(const options&, result&);
};

constexpr workload kWorkloads[] = {
    {"fj_compute", lhws_bench::run_fj_compute},
    {"fj_latency", lhws_bench::run_fj_latency},
    {"rpc_open", lhws_bench::run_rpc_open},
    {"cluster_mr", lhws_bench::run_cluster_mr},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "lhws_bench: %s\nusage: lhws_bench --workload "
               "{fj_compute|fj_latency|rpc_open|cluster_mr|all} --seed S "
               "[--seconds T] [--traced] [--smoke] --out FILE\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, options& o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--seconds" && has_value) {
      char* end = nullptr;
      o.seconds = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 600.0) {
        return false;
      }
    } else if (a == "--out" && has_value) {
      o.out = argv[++i];
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      return false;
    }
  }
  return have_seed && !o.workload.empty() && !o.out.empty();
}

void print_table(const options& o, const result& r) {
  std::printf("lhws_bench %s seed=%llu %s%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.traced ? "traced" : "untraced", o.smoke ? " smoke" : "");
  for (const auto* m : {&r.metrics, &r.diagnostics}) {
    for (const auto& [name, v] : *m) {
      std::printf("  %-36s %14.6g %-9s n=%llu%s\n", name.c_str(), v.value,
                  v.unit.c_str(), static_cast<unsigned long long>(v.n),
                  m == &r.diagnostics ? "  (diagnostic)" : "");
    }
  }
  for (const auto& c : r.checks) {
    std::printf("  check %-10s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  }
  std::printf("  attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

int run_one(const options& o, const workload& w) {
  lhws_bench::provenance p;
  p.nproc = lhws_bench::affinity_cpus();
  p.loadavg_start = lhws_bench::loadavg_1m();
  result r;
  try {
    w.run(o, r);
  } catch (const std::exception& e) {
    r.require("exception", false, e.what());
  }
  p.loadavg_end = lhws_bench::loadavg_1m();
  if (o.traced && !lhws_bench::spans::write_chrome_trace(o.out + ".trace.json")) {
    r.require("trace_file", false, "cannot write " + o.out + ".trace.json");
  }
  print_table(o, r);
  if (!lhws_bench::write_result(o, r, p)) {
    std::fprintf(stderr, "lhws_bench: cannot write %s\n", o.out.c_str());
    return 1;
  }
  return r.all_checks_pass() ? 0 : 1;
}

// `all`: one child process per workload, so each gets a fresh heap (for
// peak_rss_mb) and no thread of one workload outlives into the next.
int run_all(char** argv, const options& o) {
  int worst = 0;
  std::ostringstream merged;
  merged << "{\"workloads\": {";
  bool first = true;
  for (const workload& w : kWorkloads) {
    const std::string out = o.out + "." + w.name + ".json";
    const std::string seed = std::to_string(o.seed);
    const std::string seconds = std::to_string(o.seconds);
    std::vector<const char*> args = {argv[0],        "--workload",
                                     w.name,         "--seed",
                                     seed.c_str(),   "--seconds",
                                     seconds.c_str(), "--out",
                                     out.c_str()};
    if (o.traced) args.push_back("--traced");
    if (o.smoke) args.push_back("--smoke");
    args.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv("/proc/self/exe", const_cast<char* const*>(args.data()));
      ::_exit(127);
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status)) {
      worst = 1;
      continue;
    }
    worst = std::max(worst, WEXITSTATUS(status));
    std::ifstream in(out);
    std::stringstream body;
    body << in.rdbuf();
    const std::string text = body.str();
    if (text.empty()) worst = std::max(worst, 1);
    merged << (first ? "" : ",") << "\n\"" << w.name
           << "\": " << (text.empty() ? "null" : text);
    first = false;
  }
  merged << "}}\n";
  std::ofstream out(o.out, std::ios::binary | std::ios::trunc);
  out << merged.str();
  return out ? worst : 1;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse(argc, argv, o)) return usage("bad arguments");
  if (o.smoke) o.seconds = 0.5;
  if (o.workload == "all") return run_all(argv, o);
  for (const workload& w : kWorkloads) {
    if (o.workload == w.name) return run_one(o, w);
  }
  return usage("unknown workload");
}
