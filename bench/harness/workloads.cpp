#include "harness/workloads.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/cpu.hpp"
#include "common/env.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq::bench {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPairs:
      return "pairs";
    case Workload::kP5050:
      return "p5050";
    case Workload::kEmptyDeq:
      return "empty";
    case Workload::kMemory:
      return "memory";
  }
  return "?";
}

std::vector<unsigned> default_thread_counts() {
  const unsigned n = cpu_count();
  std::vector<unsigned> out;
  for (unsigned t = 1; t < n; t *= 2) out.push_back(t);
  if (out.empty() || out.back() != n) out.push_back(n);
  out.push_back(2 * n);  // oversubscribed tail (the paper's 144-thread point)
  return out;
}

namespace {

[[noreturn]] void usage_exit(const char* prog, const char* what,
                             const char* arg) {
  std::fprintf(stderr, "%s: %s '%s'\n", prog, what, arg);
  std::fprintf(stderr,
               "usage: %s [--threads=1,2,4] [--ops=N] [--runs=N] "
               "[--workload=pairs|p5050|empty|memory] [--only=NAME,...] "
               "[--no-pin] [--pin-policy=rr|compact|scatter|node:<k>] "
               "[--full] [--json=PATH]\n",
               prog);
  std::exit(2);
}

std::vector<std::string> parse_names(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// The whole token must be a decimal number: std::stoul would read "12abc"
// as 12, wrap "-1" to 2^64-1 and abort the run on "abc".
std::uint64_t parse_number(const char* prog, const std::string& tok) {
  std::uint64_t out = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  if (tok.empty() || ec != std::errc{} || ptr != end) {
    usage_exit(prog, "not a number", tok.c_str());
  }
  return out;
}

// Worker counts: at least one (measure_point divides by it), and below the
// registry's tid space, one tid of which the driver's own thread may hold.
std::vector<unsigned> parse_threads(const char* prog, const std::string& s) {
  std::vector<unsigned> out;
  for (const std::string& tok : parse_names(s)) {
    const std::uint64_t t = parse_number(prog, tok);
    if (t == 0 || t >= ThreadRegistry::kMaxThreads) {
      usage_exit(prog, "thread count out of range", tok.c_str());
    }
    out.push_back(static_cast<unsigned>(t));
  }
  return out;
}

bool flag_value(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

BenchParams BenchParams::parse(int argc, char** argv) {
  BenchParams p;
  p.thread_counts = default_thread_counts();
  p.ops = env_u64("WCQ_BENCH_OPS", p.ops);
  p.runs = static_cast<unsigned>(env_u64("WCQ_BENCH_RUNS", p.runs));
  p.pin = env_flag("WCQ_BENCH_PIN", p.pin);
  p.pin_policy = env_str("WCQ_BENCH_PIN_POLICY", p.pin_policy);
  if (env_flag("WCQ_BENCH_FULL", false)) {
    p.ops = 10'000'000;
    p.runs = 10;
  }
  const std::string env_threads = env_str("WCQ_BENCH_THREADS", "");
  if (!env_threads.empty()) {
    p.thread_counts = parse_threads(argv[0], env_threads);
  }

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag_value(argv[i], "--threads", v)) {
      p.thread_counts = parse_threads(argv[0], v);
    } else if (flag_value(argv[i], "--ops", v)) {
      p.ops = parse_number(argv[0], v);
    } else if (flag_value(argv[i], "--runs", v)) {
      p.runs = static_cast<unsigned>(parse_number(argv[0], v));
    } else if (flag_value(argv[i], "--workload", v)) {
      if (v == "pairs") p.workload = Workload::kPairs;
      else if (v == "p5050") p.workload = Workload::kP5050;
      else if (v == "empty") p.workload = Workload::kEmptyDeq;
      else if (v == "memory") p.workload = Workload::kMemory;
      else usage_exit(argv[0], "unknown workload", v.c_str());
    } else if (flag_value(argv[i], "--json", v)) {
      p.json_path = v;
    } else if (flag_value(argv[i], "--pin-policy", v)) {
      p.pin_policy = v;
    } else if (flag_value(argv[i], "--only", v)) {
      p.only = parse_names(v);
    } else if (std::strcmp(argv[i], "--no-pin") == 0) {
      p.pin = false;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      p.ops = 10'000'000;
      p.runs = 10;
    } else {
      usage_exit(argv[0], "unknown flag", argv[i]);
    }
  }
  if (p.thread_counts.empty()) p.thread_counts = default_thread_counts();
  if (p.runs == 0) p.runs = 1;
  if (!Topology::parse_pin_spec(p.pin_policy)) {
    usage_exit(argv[0], "unknown pin policy", p.pin_policy.c_str());
  }
  return p;
}

bool BenchParams::selected(const std::string& queue_name) const {
  if (only.empty()) return true;
  return std::find(only.begin(), only.end(), queue_name) != only.end();
}

}  // namespace wcq::bench
