#include "harness/workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/cpu.hpp"
#include "common/env.hpp"

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
    case Workload::kBurst:
      return "burst";
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

std::vector<unsigned> parse_list(const std::string& s) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(static_cast<unsigned>(std::stoul(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
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
  p.batch = static_cast<unsigned>(env_u64("WCQ_BENCH_BATCH", p.batch));
  if (env_flag("WCQ_BENCH_FULL", false)) {
    p.ops = 10'000'000;
    p.runs = 10;
  }
  const std::string env_threads = env_str("WCQ_BENCH_THREADS", "");
  if (!env_threads.empty()) p.thread_counts = parse_list(env_threads);

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag_value(argv[i], "--threads", v)) {
      p.thread_counts = parse_list(v);
    } else if (flag_value(argv[i], "--ops", v)) {
      p.ops = std::stoull(v);
    } else if (flag_value(argv[i], "--runs", v)) {
      p.runs = static_cast<unsigned>(std::stoul(v));
    } else if (flag_value(argv[i], "--workload", v)) {
      if (v == "pairs") p.workload = Workload::kPairs;
      else if (v == "p5050") p.workload = Workload::kP5050;
      else if (v == "empty") p.workload = Workload::kEmptyDeq;
      else if (v == "memory") p.workload = Workload::kMemory;
      else if (v == "burst") p.workload = Workload::kBurst;
    } else if (flag_value(argv[i], "--batch", v)) {
      p.batch = static_cast<unsigned>(std::stoul(v));
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
    }
  }
  if (p.thread_counts.empty()) p.thread_counts = default_thread_counts();
  if (p.runs == 0) p.runs = 1;
  if (p.batch == 0) p.batch = 1;
  if (p.batch > kMaxBatch) p.batch = kMaxBatch;
  if (!Topology::parse_pin_spec(p.pin_policy)) {
    std::fprintf(stderr, "wcq-bench: unknown pin policy '%s', using rr\n",
                 p.pin_policy.c_str());
    p.pin_policy = "rr";
  }
  return p;
}

bool BenchParams::selected(const std::string& queue_name) const {
  if (only.empty()) return true;
  return std::find(only.begin(), only.end(), queue_name) != only.end();
}

}  // namespace wcq::bench
