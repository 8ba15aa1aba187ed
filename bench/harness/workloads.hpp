// Benchmark workloads and parameters reproducing the paper's §6 methodology.
//
// Workloads (one per figure panel):
//   pairs    — Enqueue immediately followed by Dequeue, in a tight loop
//              (Fig 11b / 12b "Pairwise Enqueue-Dequeue").
//   p5050    — every operation is Enqueue or Dequeue with probability 1/2
//              (Fig 11c / 12c "50%/50% Enqueue-Dequeue").
//   empty    — Dequeue in a tight loop on an empty queue
//              (Fig 11a / 12a "Empty Dequeue throughput").
//   memory   — p5050 with tiny random delays between operations; measures
//              allocator growth rather than only throughput (Fig 10).
//
// Methodology knobs follow the paper: each point is measured `runs` times
// for `ops` operations; the mean and coefficient of variation are reported.
// Defaults are CI-sized; WCQ_BENCH_FULL=1 or --full selects the paper's
// 10 x 10,000,000 configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wcq::bench {

enum class Workload { kPairs, kP5050, kEmptyDeq, kMemory };

const char* workload_name(Workload w);

struct BenchParams {
  std::vector<unsigned> thread_counts;
  std::uint64_t ops = 200000;  // total operations per measurement run
  unsigned runs = 3;
  bool pin = true;
  // Placement policy when pinning: "rr" (round-robin over all CPUs, the
  // legacy default), "compact" (fill a node, one hyperthread per core
  // first — the paper's Fig 11 placement), "scatter" (round-robin across
  // nodes), "node:<k>" (confine to node k). Resolved against
  // Topology::instance(), so WCQ_TOPOLOGY simulated shapes apply.
  std::string pin_policy = "rr";
  Workload workload = Workload::kPairs;
  // memory workload: delay up to this many spin iterations between ops
  unsigned max_delay_spins = 64;
  // when non-empty, drivers append a machine-readable report here
  std::string json_path;
  // queue-name filter; empty = all queues in the binary
  std::vector<std::string> only;

  // Parse --threads=1,2,4 --ops=N --runs=N
  // --workload=pairs|p5050|empty|memory --json=PATH
  // --no-pin --pin-policy=rr|compact|scatter|node:<k> --full
  // --only=wCQ,SCQ  plus WCQ_BENCH_* env fallbacks. An unknown flag,
  // workload or pin policy, or a malformed number, prints the usage line
  // and exits 2.
  static BenchParams parse(int argc, char** argv);

  bool selected(const std::string& queue_name) const;
};

// Default thread sweep mirroring the paper's 1..144 progression, scaled to
// this machine: powers of two up to nproc, nproc itself, and 2x nproc (the
// paper's oversubscription tail).
std::vector<unsigned> default_thread_counts();

}  // namespace wcq::bench
