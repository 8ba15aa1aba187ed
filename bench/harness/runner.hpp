// Table-driven bench runner: sweeps thread counts for a set of queue
// adapters and prints one paper-style series per queue.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "harness/measure.hpp"
#include "harness/workloads.hpp"

namespace wcq::bench {

struct Series {
  std::string name;
  std::vector<PointResult> points;
};

void print_preamble(const char* figure, const char* caption,
                    const BenchParams& p);
void print_throughput_table(const std::vector<Series>& series,
                            const std::vector<unsigned>& threads);
void print_memory_table(const std::vector<Series>& series,
                        const std::vector<unsigned>& threads);
// Metered allocation events per run (count): the churn metric behind the
// Fig 10 curve. A recycling queue's count stays at its warm-up value while
// an allocate-per-segment queue's grows with operations.
void print_allocation_table(const std::vector<Series>& series,
                            const std::vector<unsigned>& threads);
void print_cv_note(const std::vector<Series>& series);

// Machine-readable run report: drivers add one panel per table they print
// and write the whole thing when BenchParams::json_path is set (CI uploads
// the smoke-run reports as workflow artifacts).
class JsonReport {
 public:
  void add_panel(const std::string& caption, const BenchParams& p,
                 const std::vector<Series>& series);
  // Writes the collected panels; no-op when path is empty. Returns false
  // (with a note on stderr) if the file cannot be opened.
  bool write(const std::string& path) const;

 private:
  struct Panel {
    std::string caption;
    std::string workload;
    std::uint64_t ops = 0;
    unsigned runs = 0;
    std::vector<Series> series;
  };
  std::vector<Panel> panels_;
};

// Measure one adapter across the sweep (skipped if filtered out by --only).
template <typename Adapter>
void run_series(const BenchParams& p, std::vector<Series>& out) {
  if (!p.selected(Adapter::kName)) return;
  Series s;
  s.name = Adapter::kName;
  for (unsigned t : p.thread_counts) {
    std::fprintf(stderr, "  [%s] %u thread(s)...\n", Adapter::kName, t);
    s.points.push_back(measure_point<Adapter>(p, t));
  }
  out.push_back(std::move(s));
}

}  // namespace wcq::bench
