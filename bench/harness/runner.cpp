#include "harness/runner.hpp"

#include <cstddef>
#include <cstdio>

namespace wcq::bench {

void print_preamble(const char* figure, const char* caption,
                    const BenchParams& p) {
  std::printf("# %s — %s\n", figure, caption);
  std::printf("# workload=%s ops=%llu runs=%u pin=%d policy=%s\n",
              workload_name(p.workload),
              static_cast<unsigned long long>(p.ops), p.runs, p.pin ? 1 : 0,
              p.pin_policy.c_str());
  std::printf(
      "# (paper scale: WCQ_BENCH_FULL=1 or --full → 10 runs x 10M ops)\n");
}

namespace {

const PointResult* find_point(const Series& s, unsigned threads) {
  for (const auto& pt : s.points) {
    if (pt.threads == threads) return &pt;
  }
  return nullptr;
}

// One row per thread count, one column per series: `value` of each point,
// printed with `decimals` digits after the point.
void print_table(const std::vector<Series>& series,
                 const std::vector<unsigned>& threads, const char* unit,
                 int decimals, double (*value)(const PointResult&)) {
  std::printf("threads");
  for (const auto& s : series) std::printf(",%s", s.name.c_str());
  std::printf("   (%s)\n", unit);
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt != nullptr) {
        std::printf(",%.*f", decimals, value(*pt));
      } else {
        std::printf(",-");
      }
    }
    std::printf("\n");
  }
}

}  // namespace

void print_throughput_table(const std::vector<Series>& series,
                            const std::vector<unsigned>& threads) {
  print_table(series, threads, "Mops/sec", 2,
              [](const PointResult& pt) { return pt.mops.mean; });
}

void print_memory_table(const std::vector<Series>& series,
                        const std::vector<unsigned>& threads) {
  print_table(series, threads, "peak MB allocated during run", 2,
              [](const PointResult& pt) { return pt.peak_bytes.mean / 1e6; });
}

void print_allocation_table(const std::vector<Series>& series,
                            const std::vector<unsigned>& threads) {
  print_table(series, threads, "allocations per run, count", 0,
              [](const PointResult& pt) { return pt.allocs.mean; });
}

void print_cv_note(const std::vector<Series>& series) {
  double worst = 0.0;
  for (const auto& s : series) {
    for (const auto& pt : s.points) {
      if (pt.mops.cv > worst) worst = pt.mops.cv;
    }
  }
  std::printf("# worst coefficient of variation across points: %.4f%s\n",
              worst, worst < 0.01 ? " (<0.01, as in the paper)" : "");
}

void JsonReport::add_panel(const std::string& caption, const BenchParams& p,
                           const std::vector<Series>& series) {
  Panel panel;
  panel.caption = caption;
  panel.workload = workload_name(p.workload);
  panel.ops = p.ops;
  panel.runs = p.runs;
  panel.series = series;
  panels_.push_back(std::move(panel));
}

bool JsonReport::write(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReport: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"panels\": [\n");
  for (std::size_t pi = 0; pi < panels_.size(); ++pi) {
    const Panel& p = panels_[pi];
    std::fprintf(f,
                 "    {\"caption\": \"%s\", \"workload\": \"%s\", "
                 "\"ops\": %llu, \"runs\": %u,\n"
                 "     \"series\": [\n",
                 p.caption.c_str(), p.workload.c_str(),
                 static_cast<unsigned long long>(p.ops), p.runs);
    for (std::size_t si = 0; si < p.series.size(); ++si) {
      const Series& s = p.series[si];
      std::fprintf(f, "      {\"name\": \"%s\", \"points\": [\n",
                   s.name.c_str());
      for (std::size_t qi = 0; qi < s.points.size(); ++qi) {
        const PointResult& pt = s.points[qi];
        std::fprintf(f,
                     "        {\"threads\": %u, \"mops_mean\": %.6f, "
                     "\"mops_cv\": %.6f, \"live_bytes_mean\": %.1f, "
                     "\"peak_bytes_mean\": %.1f, \"rss_bytes_mean\": %.1f, "
                     "\"allocs_mean\": %.1f}%s\n",
                     pt.threads, pt.mops.mean, pt.mops.cv, pt.live_bytes.mean,
                     pt.peak_bytes.mean, pt.rss_bytes.mean, pt.allocs.mean,
                     qi + 1 < s.points.size() ? "," : "");
      }
      std::fprintf(f, "      ]}%s\n",
                   si + 1 < p.series.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", pi + 1 < panels_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "JsonReport: wrote %s\n", path.c_str());
  return true;
}

}  // namespace wcq::bench
