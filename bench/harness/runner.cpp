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

}  // namespace

void print_throughput_table(const std::vector<Series>& series,
                            const std::vector<unsigned>& threads) {
  std::printf("threads");
  for (const auto& s : series) std::printf(",%s", s.name.c_str());
  std::printf("   (Mops/sec)\n");
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt != nullptr) {
        std::printf(",%.2f", pt->mops.mean);
      } else {
        std::printf(",-");
      }
    }
    std::printf("\n");
  }
}

void print_memory_table(const std::vector<Series>& series,
                        const std::vector<unsigned>& threads) {
  std::printf("threads");
  for (const auto& s : series) std::printf(",%s", s.name.c_str());
  std::printf("   (peak MB allocated during run)\n");
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt != nullptr) {
        std::printf(",%.2f", pt->peak_bytes.mean / 1e6);
      } else {
        std::printf(",-");
      }
    }
    std::printf("\n");
  }
}

void print_allocation_table(const std::vector<Series>& series,
                            const std::vector<unsigned>& threads) {
  std::printf("threads");
  for (const auto& s : series) std::printf(",%s", s.name.c_str());
  std::printf("   (allocations per run, count)\n");
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt != nullptr) {
        std::printf(",%.0f", pt->allocs.mean);
      } else {
        std::printf(",-");
      }
    }
    std::printf("\n");
  }
}

void print_ringops_table(const std::vector<Series>& series,
                         const std::vector<unsigned>& threads) {
  std::printf("threads");
  for (const auto& s : series) std::printf(",%s", s.name.c_str());
  std::printf("   (shared Head/Tail F&As per op)\n");
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt != nullptr) {
        std::printf(",%.3f", pt->ring_faa.mean);
      } else {
        std::printf(",-");
      }
    }
    std::printf("\n");
  }
}

void print_registry_table(const std::vector<Series>& series,
                          const std::vector<unsigned>& threads) {
  std::printf("threads");
  for (const auto& s : series) std::printf(",%s", s.name.c_str());
  std::printf("   (registry/thread_local lookups per op)\n");
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt != nullptr) {
        std::printf(",%.3f", pt->registry.mean);
      } else {
        std::printf(",-");
      }
    }
    std::printf("\n");
  }
}

void print_node_table(const std::vector<Series>& series,
                      const std::vector<unsigned>& threads) {
  std::printf("threads");
  for (const auto& s : series) {
    std::printf(",%s[node*|steals]", s.name.c_str());
  }
  std::printf("   (per-node Mops | remote steals per op)\n");
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt == nullptr) {
        std::printf(",-");
        continue;
      }
      std::printf(",");
      if (pt->node_mops.empty()) {
        std::printf("unpinned");
      } else {
        for (std::size_t k = 0; k < pt->node_mops.size(); ++k) {
          std::printf("%s%.2f", k == 0 ? "" : "/", pt->node_mops[k].mean);
        }
      }
      std::printf("|%.3f", pt->remote_steal.mean);
    }
    std::printf("\n");
  }
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
  panel.batch = p.batch;
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
                 "\"ops\": %llu, \"runs\": %u, \"batch\": %u,\n"
                 "     \"series\": [\n",
                 p.caption.c_str(), p.workload.c_str(),
                 static_cast<unsigned long long>(p.ops), p.runs, p.batch);
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
                     "\"allocs_mean\": %.1f, \"ring_faa_per_op_mean\": %.6f, "
                     "\"ring_thld_per_op_mean\": %.6f, "
                     "\"registry_per_op_mean\": %.6f, "
                     "\"remote_steal_per_op_mean\": %.6f, "
                     "\"node_mops_mean\": [",
                     pt.threads, pt.mops.mean, pt.mops.cv, pt.live_bytes.mean,
                     pt.peak_bytes.mean, pt.rss_bytes.mean, pt.allocs.mean,
                     pt.ring_faa.mean, pt.ring_thld.mean, pt.registry.mean,
                     pt.remote_steal.mean);
        for (std::size_t k = 0; k < pt.node_mops.size(); ++k) {
          std::fprintf(f, "%s%.6f", k == 0 ? "" : ", ",
                       pt.node_mops[k].mean);
        }
        std::fprintf(f, "]}%s\n", qi + 1 < s.points.size() ? "," : "");
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
