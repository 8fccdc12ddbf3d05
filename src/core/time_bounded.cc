#include "core/time_bounded.h"

#include <algorithm>

#include "util/rng.h"

namespace kgsearch {

TimeBoundEstimator::TimeBoundEstimator(const TimeBound& bound,
                                       double per_match_micros,
                                       size_t num_searches,
                                       const StopWatch* watch)
    : alert_micros_(static_cast<double>(bound.micros) * bound.alert_ratio),
      per_match_micros_(per_match_micros),
      watch_(watch),
      match_counts_(num_searches) {}

bool TimeBoundEstimator::ShouldStop(size_t search, size_t matches_so_far) {
  match_counts_[search].store(matches_so_far, std::memory_order_relaxed);
  if (stop_all_.load(std::memory_order_relaxed)) return true;
  size_t total_matches = 0;
  for (const auto& c : match_counts_) {
    total_matches += c.load(std::memory_order_relaxed);
  }
  const double elapsed = static_cast<double>(watch_->ElapsedMicros());
  const double estimate =
      elapsed + static_cast<double>(total_matches) * per_match_micros_;
  if (estimate >= alert_micros_) {
    stop_all_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

double SgqEngine::CalibrateAssemblyCostMicros(const Clock* clock) {
  // Simulated TA assembly over synthetic match sets, as Algorithm 3's
  // empirical estimate of t. 2 sets x 2048 matches with disjoint-ish pivots
  // force a full scan, which is the worst case the estimator must cover.
  constexpr size_t kSets = 2;
  constexpr size_t kPerSet = 2048;
  Rng rng(7);
  std::vector<std::vector<PathMatch>> sets(kSets);
  for (size_t i = 0; i < kSets; ++i) {
    sets[i].reserve(kPerSet);
    double pss = 0.999;
    for (size_t j = 0; j < kPerSet; ++j) {
      PathMatch m;
      NodeId pivot = static_cast<NodeId>(rng.UniformIndex(kPerSet * 2));
      m.nodes = {0, pivot};
      m.predicates = {0};
      m.weights = {pss};
      m.pss = pss;
      pss *= 0.9995;
      sets[i].push_back(std::move(m));
    }
  }
  StopWatch watch(clock);
  TaStats stats;
  Result<std::vector<FinalMatch>> r = AssembleTopK(sets, 16, &stats);
  KG_CHECK(r.ok());
  int64_t elapsed = watch.ElapsedMicros();
  if (stats.sorted_accesses == 0 || elapsed <= 0) return 1.0;  // manual clock
  return std::max(0.05, static_cast<double>(elapsed) /
                            static_cast<double>(stats.sorted_accesses));
}

}  // namespace kgsearch
