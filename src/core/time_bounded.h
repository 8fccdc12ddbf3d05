// Algorithm 3 of the paper: the synchronized time estimator that turns the
// SGQ pipeline into a response-time-bounded query (TBQ, Problem 2,
// Section VI).
//
// A bounded query (EngineOptions::time_bound, core/engine.h) runs every
// sub-query as an anytime A* search (Algorithm 2), collecting a non-optimal
// match set M̂i as matches are generated. The estimator
//   T̂ = max{T_A*} + Σ|M̂i|·t
// stops all searches once T̂ reaches the alert threshold T·r%, after which
// the TA assembly produces the approximate final matches M̂. Quality is
// monotone in T (Lemmas 6-7, Theorem 4): given enough time, M̂ = M.
//
// The empirical per-match assembly cost t is measured by timing a simulated
// assembly (SgqEngine::CalibrateAssemblyCostMicros, defined here); an
// engine measures it once and reuses it.
#ifndef KGSEARCH_CORE_TIME_BOUNDED_H_
#define KGSEARCH_CORE_TIME_BOUNDED_H_

#include <atomic>
#include <vector>

#include "core/engine.h"
#include "util/clock.h"

namespace kgsearch {

/// Algorithm 3's estimator over the n searches of one bounded query. Each
/// search publishes its |M̂i| when it polls; once
///   elapsed + (Σ|M̂i|)·t  >=  T·r%
/// the estimator latches and every search stops at its next poll. The
/// searches run concurrently, so the query's elapsed wall time stands in
/// for max{T_A*}; run sequentially (threads = 1) it equals Σ T_A*, which
/// is only more conservative. ShouldStop may be called from all searches
/// at once.
class TimeBoundEstimator {
 public:
  /// `watch` is the query's own clock and must outlive the estimator.
  TimeBoundEstimator(const TimeBound& bound, double per_match_micros,
                     size_t num_searches, const StopWatch* watch);

  /// Publishes that search `search` holds `matches_so_far` matches and
  /// returns whether every search should stop now.
  bool ShouldStop(size_t search, size_t matches_so_far);

 private:
  const double alert_micros_;
  const double per_match_micros_;
  const StopWatch* watch_;
  std::vector<std::atomic<size_t>> match_counts_;
  std::atomic<bool> stop_all_{false};
};

/// The benchmark driver (perfbench/driver.cc) names
/// TbqEngine::CalibrateAssemblyCostMicros; this alias exists only so it
/// keeps compiling. Everything else uses SgqEngine.
using TbqEngine = SgqEngine;

}  // namespace kgsearch

#endif  // KGSEARCH_CORE_TIME_BOUNDED_H_
