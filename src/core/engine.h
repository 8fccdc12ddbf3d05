// SgqEngine: the query pipeline for both problems of the paper.
//
// Pipeline: decompose the query graph into sub-query path graphs (Eq. 1),
// resolve each against the node-match relation, run one A* semantic search
// per sub-query (in parallel), and assemble the final top-k matches at the
// pivot with the threshold algorithm.
//
// The time bound is the only fork. Without one the engine answers Problem 1
// (SGQ, Section V): each search emits a budget of optimal matches, and a
// round that assembles fewer than k answers while some search was cut off
// by that budget continues every search to double the budget. With
// EngineOptions::time_bound set it answers Problem 2 (TBQ, Section VI): the
// searches run in anytime mode (Algorithm 2), collecting matches when they
// are generated, until Algorithm 3's estimator (core/time_bounded.h) stops
// them all; one assembly over the collected matches gives the approximate
// top-k. Given enough time the two answers are equal (Lemma 7).
#ifndef KGSEARCH_CORE_ENGINE_H_
#define KGSEARCH_CORE_ENGINE_H_

#include <mutex>
#include <optional>
#include <vector>

#include "core/astar_search.h"
#include "core/query_graph.h"
#include "core/ta_assembly.h"
#include "embedding/predicate_space.h"
#include "match/node_matcher.h"
#include "util/cancel.h"
#include "util/clock.h"

namespace kgsearch {

class ThreadPool;  // util/thread_pool.h; only a pointer is stored here

/// The time bound of a TBQ query (Problem 2, Section VI).
struct TimeBound {
  /// User-specified time bound T, in microseconds; must be positive. It
  /// covers the whole engine call, from the first resolution step on.
  int64_t micros = 100'000;
  /// Alert ratio r% in (0, 1] (the paper uses 80%): the searches stop and
  /// assembly starts once the estimated total time reaches T·r%.
  double alert_ratio = 0.8;
  /// Empirical per-match TA assembly cost t, in microseconds. <= 0 means
  /// the engine's own measurement of a simulated assembly (the paper's
  /// approach), taken once, on the first bounded query that needs it.
  double per_match_assembly_micros = -1.0;
  /// Cap on matches retained per sub-query (best kept); 0 = unlimited.
  size_t match_cap = 0;
};

/// Tuning knobs for one query. `budget_factor`, `max_retry_rounds` and
/// `matches_per_target` apply to SGQ only: a bounded search collects every
/// match it generates, in one round.
struct EngineOptions {
  size_t k = 10;           ///< final top-k
  double tau = 0.8;        ///< pss threshold τ
  size_t n_hat = 4;        ///< desired hops per query edge n̂
  size_t threads = 0;      ///< 0 = one per sub-query (ignored with executor)
  /// Non-owning shared executor. When set, sub-query searches run as a
  /// caller-participating batch on this pool (RunOnPool) instead of
  /// spawning per-query threads; many concurrent queries can then share one
  /// process-wide pool. Results are identical either way: each sub-query
  /// search is deterministic and writes to its own slot. Under a tight time
  /// bound the stop decision depends on real interleaving, so only
  /// generously bounded runs are reproducible across executors.
  ThreadPool* executor = nullptr;
  PivotStrategy pivot_strategy = PivotStrategy::kMinCost;
  uint64_t seed = 42;      ///< used by kRandom pivot selection
  /// Collect budget_factor*k matches per sub-query before assembly (the
  /// paper's "more than k matches collected for each gi" remark).
  size_t budget_factor = 3;
  /// When assembly yields < k final matches, re-run sub-queries with a
  /// doubled budget up to this many extra rounds.
  size_t max_retry_rounds = 2;
  /// Safety valve per A* search; 0 = unlimited.
  uint64_t max_expansions = 4'000'000;
  /// Partial-path de-duplication discipline (Algorithm 1 vs. exact states).
  DedupMode dedup = DedupMode::kPaperNodeVisited;
  /// Sub-query matches emitted per distinct target node (> 1 needs
  /// kExactState); raise when answers are read off a non-pivot query node.
  size_t matches_per_target = 1;
  /// Set: a time-bounded query (TBQ, Problem 2). Unset: SGQ (Problem 1).
  std::optional<TimeBound> time_bound;
  /// Absolute per-request deadline on the engine's clock (the scale of
  /// Clock::NowMicros); 0 = none. Callers with a relative budget convert
  /// via DeadlineFromNowMs at admission time, so queue wait counts. An
  /// expired query aborts between node expansions with kDeadlineExceeded.
  /// Unlike the time bound — the paper's soft budget, which stops the
  /// searches gracefully and assembles a partial answer — the deadline is
  /// a hard wall: expiry returns no result.
  int64_t deadline_micros = 0;
  /// Pops between polls inside each A* search: of the deadline and
  /// cancellation (the abort latency knob; only consulted when a deadline
  /// or token is set) and of the time-bound estimator.
  size_t stop_check_interval = 64;
  /// Cooperative cancellation; non-owning, may be null, must outlive the
  /// query. Cancel() makes the query abort between node expansions with
  /// kCancelled. A deadline/cancel that never fires leaves the search
  /// bit-identical to an unconstrained run.
  const CancelToken* cancel = nullptr;
  /// Pinned snapshot view to run the query against (live-ingest serving:
  /// base graph + one delta epoch). Null = the engine's own base graph.
  /// Non-owning; the caller keeps the view (and the snapshot it pins)
  /// alive for the duration of the call. The view's base must be the
  /// engine's graph — the engine's predicate space and matcher library
  /// are interpreted against it.
  const GraphView* view = nullptr;
};

/// Everything produced by one query execution.
struct QueryResult {
  std::vector<FinalMatch> matches;       ///< descending score
  Decomposition decomposition;
  std::vector<SearchStats> subquery_stats;
  TaStats ta_stats;
  double elapsed_ms = 0.0;
  /// True when the time bound stopped at least one search early; false
  /// means every search ran to exhaustion (M̂ = M territory, Lemma 7).
  /// Always false without a time bound.
  bool stopped_by_time = false;

  /// Convenience: the answer entities (pivot node matches), in rank order.
  std::vector<NodeId> AnswerIds() const {
    std::vector<NodeId> out;
    out.reserve(matches.size());
    for (const FinalMatch& m : matches) out.push_back(m.pivot_match);
    return out;
  }
};

/// Decomposition knobs implied by engine options over a concrete graph.
/// Both SgqEngine::Query and the serving layer's decomposition cache derive
/// their DecomposeQuery call from this one mapping, so a cached
/// decomposition is bit-identical to a freshly computed one.
DecomposeOptions MakeDecomposeOptions(const GraphView& graph,
                                      PivotStrategy strategy, size_t n_hat,
                                      uint64_t seed);

/// Extracts the KG matches of query node `query_node` from final matches,
/// deduplicated and in rank order. Works for any query node covered by the
/// decomposition (the pivot is just `FinalMatch::pivot_match`).
std::vector<NodeId> ExtractAnswers(const std::vector<FinalMatch>& matches,
                                   const Decomposition& decomposition,
                                   int query_node);

/// Facade tying graph, predicate space, and node matching together.
/// Queries are const and may run concurrently.
class SgqEngine {
 public:
  /// All pointers must outlive the engine. The clock is injectable so the
  /// time-bound guarantees are testable with a ManualClock.
  SgqEngine(const KnowledgeGraph* graph, const PredicateSpace* space,
            const TransformationLibrary* library,
            const Clock* clock = SystemClock::Default());

  /// Runs the full pipeline on `query` (SGQ, or TBQ with a time bound).
  Result<QueryResult> Query(const QueryGraph& query,
                            const EngineOptions& options) const;

  /// Runs with a caller-supplied decomposition (pivot experiments of
  /// Section VII-C force a particular pivot; the serving layer passes a
  /// cached plan).
  Result<QueryResult> QueryDecomposed(const QueryGraph& query,
                                      const Decomposition& decomposition,
                                      const EngineOptions& options) const;

  const KnowledgeGraph& graph() const { return *graph_; }
  const PredicateSpace& space() const { return *space_; }
  const NodeMatcher& matcher() const { return matcher_; }
  /// For pre-serving configuration (e.g. installing a shared candidate
  /// cache); must not be called while queries are in flight.
  NodeMatcher* mutable_matcher() { return &matcher_; }

  /// Measures the per-match TA assembly cost t on this machine by timing a
  /// simulated assembly (Algorithm 3's "empirical time"); 1.0 under a
  /// clock that does not advance. Defined in core/time_bounded.cc.
  static double CalibrateAssemblyCostMicros(const Clock* clock);

 private:
  /// t for `bound`: its own value when set, else this engine's one
  /// calibration, measured on first use.
  double AssemblyCostMicros(const TimeBound& bound) const;

  const KnowledgeGraph* graph_;
  const PredicateSpace* space_;
  NodeMatcher matcher_;
  const Clock* clock_;
  mutable std::once_flag calibrate_once_;
  mutable double calibrated_micros_ = 0.0;
};

}  // namespace kgsearch

#endif  // KGSEARCH_CORE_ENGINE_H_
