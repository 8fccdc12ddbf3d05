#include "core/engine.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "core/time_bounded.h"
#include "util/thread_pool.h"

namespace kgsearch {

DecomposeOptions MakeDecomposeOptions(const GraphView& graph,
                                      PivotStrategy strategy, size_t n_hat,
                                      uint64_t seed) {
  DecomposeOptions dopts;
  dopts.strategy = strategy;
  dopts.avg_degree = graph.AverageDegree();
  dopts.n_hat = n_hat;
  dopts.seed = seed;
  return dopts;
}

std::vector<NodeId> ExtractAnswers(const std::vector<FinalMatch>& matches,
                                   const Decomposition& decomposition,
                                   int query_node) {
  // Locate the (sub-query, position) of the query node once.
  int sub = -1;
  size_t pos = 0;
  for (size_t i = 0; i < decomposition.subqueries.size(); ++i) {
    const auto& seq = decomposition.subqueries[i].node_seq;
    for (size_t j = 0; j < seq.size(); ++j) {
      if (seq[j] == query_node) {
        sub = static_cast<int>(i);
        pos = j;
        break;
      }
    }
    if (sub >= 0) break;
  }
  std::vector<NodeId> out;
  if (sub < 0) return out;
  std::unordered_set<NodeId> seen;
  for (const FinalMatch& m : matches) {
    KG_CHECK(static_cast<size_t>(sub) < m.parts.size());
    // Prefer the retained alternates (best-first) so non-pivot query nodes
    // yield every distinct match at this pivot, not just the top one.
    if (!m.alternates.empty() &&
        !m.alternates[static_cast<size_t>(sub)].empty()) {
      for (const PathMatch& alt : m.alternates[static_cast<size_t>(sub)]) {
        NodeId u = alt.MatchOfQueryNode(pos);
        if (seen.insert(u).second) out.push_back(u);
      }
    } else {
      NodeId u = m.parts[static_cast<size_t>(sub)].MatchOfQueryNode(pos);
      if (seen.insert(u).second) out.push_back(u);
    }
  }
  return out;
}

SgqEngine::SgqEngine(const KnowledgeGraph* graph, const PredicateSpace* space,
                     const TransformationLibrary* library, const Clock* clock)
    : graph_(graph), space_(space), matcher_(graph, library), clock_(clock) {
  KG_CHECK(space != nullptr && clock != nullptr);
}

Result<QueryResult> SgqEngine::Query(const QueryGraph& query,
                                     const EngineOptions& options) const {
  const GraphView view = options.view ? *options.view : GraphView(*graph_);
  Result<Decomposition> decomposition = DecomposeQuery(
      query, MakeDecomposeOptions(view, options.pivot_strategy,
                                  options.n_hat, options.seed));
  if (!decomposition.ok()) return decomposition.status();
  return QueryDecomposed(query, decomposition.ValueOrDie(), options);
}

double SgqEngine::AssemblyCostMicros(const TimeBound& bound) const {
  if (bound.per_match_assembly_micros > 0.0) {
    return bound.per_match_assembly_micros;
  }
  std::call_once(calibrate_once_, [this] {
    calibrated_micros_ = CalibrateAssemblyCostMicros(clock_);
  });
  return calibrated_micros_;
}

Result<QueryResult> SgqEngine::QueryDecomposed(
    const QueryGraph& query, const Decomposition& decomposition,
    const EngineOptions& options) const {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  const std::optional<TimeBound>& bound = options.time_bound;
  if (bound) {
    if (bound->micros <= 0) {
      return Status::InvalidArgument("time bound must be positive");
    }
    // Written to also reject NaN; above 1 the alert is never reached and
    // the "bounded" query would ignore T.
    if (!(bound->alert_ratio > 0.0 && bound->alert_ratio <= 1.0)) {
      return Status::InvalidArgument("alert_ratio must be in (0, 1]");
    }
  }
  // One interruption policy for the whole query: checked here (fail fast
  // when the request arrives already expired or revoked), polled inside
  // every sub-query search, and re-checked between retry rounds. It is a
  // hard wall, distinct from the soft time bound.
  auto interrupt = [cancel = options.cancel,
                    deadline = options.deadline_micros, clock = clock_]() {
    return CheckInterrupt(cancel, deadline, clock);
  };
  KG_RETURN_NOT_OK(interrupt());
  // The query's clock; with a time bound it is also Algorithm 3's elapsed
  // time, so T covers the whole call.
  StopWatch watch(clock_);

  QueryResult result;
  result.decomposition = decomposition;
  const size_t n = decomposition.subqueries.size();
  KG_CHECK(n > 0);

  // The whole query — resolution, search, answer extraction — reads one
  // view. With no pinned snapshot this is the base graph (epoch 0) and the
  // per-query matcher below is behaviorally identical to the engine's own.
  const GraphView view = options.view ? *options.view : GraphView(*graph_);
  NodeMatcher matcher(view, matcher_.library());
  matcher.set_candidate_cache(matcher_.candidate_cache());

  // Resolve every sub-query up front; resolution failures (mismatch in
  // query nodes/predicates, Figure 1) abort the query.
  std::vector<ResolvedSubQuery> resolved;
  resolved.reserve(n);
  for (const SubQueryGraph& sub : decomposition.subqueries) {
    Result<ResolvedSubQuery> r = ResolveSubQuery(query, sub, matcher);
    if (!r.ok()) return r.status();
    resolved.push_back(std::move(r).ValueOrDie());
  }

  AStarConfig config;
  config.tau = options.tau;
  config.n_hat = options.n_hat;
  config.max_expansions = options.max_expansions;
  config.dedup = options.dedup;
  config.max_matches_per_target = options.matches_per_target;
  config.stop_check_interval = options.stop_check_interval;
  if (options.cancel != nullptr || options.deadline_micros > 0) {
    config.interrupt = interrupt;
  }
  // A bounded query's searches are anytime searches, stopped together by
  // the estimator. No anytime match set reaches a SIZE_MAX budget, so the
  // retry test below ends the query after round 0.
  std::optional<TimeBoundEstimator> estimator;
  size_t budget = std::max<size_t>(options.budget_factor * options.k, 16);
  if (bound) {
    estimator.emplace(*bound, AssemblyCostMicros(*bound), n, &watch);
    config.anytime = true;
    config.anytime_match_cap = bound->match_cap;
    budget = SIZE_MAX;
  }

  // One search per sub-query for the whole query: a retry round continues
  // each search to the doubled budget instead of restarting it, which emits
  // exactly the matches and stats a fresh search at that budget would (see
  // core/astar_search.h), and appends to the same match set.
  std::vector<std::optional<AStarSearcher>> searches(n);
  std::vector<std::vector<PathMatch>> match_sets(n);
  result.subquery_stats.assign(n, SearchStats{});

  for (size_t round = 0; round <= options.max_retry_rounds; ++round) {
    // Every sub-query search advances in parallel.
    std::vector<Status> statuses(n, Status::OK());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      tasks.push_back([&, i] {
        if (!searches[i]) {
          AStarConfig search_config = config;
          if (estimator) {
            search_config.should_stop = [&estimator, i](size_t matches) {
              return estimator->ShouldStop(i, matches);
            };
          }
          Result<AStarSearcher> started =
              AStarSearcher::Start(view, *space_, resolved[i], search_config);
          if (!started.ok()) {
            statuses[i] = started.status();
            return;
          }
          searches[i].emplace(std::move(started).ValueOrDie());
        }
        statuses[i] = searches[i]->Continue(budget, &match_sets[i]);
        result.subquery_stats[i] = searches[i]->stats();
      });
    }
    if (options.executor != nullptr) {
      RunOnPool(options.executor, std::move(tasks));
    } else {
      size_t threads = options.threads == 0 ? n : options.threads;
      RunParallel(std::move(tasks), threads);
    }
    for (const Status& s : statuses) KG_RETURN_NOT_OK(s);

    Result<std::vector<FinalMatch>> assembled =
        AssembleTopK(match_sets, options.k, &result.ta_stats);
    if (!assembled.ok()) return assembled.status();
    result.matches = std::move(assembled).ValueOrDie();

    // Enough final matches, or no sub-query can supply more: done.
    bool any_search_truncated = false;
    for (size_t i = 0; i < n; ++i) {
      if (match_sets[i].size() >= budget) any_search_truncated = true;
    }
    if (result.matches.size() >= options.k || !any_search_truncated) break;
    KG_RETURN_NOT_OK(interrupt());
    budget *= 2;  // retry with a larger per-sub-query match budget
  }

  for (const SearchStats& s : result.subquery_stats) {
    if (s.stopped_early) result.stopped_by_time = true;
  }
  result.elapsed_ms = watch.ElapsedMillis();
  return result;
}

}  // namespace kgsearch
