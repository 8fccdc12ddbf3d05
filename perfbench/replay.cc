#include "replay.h"

#include <algorithm>

#include "core/semantic_weights.h"

namespace kgsearch::perfbench {

ReplayResult ReplaySgq(const GraphView& view, const PredicateSpace& space,
                       const TransformationLibrary& library,
                       const QueryGraph& query, const EngineOptions& options,
                       uint32_t request, Trace* trace) {
  ReplayResult out;
  const int32_t root = trace->Begin("replay", request);
  const auto fail = [&](const Status& status) {
    trace->End(root);
    out.code = status.code();
    return out;
  };

  int32_t span = trace->Begin("core.decompose", request, root);
  Result<Decomposition> decomposition = DecomposeQuery(
      query, MakeDecomposeOptions(view, options.pivot_strategy, options.n_hat,
                                  options.seed));
  trace->End(span);
  if (!decomposition.ok()) return fail(decomposition.status());
  const std::vector<SubQueryGraph>& subs =
      decomposition.ValueOrDie().subqueries;
  const size_t n = subs.size();

  NodeMatcher matcher(view, &library);
  std::vector<ResolvedSubQuery> resolved;
  resolved.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    span = trace->Begin("core.resolve", request, root);
    trace->at(span).counts[0] = static_cast<int64_t>(i);
    Result<ResolvedSubQuery> r = ResolveSubQuery(query, subs[i], matcher);
    trace->End(span);
    if (!r.ok()) return fail(r.status());
    resolved.push_back(std::move(r).ValueOrDie());
  }
  // AStarSearch builds its own SemanticWeights; this separate construction
  // times that setup on its own.
  for (size_t i = 0; i < n; ++i) {
    span = trace->Begin("core.weights", request, root);
    trace->at(span).counts[0] = static_cast<int64_t>(i);
    const SemanticWeights weights(view, &space, &resolved[i]);
    trace->End(span);
  }

  size_t budget = std::max<size_t>(options.budget_factor * options.k, 16);
  std::vector<FinalMatch> matches;
  for (size_t round = 0; round <= options.max_retry_rounds; ++round) {
    std::vector<std::vector<PathMatch>> match_sets(n);
    int64_t pops = 0;
    for (size_t i = 0; i < n; ++i) {
      AStarConfig config;
      config.k = budget;
      config.tau = options.tau;
      config.n_hat = options.n_hat;
      config.max_expansions = options.max_expansions;
      config.dedup = options.dedup;
      config.max_matches_per_target = options.matches_per_target;
      SearchStats stats;
      span = trace->Begin("core.astar", request, root);
      Result<std::vector<PathMatch>> r =
          AStarSearch(view, space, resolved[i], config, &stats);
      trace->End(span);
      trace->at(span).counts = {static_cast<int64_t>(round),
                                static_cast<int64_t>(i),
                                static_cast<int64_t>(stats.expanded),
                                static_cast<int64_t>(stats.pushed),
                                static_cast<int64_t>(stats.materialized_nodes),
                                static_cast<int64_t>(stats.goals_emitted)};
      pops += static_cast<int64_t>(stats.popped);
      if (!r.ok()) return fail(r.status());
      match_sets[i] = std::move(r).ValueOrDie();
    }
    TaStats ta;
    span = trace->Begin("core.ta", request, root);
    Result<std::vector<FinalMatch>> assembled =
        AssembleTopK(match_sets, options.k, &ta);
    trace->End(span);
    trace->at(span).counts[0] = static_cast<int64_t>(round);
    trace->at(span).counts[1] = static_cast<int64_t>(ta.sorted_accesses);
    trace->at(span).counts[2] = ta.early_terminated ? 1 : 0;
    trace->at(span).counts[3] = pops;
    if (!assembled.ok()) return fail(assembled.status());
    matches = std::move(assembled).ValueOrDie();

    bool any_search_truncated = false;
    for (const auto& set : match_sets) {
      if (set.size() >= budget) any_search_truncated = true;
    }
    if (matches.size() >= options.k || !any_search_truncated) break;
    budget *= 2;
  }
  trace->End(root);
  for (const FinalMatch& m : matches) {
    out.answers.emplace_back(m.pivot_match, m.score);
  }
  return out;
}

}  // namespace kgsearch::perfbench
