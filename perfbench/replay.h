// Serial replay of one SGQ request through the core stage functions, with a
// span around each call: DecomposeQuery, ResolveSubQuery, SemanticWeights
// construction, AStarSearch per sub-query and retry round, AssembleTopK.
// It follows SgqEngine::QueryDecomposed and the EngineOptions defaults,
// doubling retry loop included, so its answers must equal the served ones.
#ifndef KGSEARCH_PERFBENCH_REPLAY_H_
#define KGSEARCH_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "kg/graph_view.h"
#include "trace.h"

namespace kgsearch::perfbench {

/// (answer id, score) in rank order: the bit-identity key for answers.
using Fingerprint = std::vector<std::pair<uint32_t, double>>;

/// Status code and answers of one replayed request.
struct ReplayResult {
  StatusCode code = StatusCode::kOk;
  Fingerprint answers;
};

/// Span names and their counters:
///   replay          root span of one request
///   core.decompose
///   core.resolve    counts[0] = sub-query index
///   core.weights    counts[0] = sub-query index
///   core.astar      counts = {round, sub-query, expanded, pushed,
///                             materialized, goals}; counts of pops go in
///                             the round's core.ta span
///   core.ta         counts = {round, sorted accesses, early terminated,
///                             pops summed over the round's searches}
ReplayResult ReplaySgq(const GraphView& view, const PredicateSpace& space,
                       const TransformationLibrary& library,
                       const QueryGraph& query, const EngineOptions& options,
                       uint32_t request, Trace* trace);

}  // namespace kgsearch::perfbench

#endif  // KGSEARCH_PERFBENCH_REPLAY_H_
