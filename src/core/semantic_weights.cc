#include "core/semantic_weights.h"

#include <algorithm>

namespace kgsearch {

SemanticWeights::SemanticWeights(const GraphView& graph,
                                 const PredicateSpace* space,
                                 const ResolvedSubQuery* subquery)
    : graph_(graph) {
  KG_CHECK(space != nullptr && subquery != nullptr);
  const size_t num_preds = graph.NumPredicates();
  const size_t stages = subquery->Length();
  KG_CHECK(space->NumPredicates() >= num_preds);

  rows_.resize(stages);
  for (size_t s = 0; s < stages; ++s) {
    rows_[s].resize(num_preds);
    PredicateId q = subquery->edge_predicates[s];
    // One contiguous pass over the SoA block per stage; bitwise-identical
    // to the per-pair Weight() loop it replaces.
    space->WeightRow(q, num_preds, rows_[s].data());
  }
  // Suffix maxima over stages, so m(u) can bound "any remaining stage".
  rowmax_.assign(stages, std::vector<double>(num_preds, kMinWeight));
  for (size_t s = stages; s-- > 0;) {
    for (PredicateId p = 0; p < num_preds; ++p) {
      double v = rows_[s][p];
      if (s + 1 < stages) v = std::max(v, rowmax_[s + 1][p]);
      rowmax_[s][p] = v;
    }
  }
}

double SemanticWeights::MaxAdjacentWeight(NodeId u, size_t stage) const {
  KG_CHECK(stage < rowmax_.size());
  const std::vector<double>& row = rowmax_[stage];
  double m = kMinWeight;
  for (PredicateId p : graph_.DistinctPredicates(u)) {
    m = std::max(m, row[p]);
    if (m >= 1.0) break;
  }
  return m;
}

}  // namespace kgsearch
