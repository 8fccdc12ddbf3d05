// GraphQueryMethod adapter over the paper's own engine, so the evaluation
// harness can run SGQ and TBQ through the same interface as the baselines.
#ifndef KGSEARCH_BASELINES_ADAPTERS_H_
#define KGSEARCH_BASELINES_ADAPTERS_H_

#include <string>

#include "baselines/method.h"
#include "core/engine.h"

namespace kgsearch {

/// SGQ (Section V), or TBQ (Section VI) when `options.time_bound` is set,
/// behind the common method interface. The label names the method in
/// reports (e.g. "TBQ-0.9" for a bound of 90% of SGQ's time).
class SgqMethod : public GraphQueryMethod {
 public:
  SgqMethod(MethodContext context, EngineOptions options,
            std::string label = "SGQ");

  std::string name() const override { return label_; }
  Result<std::vector<NodeId>> QueryTopK(const QueryGraph& query,
                                        int answer_node,
                                        size_t k) const override;

  const SgqEngine& engine() const { return engine_; }
  /// The options of later queries (e.g. a time bound the harness derives
  /// from SGQ's measured time per query).
  EngineOptions* mutable_options() { return &options_; }

 private:
  std::string label_;
  SgqEngine engine_;
  EngineOptions options_;
};

}  // namespace kgsearch

#endif  // KGSEARCH_BASELINES_ADAPTERS_H_
