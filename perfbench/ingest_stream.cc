#include "ingest_stream.h"

#include <unordered_set>

#include "util/rng.h"
#include "util/string_util.h"

namespace kgsearch::perfbench {

std::vector<IngestRequest> MakeIngestBatches(const KnowledgeGraph& base,
                                             const std::string& dataset,
                                             size_t num_batches,
                                             size_t ops_per_batch,
                                             uint64_t seed) {
  FastRng rng(MixSeed(seed, 0x16E57));
  const std::vector<Triple>& triples = base.triples();
  const size_t num_nodes = base.NumNodes();
  const size_t num_predicates = base.NumPredicates();
  std::unordered_set<size_t> retracted;
  size_t new_nodes = 0;
  std::vector<IngestRequest> batches(num_batches);
  for (IngestRequest& batch : batches) {
    batch.dataset = dataset;
    batch.ops.reserve(ops_per_batch);
    for (size_t i = 0; i < ops_per_batch; ++i) {
      IngestOpDto op;
      const double kind = rng.UniformReal();
      if (kind < 0.4 && retracted.size() < triples.size() / 2) {
        size_t t = rng.UniformIndex(triples.size());
        while (!retracted.insert(t).second) {
          t = rng.UniformIndex(triples.size());
        }
        op.retract = true;
        op.head = std::string(base.NodeName(triples[t].head));
        op.predicate = std::string(base.PredicateName(triples[t].predicate));
        op.tail = std::string(base.NodeName(triples[t].tail));
      } else {
        const auto node = static_cast<NodeId>(rng.UniformIndex(num_nodes));
        const auto other = static_cast<NodeId>(rng.UniformIndex(num_nodes));
        const auto predicate =
            static_cast<PredicateId>(rng.UniformIndex(num_predicates));
        op.predicate = std::string(base.PredicateName(predicate));
        op.tail = std::string(base.NodeName(other));
        if (kind < 0.7) {
          op.head = std::string(base.NodeName(node));
        } else {
          op.head = StrFormat("perfbench-node-%llu-%zu",
                              static_cast<unsigned long long>(seed),
                              new_nodes++);
          op.head_type = std::string(base.NodeTypeName(node));
        }
      }
      batch.ops.push_back(std::move(op));
    }
  }
  return batches;
}

MutationBatch ToMutationBatch(const IngestRequest& request) {
  MutationBatch batch;
  batch.ops.reserve(request.ops.size());
  for (const IngestOpDto& op : request.ops) {
    batch.ops.push_back(
        op.retract ? Mutation::Retract(op.head, op.predicate, op.tail)
                   : Mutation::Add(op.head, op.predicate, op.tail,
                                   op.head_type, op.tail_type));
  }
  return batch;
}

}  // namespace kgsearch::perfbench
