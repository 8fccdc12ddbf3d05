// Seed-reproducible ingest batches for the live-ingest phase.
#ifndef KGSEARCH_PERFBENCH_INGEST_STREAM_H_
#define KGSEARCH_PERFBENCH_INGEST_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/protocol.h"
#include "kg/delta_overlay.h"
#include "kg/graph.h"

namespace kgsearch::perfbench {

/// `num_batches` batches of `ops_per_batch` ops against `base`: retracts of
/// base triples, adds between existing nodes over base predicates, and adds
/// that attach a new node to an existing one. Every op is valid in the state
/// the earlier batches leave, compactions in between included (a base
/// triple is retracted at most once and nothing the stream added is
/// retracted), so no commit fails.
std::vector<IngestRequest> MakeIngestBatches(const KnowledgeGraph& base,
                                             const std::string& dataset,
                                             size_t num_batches,
                                             size_t ops_per_batch,
                                             uint64_t seed);

/// The same ops as a MutationBatch, for a DeltaOverlay the benchmark owns.
MutationBatch ToMutationBatch(const IngestRequest& request);

}  // namespace kgsearch::perfbench

#endif  // KGSEARCH_PERFBENCH_INGEST_STREAM_H_
