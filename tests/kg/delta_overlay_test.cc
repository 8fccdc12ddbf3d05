// DeltaOverlay protocol tests: epoch publication, snapshot pinning (RCU
// semantics), all-or-nothing batches, retraction/un-retraction bookkeeping,
// the retire/reopen compaction handshake, and FoldDelta's byte-identity
// guarantee (folded graph == same-recipe from-scratch graph, kgpack and
// all).
#include "kg/delta_overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "embedding/predicate_space.h"
#include "kg/snapshot.h"
#include "match/transformation_library.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgsearch {
namespace {

std::unique_ptr<KnowledgeGraph> MakeBase() {
  auto graph = std::make_unique<KnowledgeGraph>();
  KnowledgeGraph& g = *graph;
  NodeId a = g.AddNode("A", "Person");
  NodeId b = g.AddNode("B", "Person");
  NodeId c = g.AddNode("C", "City");
  g.AddEdge(a, "knows", b);
  g.AddEdge(b, "lives_in", c);
  g.Finalize();
  return graph;
}

MutationBatch One(Mutation op) {
  MutationBatch batch;
  batch.ops.push_back(std::move(op));
  return batch;
}

TEST(DeltaOverlayTest, EpochZeroBeforeFirstCommit) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());
  EXPECT_EQ(overlay.epoch(), 0u);
  EXPECT_EQ(overlay.Snapshot(), nullptr);
  EXPECT_FALSE(overlay.retired());
}

TEST(DeltaOverlayTest, CommitsPublishMonotoneEpochs) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());

  Result<uint64_t> first =
      overlay.Commit(One(Mutation::Add("D", "knows", "A")));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie(), 1u);
  Result<uint64_t> second =
      overlay.Commit(One(Mutation::Add("E", "knows", "A")));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie(), 2u);
  EXPECT_EQ(overlay.epoch(), 2u);
}

TEST(DeltaOverlayTest, PinnedSnapshotIsImmutableAcrossLaterCommits) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());
  ASSERT_TRUE(overlay.Commit(One(Mutation::Add("D", "knows", "A"))).ok());

  std::shared_ptr<const DeltaSnapshot> pinned = overlay.Snapshot();
  ASSERT_NE(pinned, nullptr);
  const size_t edges_at_pin = pinned->num_edges;

  ASSERT_TRUE(overlay.Commit(One(Mutation::Add("E", "knows", "B"))).ok());
  ASSERT_TRUE(
      overlay.Commit(One(Mutation::Retract("A", "knows", "B"))).ok());

  // The reader's world has not moved: same epoch, same merged sizes.
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned->num_edges, edges_at_pin);
  const GraphView view(base.get(), pinned.get());
  EXPECT_EQ(view.FindNode("E"), kInvalidNode);
  EXPECT_TRUE(view.HasTriple(view.FindNode("A"),
                             view.FindPredicate("knows"),
                             view.FindNode("B")));
}

TEST(DeltaOverlayTest, FailedBatchIsAllOrNothing) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());

  MutationBatch batch;
  batch.ops.push_back(Mutation::Add("D", "knows", "A"));           // valid
  batch.ops.push_back(Mutation::Retract("A", "knows", "nobody"));  // invalid
  Result<uint64_t> result = overlay.Commit(batch);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);

  // Nothing of the batch is visible — not even the valid first op.
  EXPECT_EQ(overlay.epoch(), 0u);
  EXPECT_EQ(overlay.Snapshot(), nullptr);
}

TEST(DeltaOverlayTest, EmptyBatchIsRejected) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());
  EXPECT_EQ(overlay.Commit(MutationBatch{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaOverlayTest, AddIsIdempotentAndReAddUnRetracts) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());

  // Adding an existing base triple changes nothing (but still commits).
  ASSERT_TRUE(overlay.Commit(One(Mutation::Add("A", "knows", "B"))).ok());
  std::shared_ptr<const DeltaSnapshot> s1 = overlay.Snapshot();
  EXPECT_EQ(s1->num_edges, base->NumEdges());
  EXPECT_TRUE(s1->added.empty());

  // Retract a base triple, then add it back: the net delta is empty.
  ASSERT_TRUE(
      overlay.Commit(One(Mutation::Retract("A", "knows", "B"))).ok());
  ASSERT_TRUE(overlay.Commit(One(Mutation::Add("A", "knows", "B"))).ok());
  std::shared_ptr<const DeltaSnapshot> s3 = overlay.Snapshot();
  EXPECT_TRUE(s3->added.empty());
  EXPECT_TRUE(s3->retracted.empty());
  EXPECT_EQ(s3->num_edges, base->NumEdges());
}

TEST(DeltaOverlayTest, BatchOpsSeeEachOther) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());

  // Op 1 creates the node op 2 links to; op 3 retracts op 1's triple again.
  MutationBatch batch;
  batch.ops.push_back(Mutation::Add("D", "knows", "A", "Person"));
  batch.ops.push_back(Mutation::Add("D", "lives_in", "C"));
  batch.ops.push_back(Mutation::Retract("D", "knows", "A"));
  ASSERT_TRUE(overlay.Commit(batch).ok());

  std::shared_ptr<const DeltaSnapshot> pinned = overlay.Snapshot();
  const GraphView view(base.get(), pinned.get());
  const NodeId d = view.FindNode("D");
  ASSERT_NE(d, kInvalidNode);
  EXPECT_TRUE(
      view.HasTriple(d, view.FindPredicate("lives_in"), view.FindNode("C")));
  EXPECT_FALSE(
      view.HasTriple(d, view.FindPredicate("knows"), view.FindNode("A")));
}

TEST(DeltaOverlayTest, RetireStopsWritesAndReopenResumesThem) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());
  ASSERT_TRUE(overlay.Commit(One(Mutation::Add("D", "knows", "A"))).ok());

  std::shared_ptr<const DeltaSnapshot> final_delta = overlay.Retire();
  ASSERT_NE(final_delta, nullptr);
  EXPECT_EQ(final_delta->epoch, 1u);
  EXPECT_TRUE(overlay.retired());
  EXPECT_EQ(overlay.Commit(One(Mutation::Add("E", "knows", "A")))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Reads keep working on a retired overlay.
  EXPECT_EQ(overlay.Snapshot()->epoch, 1u);

  overlay.Reopen();
  EXPECT_FALSE(overlay.retired());
  EXPECT_TRUE(overlay.Commit(One(Mutation::Add("E", "knows", "A"))).ok());
  EXPECT_EQ(overlay.epoch(), 2u);
}

// ----- FoldDelta -----

/// A predicate space with a deterministic unit vector per predicate, enough
/// for EncodeSnapshot's coverage check.
std::unique_ptr<PredicateSpace> MakeSpace(const KnowledgeGraph& graph) {
  std::vector<FloatVec> vectors(graph.NumPredicates());
  std::vector<std::string> names(graph.NumPredicates());
  for (PredicateId p = 0; p < graph.NumPredicates(); ++p) {
    const double angle = 0.1 * static_cast<double>(p);
    vectors[p] = FloatVec{static_cast<float>(std::cos(angle)),
                          static_cast<float>(std::sin(angle))};
    names[p] = std::string(graph.PredicateName(p));
  }
  return std::make_unique<PredicateSpace>(std::move(vectors),
                                          std::move(names));
}

TEST(FoldDeltaTest, NullDeltaReproducesTheBaseByteIdentically) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  Result<std::unique_ptr<KnowledgeGraph>> folded =
      FoldDelta(*base, nullptr);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();

  std::unique_ptr<PredicateSpace> space = MakeSpace(*base);
  TransformationLibrary library;
  Result<std::string> original = EncodeSnapshot(*base, *space, library);
  Result<std::string> refolded =
      EncodeSnapshot(*folded.ValueOrDie(), *space, library);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(refolded.ok());
  EXPECT_EQ(original.ValueOrDie(), refolded.ValueOrDie());
}

TEST(FoldDeltaTest, FoldMatchesFromScratchBuildByteIdentically) {
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());

  MutationBatch batch1;
  batch1.ops.push_back(Mutation::Add("D", "knows", "A", "Person"));
  batch1.ops.push_back(Mutation::Add("D", "lives_in", "C"));
  ASSERT_TRUE(overlay.Commit(batch1).ok());
  MutationBatch batch2;
  batch2.ops.push_back(Mutation::Retract("B", "lives_in", "C"));
  batch2.ops.push_back(Mutation::Add("E", "knows", "D", "Person"));
  ASSERT_TRUE(overlay.Commit(batch2).ok());

  std::shared_ptr<const DeltaSnapshot> pinned = overlay.Snapshot();
  Result<std::unique_ptr<KnowledgeGraph>> folded =
      FoldDelta(*base, pinned.get());
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();

  // The same recipe, built from scratch by hand: dictionaries in view id
  // order, surviving base triples in base order, delta adds in commit
  // order. This is the contract compaction's bit-identical answers rest on.
  const GraphView view(base.get(), pinned.get());
  KnowledgeGraph scratch;
  for (TypeId t = 0; t < view.NumTypes(); ++t) {
    scratch.InternType(view.TypeName(t));
  }
  for (PredicateId p = 0; p < view.NumPredicates(); ++p) {
    scratch.InternPredicate(view.PredicateName(p));
  }
  for (NodeId u = 0; u < view.NumNodes(); ++u) {
    scratch.AddNode(view.NodeName(u), view.NodeTypeName(u));
  }
  scratch.AddEdge(view.FindNode("A"), "knows", view.FindNode("B"));
  // (B, lives_in, C) was retracted and is skipped.
  scratch.AddEdge(view.FindNode("D"), "knows", view.FindNode("A"));
  scratch.AddEdge(view.FindNode("D"), "lives_in", view.FindNode("C"));
  scratch.AddEdge(view.FindNode("E"), "knows", view.FindNode("D"));
  scratch.Finalize();

  std::unique_ptr<PredicateSpace> space = MakeSpace(*folded.ValueOrDie());
  TransformationLibrary library;
  Result<std::string> folded_bytes =
      EncodeSnapshot(*folded.ValueOrDie(), *space, library);
  Result<std::string> scratch_bytes =
      EncodeSnapshot(scratch, *space, library);
  ASSERT_TRUE(folded_bytes.ok()) << folded_bytes.status().ToString();
  ASSERT_TRUE(scratch_bytes.ok()) << scratch_bytes.status().ToString();
  EXPECT_EQ(folded_bytes.ValueOrDie(), scratch_bytes.ValueOrDie());
}

TEST(FoldDeltaTest, RandomizedFoldAgreesWithViewReads) {
  // A seed-reproducible mutation stream; after folding, the folded graph
  // must answer HasTriple/Neighbors exactly like the live view did.
  std::unique_ptr<KnowledgeGraph> base = MakeBase();
  DeltaOverlay overlay(base.get());
  Rng rng(7);
  std::vector<std::string> names = {"A", "B", "C"};
  for (int round = 0; round < 40; ++round) {
    MutationBatch batch;
    const std::string fresh = StrFormat("N%d", round);
    batch.ops.push_back(Mutation::Add(
        fresh, rng.Bernoulli(0.5) ? "knows" : "lives_in",
        names[rng.UniformIndex(names.size())], "Person"));
    names.push_back(fresh);
    ASSERT_TRUE(overlay.Commit(batch).ok());
  }

  std::shared_ptr<const DeltaSnapshot> pinned = overlay.Snapshot();
  const GraphView view(base.get(), pinned.get());
  Result<std::unique_ptr<KnowledgeGraph>> folded =
      FoldDelta(*base, pinned.get());
  ASSERT_TRUE(folded.ok());
  const KnowledgeGraph& flat = *folded.ValueOrDie();

  ASSERT_EQ(flat.NumNodes(), view.NumNodes());
  ASSERT_EQ(flat.NumEdges(), view.NumEdges());
  for (NodeId u = 0; u < view.NumNodes(); ++u) {
    EXPECT_EQ(flat.NodeName(u), view.NodeName(u));
    const auto view_adj = view.Neighbors(u);
    const auto flat_adj = flat.Neighbors(u);
    ASSERT_EQ(view_adj.size(), flat_adj.size()) << "node " << u;
    for (size_t i = 0; i < view_adj.size(); ++i) {
      EXPECT_EQ(view_adj[i], flat_adj[i]) << "node " << u << " entry " << i;
    }
  }
}

// ----- distinct-predicate index -----

/// Brute-force reference: the sorted distinct predicates of a list.
std::vector<PredicateId> DistinctOf(std::span<const AdjEntry> adjacency) {
  std::vector<PredicateId> out;
  for (const AdjEntry& e : adjacency) out.push_back(e.predicate);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PredicateId> ToVector(std::span<const PredicateId> span) {
  return std::vector<PredicateId>(span.begin(), span.end());
}

/// Every node of `view` indexes exactly the distinct predicates of its
/// merged adjacency.
void ExpectIndexMatchesAdjacency(const GraphView& view) {
  for (NodeId u = 0; u < view.NumNodes(); ++u) {
    EXPECT_EQ(ToVector(view.DistinctPredicates(u)),
              DistinctOf(view.Neighbors(u)))
        << "node " << view.NodeName(u) << " at epoch " << view.epoch();
  }
}

TEST(DistinctPredicateIndexTest, SameAcrossFinalizeKgpackCommitAndFold) {
  auto base = std::make_unique<KnowledgeGraph>();
  NodeId a = base->AddNode("A", "Person");
  NodeId b = base->AddNode("B", "Person");
  NodeId c = base->AddNode("C", "City");
  base->AddEdge(a, "knows", b);
  base->AddEdge(a, "likes", b);  // second predicate on the same pair
  base->AddEdge(a, "lives_in", c);
  base->AddEdge(b, "lives_in", c);
  base->Finalize();
  const PredicateId knows = base->FindPredicate("knows");
  const PredicateId likes = base->FindPredicate("likes");
  const PredicateId lives_in = base->FindPredicate("lives_in");

  // Finalize(): the index equals the brute-force dedupe.
  ExpectIndexMatchesAdjacency(GraphView(*base));
  EXPECT_EQ(ToVector(base->DistinctPredicates(a)),
            (std::vector<PredicateId>{knows, likes, lives_in}));
  EXPECT_EQ(ToVector(base->DistinctPredicates(c)),
            (std::vector<PredicateId>{lives_in}));

  // kgpack round-trip rebuilds it through FromFlatParts.
  std::unique_ptr<PredicateSpace> space = MakeSpace(*base);
  TransformationLibrary library;
  Result<std::string> bytes = EncodeSnapshot(*base, *space, library);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Result<DatasetSnapshot> decoded = DecodeSnapshot(bytes.ValueOrDie());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const KnowledgeGraph& restored = *decoded.ValueOrDie().graph;
  for (NodeId u = 0; u < base->NumNodes(); ++u) {
    EXPECT_EQ(ToVector(restored.DistinctPredicates(u)),
              ToVector(base->DistinctPredicates(u)));
  }

  // Commit 1: a new predicate and a new node at C, and a new predicate
  // between existing nodes at B and C.
  DeltaOverlay overlay(base.get());
  MutationBatch adds;
  adds.ops.push_back(Mutation::Add("C", "works_at", "D", "", "Company"));
  adds.ops.push_back(Mutation::Add("B", "knows", "C"));
  ASSERT_TRUE(overlay.Commit(adds).ok());
  std::shared_ptr<const DeltaSnapshot> after_adds = overlay.Snapshot();
  const GraphView view1(base.get(), after_adds.get());
  ExpectIndexMatchesAdjacency(view1);
  const PredicateId works_at = view1.FindPredicate("works_at");
  EXPECT_EQ(ToVector(view1.DistinctPredicates(c)),
            (std::vector<PredicateId>{knows, lives_in, works_at}));
  EXPECT_EQ(ToVector(view1.DistinctPredicates(view1.FindNode("D"))),
            (std::vector<PredicateId>{works_at}));

  // Commit 2: retracting A's only "likes" edge and only "lives_in" edge
  // drops both predicates at A; B keeps "lives_in" but loses "likes".
  MutationBatch retracts;
  retracts.ops.push_back(Mutation::Retract("A", "likes", "B"));
  retracts.ops.push_back(Mutation::Retract("A", "lives_in", "C"));
  ASSERT_TRUE(overlay.Commit(retracts).ok());
  std::shared_ptr<const DeltaSnapshot> after_retracts = overlay.Snapshot();
  const GraphView view2(base.get(), after_retracts.get());
  ExpectIndexMatchesAdjacency(view2);
  EXPECT_EQ(ToVector(view2.DistinctPredicates(a)),
            (std::vector<PredicateId>{knows}));
  EXPECT_EQ(ToVector(view2.DistinctPredicates(b)),
            (std::vector<PredicateId>{knows, lives_in}));
  // The pinned earlier epoch still reads its own lists.
  EXPECT_EQ(ToVector(view1.DistinctPredicates(a)),
            (std::vector<PredicateId>{knows, likes, lives_in}));

  // Many commits re-touching the same nodes leave stale pool ranges behind
  // and force the pool to be packed; every epoch still reads right.
  for (int i = 0; i < 12; ++i) {
    MutationBatch churn;
    churn.ops.push_back(Mutation::Add("A", i % 2 ? "likes" : "works_at", "C"));
    churn.ops.push_back(Mutation::Add("D", "knows", StrFormat("E%d", i)));
    ASSERT_TRUE(overlay.Commit(churn).ok());
    std::shared_ptr<const DeltaSnapshot> pinned = overlay.Snapshot();
    ExpectIndexMatchesAdjacency(GraphView(base.get(), pinned.get()));
    EXPECT_LE(pinned->predicate_pool.size(), 2 * pinned->live_predicates);
  }
  ExpectIndexMatchesAdjacency(view2);

  // FoldDelta: the folded graph's Finalize() index equals the view's.
  Result<std::unique_ptr<KnowledgeGraph>> folded =
      FoldDelta(*base, after_retracts.get());
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  ASSERT_EQ(folded.ValueOrDie()->NumNodes(), view2.NumNodes());
  for (NodeId u = 0; u < view2.NumNodes(); ++u) {
    EXPECT_EQ(ToVector(folded.ValueOrDie()->DistinctPredicates(u)),
              ToVector(view2.DistinctPredicates(u)))
        << "node " << view2.NodeName(u);
  }
}

}  // namespace
}  // namespace kgsearch
