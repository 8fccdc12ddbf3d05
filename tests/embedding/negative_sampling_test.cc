#include "embedding/negative_sampling.h"

#include <gtest/gtest.h>

#include <cmath>

#include "embedding/transe.h"
#include "embedding/transh.h"
#include "kg/graph.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgsearch {
namespace {

std::vector<FloatVec> MakeEntities(size_t count, size_t dim, uint64_t seed) {
  std::vector<FloatVec> entities;
  entities.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    FastRng rng(MixSeed(seed, i));
    entities.push_back(RandomInitVec(dim, &rng));
  }
  return entities;
}

TEST(NegativeScorerTest, GatherNormalizesCopiesNotSources) {
  std::vector<FloatVec> entities = MakeEntities(6, 10, 3);
  const std::vector<FloatVec> before = entities;
  NegativeScorer scorer(10, 4);
  scorer.GatherNormalized(entities, {0, 2, 5});
  EXPECT_EQ(scorer.count(), 3u);
  EXPECT_EQ(entities, before);  // live embedding untouched
}

TEST(NegativeScorerTest, L2SqMatchesScalarReference) {
  const size_t dim = 13;
  std::vector<FloatVec> entities = MakeEntities(8, dim, 17);
  std::vector<NodeId> ids = {1, 3, 4, 7};
  NegativeScorer scorer(dim, ids.size());
  scorer.GatherNormalized(entities, ids);

  FastRng rng(MixSeed(17, 100));
  FloatVec q = RandomInitVec(dim, &rng);
  const float* scores = scorer.ScoreL2Sq(q);
  for (size_t c = 0; c < ids.size(); ++c) {
    FloatVec e = entities[ids[c]];
    NormalizeInPlace(&e);
    double expected = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double d = static_cast<double>(q[j]) - e[j];
      expected += d * d;
    }
    EXPECT_NEAR(scores[c], expected, 1e-4) << "candidate " << c;
  }
}

TEST(NegativeScorerTest, ProjectedL2SqMatchesScalarReference) {
  const size_t dim = 10;
  std::vector<FloatVec> entities = MakeEntities(8, dim, 23);
  std::vector<NodeId> ids = {0, 2, 6};
  NegativeScorer scorer(dim, ids.size());
  scorer.GatherNormalized(entities, ids);

  FastRng rng(MixSeed(23, 100));
  FloatVec q = RandomInitVec(dim, &rng);
  FloatVec w = RandomUnitVec(dim, &rng);
  const float* scores = scorer.ScoreProjectedL2Sq(q, w);
  for (size_t c = 0; c < ids.size(); ++c) {
    FloatVec e = entities[ids[c]];
    NormalizeInPlace(&e);
    const double we = Dot(w, e);
    double expected = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double d = static_cast<double>(q[j]) - e[j] + we * w[j];
      expected += d * d;
    }
    EXPECT_NEAR(scores[c], expected, 1e-4) << "candidate " << c;
  }
}

KnowledgeGraph MakeTrainingGraph() {
  KnowledgeGraph g;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 12; ++i) {
    nodes.push_back(g.AddNode(StrFormat("n%d", i), "T"));
  }
  for (int i = 0; i < 12; ++i) {
    g.AddEdge(nodes[static_cast<size_t>(i)],
              i % 2 == 0 ? "even" : "odd",
              nodes[static_cast<size_t>((i * 5 + 3) % 12)]);
  }
  g.Finalize();
  return g;
}

TEST(NegativeSamplingTrainingTest, TransEHardestNegativeIsDeterministic) {
  KnowledgeGraph g = MakeTrainingGraph();
  TransEConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 3;
  cfg.negative_candidates = 4;
  auto a = TrainTransE(g, cfg);
  auto b = TrainTransE(g, cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().entity, b.ValueOrDie().entity);
  EXPECT_EQ(a.ValueOrDie().predicate, b.ValueOrDie().predicate);
  EXPECT_EQ(a.ValueOrDie().final_epoch_loss, b.ValueOrDie().final_epoch_loss);
}

TEST(NegativeSamplingTrainingTest, TransHHardestNegativeIsDeterministic) {
  KnowledgeGraph g = MakeTrainingGraph();
  TransHConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 3;
  cfg.negative_candidates = 4;
  auto a = TrainTransH(g, cfg);
  auto b = TrainTransH(g, cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().entity, b.ValueOrDie().entity);
  EXPECT_EQ(a.ValueOrDie().translation, b.ValueOrDie().translation);
  EXPECT_EQ(a.ValueOrDie().normal, b.ValueOrDie().normal);
}

TEST(NegativeSamplingTrainingTest, CandidatePoolChangesTrainingButConverges) {
  KnowledgeGraph g = MakeTrainingGraph();
  TransEConfig base;
  base.dim = 8;
  base.epochs = 5;
  TransEConfig pooled = base;
  pooled.negative_candidates = 8;
  auto r1 = TrainTransE(g, base);
  auto r8 = TrainTransE(g, pooled);
  ASSERT_TRUE(r1.ok() && r8.ok());
  // Both finish with finite loss; the pooled path consumes different RNG
  // draws so the embeddings legitimately differ from the default path.
  EXPECT_TRUE(std::isfinite(r1.ValueOrDie().final_epoch_loss));
  EXPECT_TRUE(std::isfinite(r8.ValueOrDie().final_epoch_loss));
  EXPECT_NE(r1.ValueOrDie().entity, r8.ValueOrDie().entity);
}

}  // namespace
}  // namespace kgsearch
