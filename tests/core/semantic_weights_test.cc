#include "core/semantic_weights.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "testing/test_world.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgsearch {
namespace {

using testing_helpers::MakeSingleEdgeSubQuery;
using testing_helpers::MakeSpaceWithCosines;

class SemanticWeightsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    anchor_ = graph_.AddNode("anchor", "Anchor");
    NodeId m = graph_.AddNode("mid", "Mid");
    NodeId t = graph_.AddNode("t", "Target");
    graph_.AddEdge(anchor_, "strong", m);
    graph_.AddEdge(m, "weak", t);
    graph_.InternPredicate("q");
    graph_.Finalize();
    space_ = MakeSpaceWithCosines(graph_, {{"strong", 0.9}, {"weak", 0.4}});
  }

  KnowledgeGraph graph_;
  std::unique_ptr<PredicateSpace> space_;
  NodeId anchor_;
};

TEST_F(SemanticWeightsTest, WeightRowsMatchSpace) {
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(graph_, anchor_, "q", "Target");
  SemanticWeights weights(graph_, space_.get(), &sub);
  EXPECT_NEAR(weights.Weight(0, graph_.FindPredicate("strong")), 0.9, 1e-6);
  EXPECT_NEAR(weights.Weight(0, graph_.FindPredicate("weak")), 0.4, 1e-6);
  EXPECT_NEAR(weights.Weight(0, graph_.FindPredicate("q")), 1.0, 1e-9);
}

TEST_F(SemanticWeightsTest, MaxAdjacentWeightPicksStrongestIncident) {
  ResolvedSubQuery sub =
      MakeSingleEdgeSubQuery(graph_, anchor_, "q", "Target");
  SemanticWeights weights(graph_, space_.get(), &sub);
  EXPECT_NEAR(weights.MaxAdjacentWeight(anchor_, 0), 0.9, 1e-6);
  EXPECT_NEAR(weights.MaxAdjacentWeight(graph_.FindNode("mid"), 0), 0.9,
              1e-6);
  EXPECT_NEAR(weights.MaxAdjacentWeight(graph_.FindNode("t"), 0), 0.4, 1e-6);
}

TEST_F(SemanticWeightsTest, SuffixMaximaOverRemainingStages) {
  // Two-stage sub-query: stage 0 compares against "strong", stage 1 against
  // "weak". m(u, 0) must bound both remaining stages.
  ResolvedSubQuery sub;
  sub.edge_predicates = {graph_.FindPredicate("strong"),
                         graph_.FindPredicate("weak")};
  NodeConstraint start_c;
  start_c.specific = true;
  start_c.nodes = {anchor_};
  NodeConstraint mid_c;
  mid_c.specific = false;
  mid_c.types = {graph_.FindType("Mid")};
  NodeConstraint target_c;
  target_c.specific = false;
  target_c.types = {graph_.FindType("Target")};
  sub.node_constraints = {start_c, mid_c, target_c};
  sub.start_candidates = {anchor_};

  SemanticWeights weights(graph_, space_.get(), &sub);
  // sim(strong, strong)=1; sim(weak, strong)=cos(theta_w - theta_s) which
  // is below 1. Stage-0 bound at the anchor (incident: strong) is the max
  // over stages {0,1} of sim(stage_pred, strong) = 1.
  EXPECT_NEAR(weights.MaxAdjacentWeight(anchor_, 0), 1.0, 1e-6);
  // At stage 1, only sim(weak, .) rows matter.
  const double w_ss = space_->Weight(graph_.FindPredicate("weak"),
                                     graph_.FindPredicate("strong"));
  EXPECT_NEAR(weights.MaxAdjacentWeight(anchor_, 1), w_ss, 1e-9);
}

TEST(SemanticWeightsIndexTest, MaxAdjacentWeightMatchesAdjacencyScan) {
  // More predicates than a 64-bit mask could hold, multi-edges between the
  // same pair, and isolated nodes: the distinct-predicate bound must equal
  // the maximum over a full adjacency scan for every node and stage.
  Rng rng(17);
  KnowledgeGraph g;
  constexpr int kPredicates = 80;
  constexpr int kNodes = 60;
  for (int i = 0; i < kNodes; ++i) g.AddNode(StrFormat("n%d", i), "Thing");
  std::map<std::string, double> cosines;
  for (int p = 0; p < kPredicates; ++p) {
    cosines[StrFormat("p%d", p)] = rng.UniformReal(0.05, 0.99);
  }
  for (int e = 0; e < 400; ++e) {
    NodeId a = static_cast<NodeId>(rng.UniformIndex(kNodes - 5));
    NodeId b = static_cast<NodeId>(rng.UniformIndex(kNodes - 5));
    g.AddEdge(a, StrFormat("p%d", static_cast<int>(rng.UniformIndex(
                                      kPredicates))),
              b);
  }
  g.InternPredicate("q");
  g.Finalize();
  ASSERT_GT(g.NumPredicates(), 64u);
  auto space = MakeSpaceWithCosines(g, cosines);

  ResolvedSubQuery sub = MakeSingleEdgeSubQuery(g, 0, "q", "Thing");
  sub.edge_predicates = {g.FindPredicate("p3"), g.FindPredicate("p41"),
                         g.FindPredicate("p77")};
  sub.node_constraints.insert(sub.node_constraints.begin() + 1, 2,
                              sub.node_constraints.back());
  SemanticWeights weights(g, space.get(), &sub);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (size_t stage = 0; stage < sub.Length(); ++stage) {
      double expected = kMinWeight;
      for (const AdjEntry& e : g.Neighbors(u)) {
        for (size_t s = stage; s < sub.Length(); ++s) {
          expected = std::max(expected, weights.Weight(s, e.predicate));
        }
      }
      EXPECT_EQ(weights.MaxAdjacentWeight(u, stage), expected)
          << "node " << u << " stage " << stage;
    }
  }
}

}  // namespace
}  // namespace kgsearch
