#include "kg/graph.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace kgsearch {
namespace {

KnowledgeGraph MakeSmallGraph() {
  KnowledgeGraph g;
  NodeId audi = g.AddNode("Audi_TT", "Automobile");
  NodeId germany = g.AddNode("Germany", "Country");
  NodeId vw = g.AddNode("Volkswagen", "Company");
  g.AddEdge(audi, "assembly", germany);
  g.AddEdge(audi, "manufacturer", vw);
  g.AddEdge(vw, "location", germany);
  g.Finalize();
  return g;
}

TEST(GraphTest, NodeAccessors) {
  KnowledgeGraph g = MakeSmallGraph();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  NodeId audi = g.FindNode("Audi_TT");
  ASSERT_NE(audi, kInvalidNode);
  EXPECT_EQ(g.NodeName(audi), "Audi_TT");
  EXPECT_EQ(g.NodeTypeName(audi), "Automobile");
  EXPECT_EQ(g.FindNode("BMW"), kInvalidNode);
}

TEST(GraphTest, AddNodeReturnsExistingAndKeepsType) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("X", "T1");
  NodeId b = g.AddNode("X", "T2");  // type not overwritten
  EXPECT_EQ(a, b);
  g.Finalize();
  EXPECT_EQ(g.NodeTypeName(a), "T1");
}

TEST(GraphTest, DuplicateTriplesStoredOnce) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "p", b);
  g.AddEdge(a, "p", b);
  g.AddEdge(a, "q", b);  // distinct predicate allowed
  g.Finalize();
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(GraphTest, NeighborsContainBothDirections) {
  KnowledgeGraph g = MakeSmallGraph();
  NodeId germany = g.FindNode("Germany");
  auto neighbors = g.Neighbors(germany);
  // Germany has two incoming edges: assembly (Audi), location (VW).
  ASSERT_EQ(neighbors.size(), 2u);
  for (const AdjEntry& e : neighbors) {
    EXPECT_FALSE(e.forward);  // both stored pointing at Germany
  }
  EXPECT_EQ(g.Degree(germany), 2u);
}

TEST(GraphTest, NeighborsSortedDeterministically) {
  KnowledgeGraph g;
  NodeId hub = g.AddNode("hub", "T");
  for (int i = 9; i >= 0; --i) {
    NodeId n = g.AddNode(StrFormat("n%d", i), "T");
    g.AddEdge(hub, "p", n);
  }
  g.Finalize();
  auto neighbors = g.Neighbors(hub);
  for (size_t i = 1; i < neighbors.size(); ++i) {
    EXPECT_LE(neighbors[i - 1].neighbor, neighbors[i].neighbor);
  }
}

TEST(GraphTest, TypeIndex) {
  KnowledgeGraph g = MakeSmallGraph();
  TypeId automobile = g.FindType("Automobile");
  ASSERT_NE(automobile, kInvalidSymbol);
  auto autos = g.NodesOfType(automobile);
  ASSERT_EQ(autos.size(), 1u);
  EXPECT_EQ(g.NodeName(autos[0]), "Audi_TT");
  EXPECT_TRUE(g.NodesOfType(999).empty());
}

TEST(GraphTest, HasTripleIsDirected) {
  KnowledgeGraph g = MakeSmallGraph();
  NodeId audi = g.FindNode("Audi_TT");
  NodeId germany = g.FindNode("Germany");
  PredicateId assembly = g.FindPredicate("assembly");
  EXPECT_TRUE(g.HasTriple(audi, assembly, germany));
  EXPECT_FALSE(g.HasTriple(germany, assembly, audi));
  EXPECT_FALSE(g.HasTriple(audi, g.FindPredicate("location"), germany));
}

TEST(GraphTest, AddTripleConvenience) {
  KnowledgeGraph g;
  ASSERT_TRUE(g.AddTriple("A", "knows", "B").ok());
  ASSERT_TRUE(g.AddTriple("B", "knows", "C").ok());
  g.Finalize();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.NodeTypeName(g.FindNode("A")), "Thing");
}

TEST(GraphTest, AddTripleAfterFinalizeIsRejected) {
  // Regression: this used to silently corrupt the CSR indexes (the edge
  // landed in triples_ but never in adjacency). Post-finalize mutation must
  // go through the delta overlay; the base graph refuses it cleanly.
  KnowledgeGraph g;
  ASSERT_TRUE(g.AddTriple("A", "knows", "B").ok());
  g.Finalize();
  const Status late = g.AddTriple("B", "knows", "C");
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  // Nothing leaked into the finalized structures.
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.FindNode("C"), kInvalidNode);
}

TEST(GraphTest, AverageDegree) {
  KnowledgeGraph g = MakeSmallGraph();
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);  // 2*3 edges / 3 nodes
}

TEST(GraphTest, InternPredicateWithoutEdges) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "real", b);
  PredicateId ghost = g.InternPredicate("query_only");
  g.Finalize();
  EXPECT_EQ(g.NumPredicates(), 2u);
  EXPECT_EQ(g.FindPredicate("query_only"), ghost);
}

TEST(GraphTest, SelfContainedEmptyGraphFinalize) {
  KnowledgeGraph g;
  g.Finalize();
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphTest, ParallelEdgesWithDistinctPredicates) {
  KnowledgeGraph g;
  NodeId a = g.AddNode("A", "T");
  NodeId b = g.AddNode("B", "T");
  g.AddEdge(a, "p1", b);
  g.AddEdge(a, "p2", b);
  g.AddEdge(b, "p1", a);  // reverse direction is a distinct triple
  g.Finalize();
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(a), 3u);
}

}  // namespace
}  // namespace kgsearch
