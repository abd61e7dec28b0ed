//===- tests/graph_test.cpp - Digraph algebra -----------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "support/BitSet.h"
#include "support/Graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <string>
#include <thread>

using namespace vif;

namespace {

Digraph path3() {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("b", "c");
  return G;
}

TEST(Digraph, NodesAndEdges) {
  Digraph G = path3();
  EXPECT_EQ(G.numNodes(), 3u);
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_TRUE(G.hasEdge("a", "b"));
  EXPECT_FALSE(G.hasEdge("b", "a"));
  EXPECT_FALSE(G.hasEdge("a", "c"));
  EXPECT_TRUE(G.hasNode("c"));
  EXPECT_FALSE(G.hasNode("d"));
}

TEST(Digraph, BulkEdgeInsertDeduplicatesAndMerges) {
  Digraph G;
  Digraph::NodeId A = G.addNode("a");
  Digraph::NodeId B = G.addNode("b");
  Digraph::NodeId C = G.addNode("c");
  G.addEdge(A, B); // pre-existing edge must survive the bulk merge
  G.addEdges({{B, C}, {A, B}, {B, C}, {C, A}});
  EXPECT_EQ(G.numEdges(), 3u);
  EXPECT_TRUE(G.hasEdge("a", "b"));
  EXPECT_TRUE(G.hasEdge("b", "c"));
  EXPECT_TRUE(G.hasEdge("c", "a"));
  EXPECT_FALSE(G.hasEdge("a", "c"));
}

TEST(Digraph, DuplicateInsertionIsIdempotent) {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("a", "b");
  EXPECT_EQ(G.addNode("a"), G.addNode("a"));
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.numNodes(), 2u);
}

TEST(Digraph, Reachability) {
  Digraph G = path3();
  EXPECT_TRUE(G.reachable("a", "c"));
  EXPECT_FALSE(G.reachable("c", "a"));
  // Length >= 1: a node does not reach itself without a cycle.
  EXPECT_FALSE(G.reachable("a", "a"));
  G.addEdge("c", "a");
  EXPECT_TRUE(G.reachable("a", "a"));
}

TEST(Digraph, TransitiveClosure) {
  Digraph G = path3();
  Digraph C = G.transitiveClosure();
  EXPECT_TRUE(C.hasEdge("a", "c"));
  EXPECT_EQ(C.numEdges(), 3u);
  EXPECT_TRUE(C.isTransitive());
  EXPECT_FALSE(G.isTransitive()) << "the path itself is not transitive";
}

TEST(Digraph, ClosureOfCycleIsComplete) {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("b", "c");
  G.addEdge("c", "a");
  Digraph C = G.transitiveClosure();
  EXPECT_EQ(C.numEdges(), 9u) << "3-cycle closes to all pairs + loops";
  EXPECT_TRUE(C.hasEdge("a", "a"));
}

TEST(Digraph, NonTransitivityWitness) {
  // The paper's program (a) graph: b -> c, a -> b but NO a -> c.
  Digraph G;
  G.addEdge("b", "c");
  G.addEdge("a", "b");
  EXPECT_FALSE(G.isTransitive());
  EXPECT_FALSE(G.hasEdge("a", "c"));
  EXPECT_TRUE(G.reachable("a", "c"))
      << "reachability exists, flow does not — the paper's core point";
}

TEST(Digraph, MergeNodes) {
  Digraph G;
  G.addEdge("a.in", "b.out");
  G.addEdge("b.in", "c.out");
  Digraph M = G.mergeNodes([](std::string_view N) {
    return std::string(N.substr(0, N.find('.')));
  });
  EXPECT_TRUE(M.hasEdge("a", "b"));
  EXPECT_TRUE(M.hasEdge("b", "c"));
  EXPECT_EQ(M.numNodes(), 3u);
}

TEST(Digraph, MergeDoesNotFabricateSelfLoops) {
  Digraph G;
  G.addEdge("a.in", "a.out");
  G.addEdge("b.in", "b.in"); // genuine self loop survives
  Digraph M = G.mergeNodes([](std::string_view N) {
    return std::string(N.substr(0, N.find('.')));
  });
  EXPECT_FALSE(M.hasEdge("a", "a"))
      << "a.in -> a.out collapses, not loops";
  EXPECT_TRUE(M.hasEdge("b", "b"));
}

TEST(Digraph, InducedSubgraph) {
  Digraph G = path3();
  G.addEdge("a", "x");
  Digraph S = G.inducedSubgraph(
      [](std::string_view N) { return N != "x"; });
  EXPECT_EQ(S.numNodes(), 3u);
  EXPECT_EQ(S.numEdges(), 2u);
  EXPECT_FALSE(S.hasNode("x"));
}

TEST(Digraph, EdgesNotIn) {
  Digraph G = path3();
  Digraph H = path3();
  H.addEdge("a", "c");
  auto Extra = H.edgesNotIn(G);
  ASSERT_EQ(Extra.size(), 1u);
  EXPECT_EQ(Extra[0].first, "a");
  EXPECT_EQ(Extra[0].second, "c");
  EXPECT_TRUE(G.edgesNotIn(H).empty());
}

TEST(Digraph, SameFlows) {
  Digraph G = path3(), H = path3();
  EXPECT_TRUE(G.sameFlows(H));
  H.addEdge("c", "a");
  EXPECT_FALSE(G.sameFlows(H));
}

TEST(Digraph, SuccessorsPredecessors) {
  Digraph G = path3();
  auto B = G.id("b");
  ASSERT_EQ(G.successors(G.id("a")).size(), 1u);
  EXPECT_EQ(G.successors(G.id("a"))[0], B);
  ASSERT_EQ(G.predecessors(G.id("c")).size(), 1u);
  EXPECT_EQ(G.predecessors(G.id("c"))[0], B);
  EXPECT_TRUE(G.successors(G.id("c")).empty());
}

TEST(Digraph, DotOutputIsSortedAndQuoted) {
  Digraph G;
  G.addEdge("b", "a");
  G.addEdge("a", "b");
  std::ostringstream OS;
  G.printDOT(OS, "t");
  EXPECT_EQ(OS.str(), "digraph \"t\" {\n"
                      "  \"a\";\n"
                      "  \"b\";\n"
                      "  \"a\" -> \"b\";\n"
                      "  \"b\" -> \"a\";\n"
                      "}\n");
}

TEST(Digraph, ClosureIdempotent) {
  Digraph G = path3();
  Digraph C1 = G.transitiveClosure();
  Digraph C2 = C1.transitiveClosure();
  EXPECT_TRUE(C1.sameFlows(C2));
}

TEST(Digraph, ClosureOfEmptyGraph) {
  Digraph G;
  Digraph C = G.transitiveClosure();
  EXPECT_EQ(C.numNodes(), 0u);
  EXPECT_EQ(C.numEdges(), 0u);

  // The bit-matrix form degrades to a 0 x 0 index without crashing.
  BitMatrix M;
  G.reachabilityClosure(M);
  EXPECT_EQ(M.wordsPerRow() * 64, 0u);
}

TEST(Digraph, ClosurePreservesSelfLoops) {
  Digraph G;
  G.addEdge("a", "a");
  G.addEdge("a", "b");
  Digraph C = G.transitiveClosure();
  EXPECT_TRUE(C.hasEdge("a", "a"));
  EXPECT_TRUE(C.hasEdge("a", "b"));
  // b is on no cycle: the length >= 1 closure has no (b, b) bit.
  EXPECT_FALSE(C.hasEdge("b", "b"));
  EXPECT_EQ(C.numEdges(), 2u);
}

TEST(Digraph, ClosureIgnoresDuplicateEdges) {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("a", "b");
  G.addEdge("b", "c");
  G.addEdge("a", "b");
  Digraph C = G.transitiveClosure();
  EXPECT_EQ(C.numEdges(), 3u);
  EXPECT_TRUE(C.hasEdge("a", "c"));
}

TEST(Digraph, ReachabilityClosureMatchesDfs) {
  Digraph G;
  G.addEdge("a", "b");
  G.addEdge("b", "c");
  G.addEdge("c", "a");
  G.addEdge("c", "d");
  BitMatrix M;
  G.reachabilityClosure(M);
  const std::vector<std::string_view> &Names = G.nodes();
  for (Digraph::NodeId I = 0; I < G.numNodes(); ++I)
    for (Digraph::NodeId J = 0; J < G.numNodes(); ++J)
      EXPECT_EQ(M.test(I, J), G.reachable(Names[I], Names[J]))
          << Names[I] << " -> " << Names[J];
}

// The flush and the sorted edge view are counting sorts over node ids and
// ranks; these tests hold them to the comparison-sort definitions on
// seeded random graphs.

using EdgeIds = std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>>;

/// Random names of 1..6 letters, so that rank order and id order differ.
std::string randomName(std::mt19937 &Rng) {
  std::string Name;
  for (unsigned Len = 1 + Rng() % 6; Len--;)
    Name += static_cast<char>('a' + Rng() % 5);
  return Name;
}

/// Pairs over \p V nodes, including duplicates and self-loops.
EdgeIds randomPairs(std::mt19937 &Rng, unsigned V, size_t Count) {
  EdgeIds Pairs;
  for (size_t I = 0; I < Count; ++I) {
    Digraph::NodeId From = Rng() % V;
    Digraph::NodeId To = Rng() % 8 == 0 ? From : Rng() % V;
    Pairs.push_back({From, To});
    if (Rng() % 4 == 0)
      Pairs.push_back(Pairs.back());
  }
  return Pairs;
}

/// Checks the flushed storage order, the ranked and the named sorted
/// views of \p G against std::sort over \p All, every pair ever added.
void expectViewsMatchReference(const Digraph &G, EdgeIds All) {
  std::sort(All.begin(), All.end());
  All.erase(std::unique(All.begin(), All.end()), All.end());
  EdgeIds Stored;
  G.forEachEdgeId([&](Digraph::NodeId F, Digraph::NodeId T) {
    Stored.push_back({F, T});
  });
  EXPECT_EQ(Stored, All);
  ASSERT_EQ(G.numEdges(), All.size());

  std::vector<std::pair<std::string_view, std::string_view>> ByName;
  for (const auto &[F, T] : All)
    ByName.push_back({G.name(F), G.name(T)});
  std::sort(ByName.begin(), ByName.end());
  std::vector<std::pair<std::string_view, std::string_view>> Sorted;
  G.forEachSortedEdge([&](std::string_view F, std::string_view T) {
    Sorted.push_back({F, T});
  });
  EXPECT_EQ(Sorted, ByName);

  EdgeIds Ranked, RankedRef;
  const std::vector<Digraph::NodeId> &Order = G.rankedNodes();
  for (const auto &[F, T] : ByName)
    RankedRef.push_back({G.rankOf(G.id(F)), G.rankOf(G.id(T))});
  G.forEachSortedEdgeRanked([&](Digraph::NodeId F, Digraph::NodeId T) {
    Ranked.push_back({F, T});
    EXPECT_LT(F, Order.size());
    EXPECT_LT(T, Order.size());
  });
  EXPECT_EQ(Ranked, RankedRef);
  EXPECT_TRUE(std::is_sorted(Ranked.begin(), Ranked.end()));
}

TEST(Digraph, CountingSortFlushMatchesStdSort) {
  for (unsigned Seed = 1; Seed <= 40; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Digraph G;
    unsigned Want = 1 + Rng() % (Seed % 4 == 0 ? 300 : 24);
    for (unsigned I = 0; I < Want; ++I)
      G.addNode(randomName(Rng));
    unsigned V = static_cast<unsigned>(G.numNodes());
    EdgeIds Pairs = randomPairs(Rng, V, Rng() % (4 * V + 2));
    G.addEdges(Pairs);
    expectViewsMatchReference(G, Pairs);
  }
}

TEST(Digraph, EmptyGraphViews) {
  Digraph G;
  EXPECT_EQ(G.numEdges(), 0u);
  G.addEdges({});
  expectViewsMatchReference(G, {});
  G.addNode("x");
  G.addNode("a");
  expectViewsMatchReference(G, {});
  EXPECT_EQ(G.rankOf(G.id("a")), 0u);
}

TEST(Digraph, AddEdgesIntoFlushedGraphMerges) {
  for (unsigned Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    Digraph G;
    for (unsigned I = 0; I < 40; ++I)
      G.addNode(randomName(Rng));
    unsigned V = static_cast<unsigned>(G.numNodes());
    EdgeIds All;
    for (unsigned Batch = 0; Batch < 4; ++Batch) {
      EdgeIds Pairs = randomPairs(Rng, V, Rng() % 60);
      All.insert(All.end(), Pairs.begin(), Pairs.end());
      G.addEdges(Pairs);
      if (Batch % 2 == 0) {
        // A single addEdge rides along with the bulk batch.
        Digraph::NodeId From = Rng() % V;
        G.addEdge(From, 0);
        All.push_back({From, 0});
      }
      // Flushing (and building the views) between batches sends the next
      // batch down the merge path.
      expectViewsMatchReference(G, All);
    }
  }
}

TEST(Digraph, AddNodeAfterEdgesKeepsEdgeOrder) {
  std::mt19937 Rng(7);
  Digraph G;
  for (unsigned I = 0; I < 30; ++I)
    G.addNode(randomName(Rng));
  unsigned V = static_cast<unsigned>(G.numNodes());
  EdgeIds All = randomPairs(Rng, V, 120);
  G.addEdges(All);
  G.ensureSortedViews();
  // New names rank before, between and after the existing ones, so
  // every existing rank may shift while the cached edge order stays.
  for (std::string Name : {"", "aaaaaaa", "c", "cz", "zzz"})
    G.addNode(Name);
  expectViewsMatchReference(G, All);
  // Edges touching the new nodes rebuild the order under the new ranks.
  EdgeIds More = {{G.id("cz"), G.id("")}, {G.id("zzz"), 0}, {0, G.id("c")}};
  G.addEdges(More);
  All.insert(All.end(), More.begin(), More.end());
  expectViewsMatchReference(G, All);
}

TEST(Digraph, ConcurrentLazyViewsAreSafe) {
  // The sorted-edge, rank and edge-order views build lazily under a mutex;
  // many threads materializing them on a freshly mutated graph must agree
  // (the tsan_serve binary runs the instrumented version of this pattern).
  Digraph G;
  for (unsigned I = 0; I + 1 < 64; ++I)
    G.addEdge("n" + std::to_string(I), "n" + std::to_string(I + 1));
  size_t Expect = G.numEdges();
  std::vector<std::thread> Threads;
  std::atomic<size_t> Sum{0};
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back([&G, &Sum]() {
      size_t Count = 0;
      G.forEachSortedEdge(
          [&Count](std::string_view, std::string_view) { ++Count; });
      Count += G.rankedNodes().size() == G.numNodes() ? 1 : 0;
      Sum += Count;
    });
  for (std::thread &T : Threads)
    T.join();
  // Each thread saw all 63 edges plus one complete rank table.
  EXPECT_EQ(Sum.load(), 8 * (Expect + 1));
}

} // namespace
