//===- tests/EdgeList.h - Owned edge lists for graph assertions -*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Copies a Digraph's edges, in forEachSortedEdge order, into owned
/// (from, to) name pairs — for tests that compare two graphs with
/// EXPECT_EQ (which prints the differing pairs) or keep an expected edge
/// list beyond the lifetime of the graph it came from.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_TESTS_EDGELIST_H
#define VIF_TESTS_EDGELIST_H

#include "support/Graph.h"

#include <string>
#include <utility>
#include <vector>

namespace vif {
namespace test {

using EdgeList = std::vector<std::pair<std::string, std::string>>;

inline EdgeList edgeList(const Digraph &G) {
  EdgeList Result;
  Result.reserve(G.numEdges());
  G.forEachSortedEdge([&Result](std::string_view From, std::string_view To) {
    Result.emplace_back(From, To);
  });
  return Result;
}

} // namespace test
} // namespace vif

#endif // VIF_TESTS_EDGELIST_H
