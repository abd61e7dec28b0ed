//===- perfbench/src/Oracle.h - Reference answers ---------------*- C++ -*-===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expected answer for every design a run sends, computed by the
/// repository's validation oracles rather than by the production path:
/// the reference solvers (ReachingDefsOptions::ReferenceSolver), the
/// sorted-vector closure (IFAOptions::ReferenceClosure) and, on the
/// families where it is cheap, the enumerated cross-flow kill/gen in place
/// of the factored one, so the reference shares no kill/gen code with the
/// production path there. Kemmerer's graph and a BFS
/// over the reference graph supply the containment check and the query
/// answers. The work runs in forked child processes before anything is
/// measured, so it touches neither the timed regions, nor setup_s, nor the
/// parent's peak resident memory; only the compact answers come back.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "Inputs.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct QueryRef {
  std::string From, To;
  bool Reaches = false;
  uint32_t Dist = 0; ///< shortest witness length in edges (0 if unreachable)
  uint32_t Forward = 0, Backward = 0; ///< |reachableFrom|, |whatReaches|
};

struct RefDesign {
  /// The reference pipeline accepted the design.
  bool Ok = false;
  uint32_t Processes = 0, Signals = 0, Variables = 0, Nodes = 0;
  uint64_t Edges = 0;           ///< number of flow edges
  uint64_t EdgeSet = 0;         ///< edgeSetHash of the flow edges
  /// Reference edges missing from Kemmerer's graph that the wait flows it
  /// leaves out explain (see README): allowed.
  uint32_t KemmererGaps = 0;
  /// Reference edges missing from Kemmerer's graph for any other reason:
  /// each design with one is a wrong answer. \c FirstUnexplained names one.
  uint32_t KemmererUnexplained = 0;
  std::string FirstUnexplained;
  std::vector<QueryRef> Queries;
};

/// Fingerprint of an edge set given as sorted edgeHash values.
uint64_t edgeSetHash(const std::vector<uint64_t> &Sorted);

/// Computes the reference answers for the \p Count designs \p Make
/// produces, in \p Workers forked children (exchanging results through
/// files under \p WorkDir). Returns false, with \p Error set, if a child
/// fails.
bool computeReferences(const std::function<Design(size_t)> &Make,
                       size_t Count, uint64_t Seed, const std::string &WorkDir,
                       unsigned Workers, std::vector<RefDesign> &Out,
                       std::string &Error);
/// The same over a design list.
bool computeReferences(const std::vector<Design> &Designs, uint64_t Seed,
                       const std::string &WorkDir, unsigned Workers,
                       std::vector<RefDesign> &Out, std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
