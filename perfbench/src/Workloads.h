//===- perfbench/src/Workloads.h - Workload entry points --------*- C++ -*-===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Oracle.h"
#include "Trace.h"

#include <map>
#include <string>

namespace perfbench {

/// cold-pipeline and cold-aes. False (with a note) on a set-up failure.
bool runCold(const Config &Cfg, RunResult &Out);
/// serve-warm and serve-edit.
bool runServe(const Config &Cfg, RunResult &Out);

/// Records the checker self-test: \p DroppedAccepted / \p CorruptAccepted
/// say whether the checker let the mutated document resp. frame through.
/// Either being accepted makes the run incorrect; with --inject-faults
/// both are also counted as attempted (and, when rejected, failed)
/// operations, so they show in fail_ratio.
void selfTest(RunResult &Out, const Config &Cfg, bool DroppedAccepted,
              bool CorruptAccepted);

/// Checks each design's reference edges against Kemmerer's graph: an edge
/// outside it is allowed only where the wait flows Kemmerer leaves out
/// explain it (see README); any other makes that design a wrong answer.
/// Notes how many allowed gaps there were.
void checkKemmerer(Tally &Count, RunResult &Out,
                   const std::vector<RefDesign> &Refs);

/// Emits every per-layer metric from \p L: layer self times and counts per
/// operation, the tracing overhead (traced per-op mean \p TracedMs against
/// the untraced \p UntracedMs) and unattributed.ms (by default the untraced
/// per-op mean minus the layers). \p Explicit supplies, and overrides,
/// the metrics a workload computes itself. Warns of negative times.
void reportLayers(RunResult &Out, const LayerSummary &L, double UntracedMs,
                  double TracedMs, const std::map<std::string, double> &Explicit);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
