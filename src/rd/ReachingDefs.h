//===- rd/ReachingDefs.h - RD for vars & present signals (Table 5) -*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Reaching Definitions analysis for local variables and *present*
/// signal values of paper Table 5: a forward may analysis over
/// P((Var ∪ Sig) x Lab), per-process flow, that consumes the active-signal
/// results (Table 4) at wait statements:
///
///  * gen at [wait]^l: every signal that may be active in any process that
///    could take part in the synchronization becomes defined at l (its
///    active value turns into its present value);
///  * kill at [wait]^l: every signal that must be active in *all* possible
///    synchronization tuples through l gets all of its present-value
///    definitions killed — this is where RD∩ϕ earns its keep;
///  * variable assignments kill/gen in the classic way, with the special
///    (x, ?) pair standing for the initial value;
///  * entry of init(ss_i) is {(x,?) | x ∈ FV(ss_i)} ∪ {(s,?) | s ∈ FS(ss_i)}.
///
/// Kill sets are kept as the resources they kill. The paper's
/// {(x,?)} ∪ {(x,l') | l' assigns x in ss_i}, and a wait's (s,?) plus the
/// process's waits, meet the process's dense domain (rd/DenseDomain.h) in
/// exactly x's resp. s's contiguous range, so the solver masks ranges:
/// O(NL * K / 64) words per process of NL labels and K domain pairs, not
/// O(D^2) pairs for a variable assigned D times. Only the reference solver
/// builds the literal pair sets (literalRdKillGen).
///
/// The quantifications over cf tuples are computed in factored form (the
/// tuple components range independently, see cfg/CFG.h): per process, the
/// union of every *other* process's wait aggregates, as signal-id bitsets
/// built by one suffix and one prefix sweep — O(P * S / 64) words for P
/// processes and S signals. The cold path (computeReachingDefsKillGen)
/// and the incremental one (rd/Incremental.h) share these aggregates and
/// the per-process fill.
/// The explicit product definition is also implemented for validation on
/// small programs (EnumerateCrossFlowTuples).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_REACHINGDEFS_H
#define VIF_RD_REACHINGDEFS_H

#include "rd/ActiveSignals.h"

namespace vif {

struct ReachingDefsOptions {
  /// Disables the RD∩ϕ-based kill at waits (the ablation ABL-RD in
  /// DESIGN.md): present-value definitions of signals then survive every
  /// synchronization, as in a naive adaptation of Reaching Definitions.
  bool UseMustActiveKill = true;
  /// Computes the wait kill/gen sets by explicit enumeration of cf tuples
  /// instead of the factored form (validation only; exponential).
  bool EnumerateCrossFlowTuples = false;
  /// Routes the whole pipeline through the retained sorted-vector
  /// reference solvers (analyzeActiveSignalsReference /
  /// analyzeReachingDefsReference) instead of the dense bit-vector ones.
  /// Used by the differential tests to compare complete IFA results, and
  /// available as an escape hatch while the dense solvers are young.
  bool ReferenceSolver = false;
  /// Worker threads for the per-process fixpoints (both the active-signal
  /// and the RDcf solvers): each process is an independent fixpoint with
  /// disjoint labels and result slots, so they fan out over a
  /// support/Parallel.h pool. 1 (the default) solves inline; results are
  /// identical for every value. Deliberately *not* part of the session
  /// cache key (driver/SessionCache.cpp) — it never changes an artifact.
  unsigned Jobs = 1;
  /// Emulates the Reaching Definitions component of Hsieh & Levitan's
  /// analysis as the paper characterizes it (Section 1): definitions from
  /// *other* processes are only sampled at their process ends, so "a
  /// definition ... present at a synchronization point within the process
  /// but overwritten before the end of the process" is lost. Kept as the
  /// ABL-HL baseline; unsound for multi-wait processes, exactly the
  /// paper's criticism.
  bool HsiehLevitanCrossFlow = false;
};

/// Per-label results of RDcf; tables indexed by label. Solved densely over
/// per-process (Resource, Label) BitSet domains; `Result.Entry[L]` /
/// `Result.Exit[L]` materialize sorted-vector PairSets on first access
/// (see rd/DenseDomain.h), and forEachPairOf serves resource-indexed
/// queries straight off the dense representation.
struct ReachingDefsResult {
  LazyPairSets Entry; ///< RDcf entry(l)
  LazyPairSets Exit;  ///< RDcf exit(l)
  size_t Iterations = 0;

  /// Definitions reaching the end of process \p P: the union of exits of
  /// its final labels (used by the program-end outgoing extension).
  PairSet atProcessEnd(const ProcessCFG &P) const;

  /// Heap footprint in bytes; Entry and Exit share their per-process
  /// domains and matrices, counted once (cache byte-budget accounting).
  size_t memoryBytes() const {
    std::unordered_set<const void *> Seen;
    return Entry.memoryBytes(Seen) + Exit.memoryBytes(Seen);
  }
};

/// Runs RDcf for the whole program, given the Table 4 results \p Active.
ReachingDefsResult analyzeReachingDefs(const ElaboratedProgram &Program,
                                       const ProgramCFG &CFG,
                                       const ActiveSignalsResult &Active,
                                       const ReachingDefsOptions &Opts = {});

/// The original sorted-vector-PairSet worklist solver, retained as the
/// oracle for the dense one (differential tests assert identical Entry and
/// Exit sets on every workload family).
ReachingDefsResult
analyzeReachingDefsReference(const ElaboratedProgram &Program,
                             const ProgramCFG &CFG,
                             const ActiveSignalsResult &Active,
                             const ReachingDefsOptions &Opts = {});

/// The Table 5 kill/gen sets per label (shared by the worklist solver and
/// the ALFP encoding of the equations; vectors indexed by label). Kill[L]
/// lists the killed resources: x at a whole [x := e]^l, the must-active
/// signals at a wait.
struct ReachingDefsKillGen {
  KilledResources Kill;
  std::vector<PairSet> Gen;
};

ReachingDefsKillGen
computeReachingDefsKillGen(const ProgramCFG &CFG,
                           const ActiveSignalsResult &Active,
                           const ReachingDefsOptions &Opts = {});

/// The factored cf quantifications at the wait labels of process i,
///
///   may(l)  = fst(RD∪ϕentry(l)) ∪ OthersMay[i]
///   must(l) = fst(RD∩ϕentry(l)) ∪ OthersMust[i]
///   OthersMay[i]  = ⋃_{j≠i} ⋃_{l'∈WS_j} fst(RD∪ϕentry(l'))
///   OthersMust[i] = ⋃_{j≠i} ⋂_{l'∈WS_j} fst(RD∩ϕentry(l'))
///
/// as signal-id bitsets indexed by ProcessId. Processes without wait
/// statements do not contribute a component. Under HsiehLevitanCrossFlow
/// OthersMay samples each other process at its textually last wait only,
/// losing definitions overwritten before the process end (the paper's
/// Section 1 criticism).
struct CrossFlowAggregates {
  std::vector<BitSet> OthersMay, OthersMust;
};

/// Builds the aggregates from \p Active's wait-entry rows (read densely,
/// never materialized).
CrossFlowAggregates computeCrossFlowAggregates(const ProgramCFG &CFG,
                                               const ActiveSignalsResult &Active,
                                               bool HsiehLevitan);

/// Fills the Table 5 kill/gen slots of process \p P's labels into the
/// whole-program vectors (which must span all labels; only \p P's slots
/// are written, so processes may be filled concurrently).
void fillProcessRdKillGen(const ProgramCFG &CFG, const ProcessCFG &P,
                          const ActiveSignalsResult &Active,
                          const CrossFlowAggregates &Agg,
                          const ReachingDefsOptions &Opts,
                          KilledResources &Kill,
                          std::vector<PairSet> &Gen);

/// The paper's literal Table 5 kill and gen sets at \p P's labels, into
/// \p Kill and \p Gen (spanning all labels). Assignments are derived
/// straight from the CFG rather than from \p KG: a whole [x := e]^l kills
/// (x,?) plus every (x,l') with l' assigning x in P, and generates (x,l).
/// Waits expand \p KG's cross-flow sets: a killed signal s becomes (s,?)
/// plus P's waits. Validation only (the reference solver and the kill-row
/// oracles).
void literalRdKillGen(const ProgramCFG &CFG, const ProcessCFG &P,
                      const ReachingDefsKillGen &KG,
                      std::vector<PairSet> &Kill, std::vector<PairSet> &Gen);

/// One process's dense Table 5 solution — the unit the incremental layer
/// caches and recomposes whole-program results from. Rows are indexed by
/// the process's FlowIndex local label order; the matrices are null when
/// the domain is empty (every set stays ∅).
struct RdProcessArtifact {
  std::shared_ptr<const DefPairDomain> Dom;
  std::shared_ptr<const BitMatrix> Entry, Exit;
  uint64_t Iterations = 0;
};

/// Solves the RDcf fixpoint of one process given the per-label kill/gen
/// vectors (only \p P's label slots are read): exactly the per-process
/// body of analyzeReachingDefs, exposed so dirty processes can be
/// re-solved in isolation.
RdProcessArtifact solveProcessRd(const ProgramCFG &CFG, const ProcessCFG &P,
                                 const KilledResources &Kill,
                                 const std::vector<PairSet> &Gen);

/// Installs \p A's rows into the whole-program result tables (the label
/// slots of \p P only; the shared matrices are referenced, not copied).
void installProcessRd(ReachingDefsResult &R, const ProgramCFG &CFG,
                      const ProcessCFG &P, const RdProcessArtifact &A);

} // namespace vif

#endif // VIF_RD_REACHINGDEFS_H
