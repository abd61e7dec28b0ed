//===- rd/ActiveSignals.h - RD for active signals (Table 4) -----*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Reaching Definitions analysis for *active* signal values of paper
/// Table 4 — a forward Monotone Framework instance over P(Sig x Lab), run
/// per process, with the paper's unusual twist of computing both
///
///  * RD∪ϕ: an over-approximation (which signals *may* be active, and from
///    which assignment) — union over predecessor exits; and
///  * RD∩ϕ: an under-approximation (which signals *must* be active) —
///    ⋂˙ over predecessor exits.
///
/// Kill/gen (Table 4):
///  * a whole signal assignment [s <= e]^l kills every assignment to s in
///    the same process and generates (s, l); slice assignments only
///    generate (no kill — they overwrite part of the active value);
///  * a wait statement kills every signal assignment of its process (the
///    synchronization consumes all active values);
///  * everything else is transparent.
///
/// The under-approximation exists solely to give the cross-process analysis
/// of Table 5 a sound, non-trivial kill component for present values; the
/// least solution satisfies RD∩ ⊆ RD∪ thanks to ⋂˙∅ = ∅.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_ACTIVESIGNALS_H
#define VIF_RD_ACTIVESIGNALS_H

#include "rd/DenseDomain.h"
#include "rd/PairSet.h"

namespace vif {

/// Per-label results of the active-signal analyses; tables are indexed by
/// label (entry 0, the "?" label, is unused). The solver runs densely over
/// per-process BitSet domains; `Result.MayEntry[L]` etc. materialize the
/// classic sorted-vector PairSet on first access (see rd/DenseDomain.h).
struct ActiveSignalsResult {
  LazyPairSets MayEntry;  ///< RD∪ϕ entry(l)
  LazyPairSets MayExit;   ///< RD∪ϕ exit(l)
  LazyPairSets MustEntry; ///< RD∩ϕ entry(l)
  LazyPairSets MustExit;  ///< RD∩ϕ exit(l)

  /// Number of worklist iterations used (for the complexity experiments).
  size_t Iterations = 0;

  /// Heap footprint in bytes; the four tables share their per-process
  /// domains and matrices, counted once (cache byte-budget accounting).
  size_t memoryBytes() const {
    std::unordered_set<const void *> Seen;
    return MayEntry.memoryBytes(Seen) + MayExit.memoryBytes(Seen) +
           MustEntry.memoryBytes(Seen) + MustExit.memoryBytes(Seen);
  }
};

/// Runs both analyses for every process of \p Program, as a bit-vector
/// framework: dense (Sig, Lab) domains, CSR adjacency, RPO-seeded
/// worklist. \p Jobs > 1 fans the independent per-process fixpoints over
/// a thread pool (results identical for every value).
ActiveSignalsResult analyzeActiveSignals(const ElaboratedProgram &Program,
                                         const ProgramCFG &CFG,
                                         unsigned Jobs = 1);

/// The original sorted-vector-PairSet chaotic-iteration solver, retained as
/// the oracle for the dense one: the differential tests assert that both
/// compute identical May/Must Entry/Exit sets on every workload family.
ActiveSignalsResult
analyzeActiveSignalsReference(const ElaboratedProgram &Program,
                              const ProgramCFG &CFG);

/// The Table 4 kill/gen sets per label (shared by the worklist solver and
/// the ALFP encoding of the equations; vectors indexed by label). Kill[L]
/// lists the killed signals, each standing for all its assignments in the
/// process (see DefPairDomain::maskResources).
struct ActiveKillGen {
  KilledResources Kill;
  std::vector<PairSet> Gen;
};

ActiveKillGen computeActiveKillGen(const ProgramCFG &CFG);

/// Fills the Table 4 kill/gen sets of the single process \p P into \p KG,
/// whose vectors must already span all labels. computeActiveKillGen is
/// this per process; the incremental layer (rd/Incremental.h) calls it for
/// dirty processes only.
void computeActiveKillGenFor(const ProgramCFG &CFG, const ProcessCFG &P,
                             ActiveKillGen &KG);

/// The paper's literal Table 4 kill and gen sets at \p P's labels, into
/// \p Kill and \p Gen (spanning all labels), derived straight from the
/// CFG rather than from computeActiveKillGen: a whole [s <= e]^l kills
/// {(s,l') | l' assigns s in P}, a wait kills every such pair of P, and
/// [s <= e]^l generates (s,l). Validation only (the reference solver and
/// the kill-row oracles).
void literalActiveKillGen(const ProgramCFG &CFG, const ProcessCFG &P,
                          std::vector<PairSet> &Kill,
                          std::vector<PairSet> &Gen);

/// One process's dense Table 4 solution — the unit the incremental layer
/// caches and recomposes whole-program results from. Rows are indexed by
/// the process's FlowIndex local label order; the matrices are null when
/// the domain is empty (every set stays ∅).
struct ActiveProcessArtifact {
  std::shared_ptr<const DefPairDomain> Dom;
  std::shared_ptr<const BitMatrix> MayEntry, MayExit, MustEntry, MustExit;
  uint64_t Iterations = 0;
};

/// Solves the Table 4 fixpoint of one process: exactly the per-process body
/// of analyzeActiveSignals, exposed so dirty processes can be re-solved in
/// isolation.
ActiveProcessArtifact solveProcessActive(const ProgramCFG &CFG,
                                         const ProcessCFG &P,
                                         const ActiveKillGen &KG);

/// Installs \p A's rows into the whole-program result tables (the label
/// slots of \p P only; the shared matrices are referenced, not copied).
void installProcessActive(ActiveSignalsResult &R, const ProgramCFG &CFG,
                          const ProcessCFG &P,
                          const ActiveProcessArtifact &A);

} // namespace vif

#endif // VIF_RD_ACTIVESIGNALS_H
