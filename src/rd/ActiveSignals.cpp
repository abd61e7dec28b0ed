//===- rd/ActiveSignals.cpp -----------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/ActiveSignals.h"

#include "cfg/FlowIndex.h"
#include "support/Casting.h"
#include "support/Parallel.h"

#include <deque>
#include <map>
#include <set>

using namespace vif;

void vif::computeActiveKillGenFor(const ProgramCFG &CFG, const ProcessCFG &P,
                                  ActiveKillGen &KG) {
  std::set<Resource> Assigned;
  for (LabelId L : P.Labels) {
    const CFGBlock &B = CFG.block(L);
    if (B.K != CFGBlock::Kind::SignalAssign)
      continue;
    const auto *A = cast<SignalAssignStmt>(B.S);
    Resource Sig = Resource::signal(A->targetRef().Id);
    // Whole assignments kill every assignment to s in this process;
    // slice assignments only generate (Table 4 lists no kill for them).
    if (!A->hasSlice())
      KG.Kill[L] = {Sig};
    KG.Gen[L].insert(DefPair{Sig, L});
    Assigned.insert(Sig);
  }
  // Synchronization consumes all active values of the process.
  for (LabelId L : P.WaitLabels)
    KG.Kill[L].assign(Assigned.begin(), Assigned.end());
}

void vif::literalActiveKillGen(const ProgramCFG &CFG, const ProcessCFG &P,
                               std::vector<PairSet> &Kill,
                               std::vector<PairSet> &Gen) {
  // Every (s, l) with [s <= e]^l in P: the gen pairs, and the pool each
  // kill set draws from.
  PairSet Defs;
  for (LabelId L : P.Labels)
    if (CFG.block(L).K == CFGBlock::Kind::SignalAssign)
      Defs.insert(DefPair{
          Resource::signal(
              cast<SignalAssignStmt>(CFG.block(L).S)->targetRef().Id),
          L});
  for (LabelId L : P.Labels) {
    const CFGBlock &B = CFG.block(L);
    if (B.K == CFGBlock::Kind::Wait) {
      Kill[L] = Defs;
      continue;
    }
    if (B.K != CFGBlock::Kind::SignalAssign)
      continue;
    const auto *A = cast<SignalAssignStmt>(B.S);
    Resource Sig = Resource::signal(A->targetRef().Id);
    Gen[L].insert(DefPair{Sig, L});
    if (!A->hasSlice())
      for (DefPair D : Defs)
        if (D.N == Sig)
          Kill[L].insert(D);
  }
}

ActiveKillGen vif::computeActiveKillGen(const ProgramCFG &CFG) {
  ActiveKillGen KG;
  KG.Kill.resize(CFG.numLabels() + 1);
  KG.Gen.resize(CFG.numLabels() + 1);
  for (const ProcessCFG &P : CFG.processes())
    computeActiveKillGenFor(CFG, P, KG);
  return KG;
}

ActiveProcessArtifact vif::solveProcessActive(const ProgramCFG &CFG,
                                              const ProcessCFG &P,
                                              const ActiveKillGen &KG) {
  ActiveProcessArtifact A;
  // The dense domain: only gen'd pairs can ever be present (⊥ = ∅ and
  // the transfer functions add nothing else).
  auto Dom = std::make_shared<DefPairDomain>();
  for (LabelId L : P.Labels)
    Dom->addAll(KG.Gen[L]);
  Dom->finalize();
  A.Dom = Dom;
  size_t K = Dom->size();
  if (K == 0)
    return A; // no signal definitions: every set stays ∅ (the default)

  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  size_t NL = FI.numLabels();
  size_t W = (K + 63) / 64;

  // All per-label sets live as rows of whole-table matrices: two
  // scratch tables, four shared result tables (the result slots
  // reference their rows; ~six allocations per process, not 6 x NL).
  BitMatrix Kill(NL, K), Gen(NL, K);
  for (uint32_t I = 0; I < NL; ++I) {
    Dom->maskResources(KG.Kill[FI.label(I)], Kill.row(I));
    Dom->maskInto(KG.Gen[FI.label(I)], Gen.row(I));
  }

  auto MayEn = std::make_shared<BitMatrix>(NL, K);
  auto MayEx = std::make_shared<BitMatrix>(NL, K);
  auto MustEn = std::make_shared<BitMatrix>(NL, K);
  auto MustEx = std::make_shared<BitMatrix>(NL, K);

  // Chaotic iteration from ⊥ = ∅ to the least fixpoint; both transfer
  // functions are monotone (⋂˙ ranges over a fixed predecessor family).
  // The worklist starts in reverse postorder so the first sweep sees
  // predecessors first on acyclic stretches.
  std::deque<uint32_t> Work(FI.rpo().begin(), FI.rpo().end());
  std::vector<uint8_t> InWork(NL, 1);
  uint32_t InitLocal = FI.localOf(P.Init);

  std::vector<uint64_t> MayIn(W), MustIn(W);
  while (!Work.empty()) {
    uint32_t I = Work.front();
    Work.pop_front();
    InWork[I] = 0;
    ++A.Iterations;

    // Entry equations. The paper assumes isolated entries (the
    // null;while wrapper guarantees them for processes); bare statement
    // programs may re-enter their init label, so the may analysis also
    // merges predecessor exits there. The must analysis keeps ∅ at init:
    // the program-start path carries no active signals and dominates the
    // ⋂˙ — and ⋂˙ over an empty predecessor family is ∅ as well.
    FlowIndex::Range Preds = FI.preds(I);
    BitMatrix::clear(MayIn.data(), W);
    for (uint32_t Pred : Preds)
      BitMatrix::orInto(MayIn.data(), MayEx->row(Pred), W);
    BitMatrix::clear(MustIn.data(), W);
    if (I != InitLocal && !Preds.empty()) {
      BitMatrix::copy(MustIn.data(), MustEx->row(Preds.First[0]), W);
      for (const uint32_t *It = Preds.First + 1; It != Preds.Last; ++It)
        BitMatrix::andWith(MustIn.data(), MustEx->row(*It), W);
    }
    BitMatrix::copy(MayEn->row(I), MayIn.data(), W);
    BitMatrix::copy(MustEn->row(I), MustIn.data(), W);

    // Exit equations: (entry \ kill) ∪ gen.
    BitMatrix::subtract(MayIn.data(), Kill.row(I), W);
    BitMatrix::orInto(MayIn.data(), Gen.row(I), W);
    BitMatrix::subtract(MustIn.data(), Kill.row(I), W);
    BitMatrix::orInto(MustIn.data(), Gen.row(I), W);

    if (BitMatrix::equal(MayIn.data(), MayEx->row(I), W) &&
        BitMatrix::equal(MustIn.data(), MustEx->row(I), W))
      continue;
    BitMatrix::copy(MayEx->row(I), MayIn.data(), W);
    BitMatrix::copy(MustEx->row(I), MustIn.data(), W);
    for (uint32_t Succ : FI.succs(I))
      if (!InWork[Succ]) {
        Work.push_back(Succ);
        InWork[Succ] = 1;
      }
  }

  A.MayEntry = std::move(MayEn);
  A.MayExit = std::move(MayEx);
  A.MustEntry = std::move(MustEn);
  A.MustExit = std::move(MustEx);
  return A;
}

void vif::installProcessActive(ActiveSignalsResult &R, const ProgramCFG &CFG,
                               const ProcessCFG &P,
                               const ActiveProcessArtifact &A) {
  if (!A.MayEntry)
    return; // empty domain: the default (empty) slots are already right
  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  size_t NL = FI.numLabels();
  for (uint32_t I = 0; I < NL; ++I) {
    LabelId L = FI.label(I);
    R.MayEntry.setDense(L, A.Dom, A.MayEntry, I);
    R.MayExit.setDense(L, A.Dom, A.MayExit, I);
    R.MustEntry.setDense(L, A.Dom, A.MustEntry, I);
    R.MustExit.setDense(L, A.Dom, A.MustExit, I);
  }
}

ActiveSignalsResult
vif::analyzeActiveSignals(const ElaboratedProgram &Program,
                          const ProgramCFG &CFG, unsigned Jobs) {
  (void)Program;
  size_t NumLabels = CFG.numLabels();
  ActiveSignalsResult R;
  R.MayEntry.resize(NumLabels + 1);
  R.MayExit.resize(NumLabels + 1);
  R.MustEntry.resize(NumLabels + 1);
  R.MustExit.resize(NumLabels + 1);

  ActiveKillGen KG = computeActiveKillGen(CFG);

  // Each process is an independent fixpoint over its own labels and
  // domain; the loop body writes only that process's label slots, so the
  // processes fan out over a thread pool. Iteration counts accumulate
  // per process and are summed after the join, keeping the total
  // deterministic under any Jobs value.
  size_t NumProcs = CFG.processes().size();
  std::vector<size_t> Iterations(NumProcs, 0);
  parallelFor(Jobs, NumProcs, [&](size_t ProcIdx) {
    const ProcessCFG &P = CFG.processes()[ProcIdx];
    ActiveProcessArtifact A = solveProcessActive(CFG, P, KG);
    Iterations[ProcIdx] = A.Iterations;
    installProcessActive(R, CFG, P, A);
  });
  for (size_t N : Iterations)
    R.Iterations += N;
  return R;
}

ActiveSignalsResult
vif::analyzeActiveSignalsReference(const ElaboratedProgram &Program,
                                   const ProgramCFG &CFG) {
  (void)Program;
  size_t NumLabels = CFG.numLabels();
  ActiveSignalsResult R;
  R.MayEntry.resize(NumLabels + 1);
  R.MayExit.resize(NumLabels + 1);
  R.MustEntry.resize(NumLabels + 1);
  R.MustExit.resize(NumLabels + 1);

  // The paper's literal kill and gen sets, pair by pair, straight from
  // the CFG: a wrong production kill list cannot leak in here.
  std::vector<PairSet> Kill(NumLabels + 1), Gen(NumLabels + 1);

  for (const ProcessCFG &P : CFG.processes()) {
    literalActiveKillGen(CFG, P, Kill, Gen);
    std::vector<PairSet> MayExit(NumLabels + 1), MustExit(NumLabels + 1);

    std::map<LabelId, std::vector<LabelId>> Preds;
    for (const auto &[From, To] : P.Flow)
      Preds[To].push_back(From);

    std::deque<LabelId> Work(P.Labels.begin(), P.Labels.end());
    std::vector<bool> InWork(NumLabels + 1, false);
    for (LabelId L : P.Labels)
      InWork[L] = true;

    while (!Work.empty()) {
      LabelId L = Work.front();
      Work.pop_front();
      InWork[L] = false;
      ++R.Iterations;

      PairSet MayIn, MustIn;
      std::vector<const PairSet *> PredExitsMust;
      for (LabelId Pred : Preds[L]) {
        MayIn.unionWith(MayExit[Pred]);
        PredExitsMust.push_back(&MustExit[Pred]);
      }
      if (L != P.Init)
        MustIn = PairSet::dottedIntersection(PredExitsMust);
      R.MayEntry.setEager(L, MayIn);
      R.MustEntry.setEager(L, MustIn);

      PairSet MayOut = std::move(MayIn);
      MayOut.subtract(Kill[L]);
      MayOut.unionWith(Gen[L]);
      PairSet MustOut = std::move(MustIn);
      MustOut.subtract(Kill[L]);
      MustOut.unionWith(Gen[L]);

      bool Changed = !(MayOut == MayExit[L]) || !(MustOut == MustExit[L]);
      MayExit[L] = std::move(MayOut);
      MustExit[L] = std::move(MustOut);
      if (!Changed)
        continue;
      for (const auto &[From, To] : P.Flow)
        if (From == L && !InWork[To]) {
          Work.push_back(To);
          InWork[To] = true;
        }
    }

    for (LabelId L : P.Labels) {
      R.MayExit.setEager(L, std::move(MayExit[L]));
      R.MustExit.setEager(L, std::move(MustExit[L]));
    }
  }
  return R;
}
