//===- rd/ReachingDefs.cpp ------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/ReachingDefs.h"

#include "cfg/FlowIndex.h"
#include "support/Casting.h"
#include "support/Parallel.h"

#include <algorithm>
#include <deque>
#include <map>

using namespace vif;

PairSet ReachingDefsResult::atProcessEnd(const ProcessCFG &P) const {
  PairSet Result;
  for (LabelId L : P.Finals)
    Result.unionWith(Exit[L]);
  return Result;
}

namespace {

/// Sets the id bit of every signal with a pair in slot \p L of \p T into
/// \p Out, straight off the dense row (no materialization, so processes
/// may run this concurrently).
void addSignalsOf(const LazyPairSets &T, LabelId L, BitSet &Out) {
  T.forEachPair(L, [&](DefPair P) {
    if (P.N.isSignal())
      Out.set(P.N.id());
  });
}

/// For each I: the union of Per[J] over every J != I, by a suffix sweep
/// followed by a running prefix — O(P * S / 64) instead of P^2 unions.
std::vector<BitSet> othersUnion(const std::vector<BitSet> &Per,
                                size_t NumSignals) {
  size_t N = Per.size();
  std::vector<BitSet> Out(N, BitSet(NumSignals));
  for (size_t J = N; J-- > 1;) {
    Out[J - 1] = Out[J];
    Out[J - 1].unionWith(Per[J]);
  }
  BitSet Prefix(NumSignals);
  for (size_t I = 0; I < N; ++I) {
    Out[I].unionWith(Prefix);
    Prefix.unionWith(Per[I]);
  }
  return Out;
}

/// The initial definitions {(x,?) | x ∈ FV(ss_i)} ∪ {(s,?) | s ∈ FS(ss_i)}.
PairSet initialDefs(const ProcessCFG &P) {
  PairSet Initial;
  for (unsigned Var : P.FreeVars)
    Initial.insert(DefPair{Resource::variable(Var), InitialLabel});
  for (unsigned Sig : P.FreeSigs)
    Initial.insert(DefPair{Resource::signal(Sig), InitialLabel});
  return Initial;
}

/// Reference implementation by explicit tuple enumeration (validation).
void enumeratedMayMust(const ProgramCFG &CFG,
                       const ActiveSignalsResult &Active, LabelId L,
                       BitSet &May, BitSet &Must) {
  May.clearAll();
  Must.clearAll();
  bool FirstTuple = true;
  BitSet TupleMay(May.size()), TupleMust(Must.size());
  for (const std::vector<LabelId> &Tuple : CFG.crossFlowTuples()) {
    if (std::find(Tuple.begin(), Tuple.end(), L) == Tuple.end())
      continue;
    TupleMay.clearAll();
    TupleMust.clearAll();
    for (LabelId T : Tuple) {
      addSignalsOf(Active.MayEntry, T, TupleMay);
      addSignalsOf(Active.MustEntry, T, TupleMust);
    }
    May.unionWith(TupleMay);
    if (FirstTuple)
      Must = TupleMust;
    else
      Must.intersectWith(TupleMust);
    FirstTuple = false;
  }
  // ⋂˙ over an empty family is ∅ — May/Must stay empty if no tuple passes
  // through L (impossible for a genuine wait label).
}

} // namespace

CrossFlowAggregates
vif::computeCrossFlowAggregates(const ProgramCFG &CFG,
                                const ActiveSignalsResult &Active,
                                bool HsiehLevitan) {
  // Only signal assignments generate active pairs (Table 4), so their
  // targets bound the signal ids any aggregate can hold.
  size_t NumSignals = 0;
  for (LabelId L = 1; L <= CFG.numLabels(); ++L)
    if (CFG.block(L).K == CFGBlock::Kind::SignalAssign)
      NumSignals = std::max<size_t>(
          NumSignals,
          cast<SignalAssignStmt>(CFG.block(L).S)->targetRef().Id + 1);

  // Per process j: ⋃ resp. ⋂ over WS_j, and (Hsieh-Levitan) the may set
  // at the textually last wait only. Waitless processes keep ∅ in all
  // three, so they drop out of the others' unions.
  size_t NumProcs = CFG.processes().size();
  std::vector<BitSet> MayUnion(NumProcs, BitSet(NumSignals));
  std::vector<BitSet> MustIntersect(NumProcs, BitSet(NumSignals));
  std::vector<BitSet> MayAtEnd(NumProcs, BitSet(NumSignals));
  BitSet Must(NumSignals);
  for (const ProcessCFG &P : CFG.processes()) {
    unsigned Pid = P.ProcessId;
    for (LabelId L : P.WaitLabels) {
      addSignalsOf(Active.MayEntry, L, MayUnion[Pid]);
      Must.clearAll();
      addSignalsOf(Active.MustEntry, L, Must);
      if (L == P.WaitLabels.front())
        MustIntersect[Pid] = Must;
      else
        MustIntersect[Pid].intersectWith(Must);
    }
    if (!P.WaitLabels.empty())
      addSignalsOf(Active.MayEntry, P.WaitLabels.back(), MayAtEnd[Pid]);
  }

  CrossFlowAggregates Agg;
  Agg.OthersMay = othersUnion(HsiehLevitan ? MayAtEnd : MayUnion, NumSignals);
  Agg.OthersMust = othersUnion(MustIntersect, NumSignals);
  return Agg;
}

void vif::fillProcessRdKillGen(const ProgramCFG &CFG, const ProcessCFG &P,
                               const ActiveSignalsResult &Active,
                               const CrossFlowAggregates &Agg,
                               const ReachingDefsOptions &Opts,
                               KilledResources &Kill,
                               std::vector<PairSet> &Gen) {
  const BitSet &OthersMay = Agg.OthersMay[P.ProcessId];
  const BitSet &OthersMust = Agg.OthersMust[P.ProcessId];
  BitSet May(OthersMay.size()), Must(OthersMust.size());
  // Gen sets are appended in DefPair order, kill lists in Resource order.
  for (LabelId L : P.Labels) {
    const CFGBlock &B = CFG.block(L);
    switch (B.K) {
    case CFGBlock::Kind::VarAssign: {
      const auto *A = cast<VarAssignStmt>(B.S);
      Resource Var = Resource::variable(A->targetRef().Id);
      Gen[L].append(DefPair{Var, L});
      if (!A->hasSlice())
        Kill[L].push_back(Var);
      break;
    }
    case CFGBlock::Kind::Wait: {
      if (Opts.EnumerateCrossFlowTuples) {
        enumeratedMayMust(CFG, Active, L, May, Must);
      } else {
        May = OthersMay;
        Must = OthersMust;
        addSignalsOf(Active.MayEntry, L, May);
        addSignalsOf(Active.MustEntry, L, Must);
      }
      May.forEach([&](size_t Sig) {
        Gen[L].append(DefPair{Resource::signal(static_cast<unsigned>(Sig)), L});
      });
      if (Opts.UseMustActiveKill)
        Must.forEach([&](size_t Sig) {
          Kill[L].push_back(Resource::signal(static_cast<unsigned>(Sig)));
        });
      break;
    }
    case CFGBlock::Kind::Null:
    case CFGBlock::Kind::SignalAssign:
    case CFGBlock::Kind::Cond:
      break;
    }
  }
}

void vif::literalRdKillGen(const ProgramCFG &CFG, const ProcessCFG &P,
                           const ReachingDefsKillGen &KG,
                           std::vector<PairSet> &Kill,
                           std::vector<PairSet> &Gen) {
  // (x,?) and every (x,l') with [x := e]^l' in P: the pool an assignment
  // kill draws from.
  PairSet VarDefs;
  for (LabelId L : P.Labels)
    if (CFG.block(L).K == CFGBlock::Kind::VarAssign) {
      Resource Var = Resource::variable(
          cast<VarAssignStmt>(CFG.block(L).S)->targetRef().Id);
      VarDefs.insert(DefPair{Var, InitialLabel});
      VarDefs.insert(DefPair{Var, L});
    }
  for (LabelId L : P.Labels) {
    const CFGBlock &B = CFG.block(L);
    if (B.K == CFGBlock::Kind::VarAssign) {
      const auto *A = cast<VarAssignStmt>(B.S);
      Resource Var = Resource::variable(A->targetRef().Id);
      Gen[L].insert(DefPair{Var, L});
      if (!A->hasSlice())
        for (DefPair D : VarDefs)
          if (D.N == Var)
            Kill[L].insert(D);
    } else if (B.K == CFGBlock::Kind::Wait) {
      // Signals are defined at waits, wS(ss_i).
      Gen[L] = KG.Gen[L];
      for (Resource Sig : KG.Kill[L]) {
        Kill[L].insert(DefPair{Sig, InitialLabel});
        for (LabelId W : P.WaitLabels)
          Kill[L].insert(DefPair{Sig, W});
      }
    }
  }
}

ReachingDefsKillGen
vif::computeReachingDefsKillGen(const ProgramCFG &CFG,
                                const ActiveSignalsResult &Active,
                                const ReachingDefsOptions &Opts) {
  CrossFlowAggregates Agg =
      computeCrossFlowAggregates(CFG, Active, Opts.HsiehLevitanCrossFlow);
  ReachingDefsKillGen KG;
  KG.Kill.resize(CFG.numLabels() + 1);
  KG.Gen.resize(CFG.numLabels() + 1);
  // Each process writes only its own label slots.
  parallelFor(Opts.Jobs, CFG.processes().size(), [&](size_t PI) {
    fillProcessRdKillGen(CFG, CFG.processes()[PI], Active, Agg, Opts, KG.Kill,
                         KG.Gen);
  });
  return KG;
}

ReachingDefsResult
vif::analyzeReachingDefs(const ElaboratedProgram &Program,
                         const ProgramCFG &CFG,
                         const ActiveSignalsResult &Active,
                         const ReachingDefsOptions &Opts) {
  size_t NumLabels = CFG.numLabels();
  ReachingDefsResult R;
  R.Entry.resize(NumLabels + 1);
  R.Exit.resize(NumLabels + 1);

  ReachingDefsKillGen KG = computeReachingDefsKillGen(CFG, Active, Opts);

  // Forward may analysis, per-process flow, run densely: every pair that
  // can ever be present comes from the initial {(n, ?)} set or some gen
  // set, so those pairs form the process's bit-vector domain. Processes
  // are independent fixpoints writing disjoint label slots, so they fan
  // out over a thread pool (Opts.Jobs); iteration counts are accumulated
  // per process and summed after the join.
  size_t NumProcs = CFG.processes().size();
  std::vector<size_t> Iterations(NumProcs, 0);
  parallelFor(Opts.Jobs, NumProcs, [&](size_t ProcIdx) {
    const ProcessCFG &P = CFG.processes()[ProcIdx];
    RdProcessArtifact A = solveProcessRd(CFG, P, KG.Kill, KG.Gen);
    Iterations[ProcIdx] = A.Iterations;
    installProcessRd(R, CFG, P, A);
  });
  for (size_t N : Iterations)
    R.Iterations += N;
  (void)Program;
  return R;
}

RdProcessArtifact
vif::solveProcessRd(const ProgramCFG &CFG, const ProcessCFG &P,
                    const KilledResources &Kill,
                    const std::vector<PairSet> &Gen) {
  RdProcessArtifact A;
  PairSet Initial = initialDefs(P);

  auto Dom = std::make_shared<DefPairDomain>();
  Dom->addAll(Initial);
  for (LabelId L : P.Labels)
    Dom->addAll(Gen[L]);
  Dom->finalize();
  A.Dom = Dom;
  size_t K = Dom->size();
  if (K == 0)
    return A; // nothing is ever defined: every set stays ∅ (the default)

  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  size_t NL = FI.numLabels();
  size_t W = (K + 63) / 64;

  // Whole-table BitMatrix rows instead of per-label BitSets; the two
  // result tables are shared with the label slots installed later. A kill
  // row is the union of its killed resources' domain ranges.
  std::vector<uint64_t> InitialMask(W, 0);
  Dom->maskInto(Initial, InitialMask.data());
  BitMatrix KillM(NL, K), GenM(NL, K);
  for (uint32_t I = 0; I < NL; ++I) {
    Dom->maskResources(Kill[FI.label(I)], KillM.row(I));
    Dom->maskInto(Gen[FI.label(I)], GenM.row(I));
  }

  auto Entry = std::make_shared<BitMatrix>(NL, K);
  auto Exit = std::make_shared<BitMatrix>(NL, K);

  std::deque<uint32_t> Work(FI.rpo().begin(), FI.rpo().end());
  std::vector<uint8_t> InWork(NL, 1);
  uint32_t InitLocal = FI.localOf(P.Init);

  std::vector<uint64_t> In(W);
  while (!Work.empty()) {
    uint32_t I = Work.front();
    Work.pop_front();
    InWork[I] = 0;
    ++A.Iterations;

    // The init label carries the initial {(n, ?)} definitions; if it is
    // re-entered (possible in bare statement programs without the
    // isolated-entry wrapper) predecessor exits are merged as well.
    if (I == InitLocal)
      BitMatrix::copy(In.data(), InitialMask.data(), W);
    else
      BitMatrix::clear(In.data(), W);
    for (uint32_t Pred : FI.preds(I))
      BitMatrix::orInto(In.data(), Exit->row(Pred), W);
    BitMatrix::copy(Entry->row(I), In.data(), W);

    BitMatrix::subtract(In.data(), KillM.row(I), W);
    BitMatrix::orInto(In.data(), GenM.row(I), W);

    if (BitMatrix::equal(In.data(), Exit->row(I), W))
      continue;
    BitMatrix::copy(Exit->row(I), In.data(), W);
    for (uint32_t Succ : FI.succs(I))
      if (!InWork[Succ]) {
        Work.push_back(Succ);
        InWork[Succ] = 1;
      }
  }

  A.Entry = std::move(Entry);
  A.Exit = std::move(Exit);
  return A;
}

void vif::installProcessRd(ReachingDefsResult &R, const ProgramCFG &CFG,
                           const ProcessCFG &P, const RdProcessArtifact &A) {
  if (!A.Entry)
    return; // empty domain: the default (empty) slots are already right
  const FlowIndex &FI = CFG.flowIndex(P.ProcessId);
  size_t NL = FI.numLabels();
  for (uint32_t I = 0; I < NL; ++I) {
    LabelId L = FI.label(I);
    R.Entry.setDense(L, A.Dom, A.Entry, I);
    R.Exit.setDense(L, A.Dom, A.Exit, I);
  }
}

ReachingDefsResult
vif::analyzeReachingDefsReference(const ElaboratedProgram &Program,
                                  const ProgramCFG &CFG,
                                  const ActiveSignalsResult &Active,
                                  const ReachingDefsOptions &Opts) {
  size_t NumLabels = CFG.numLabels();
  ReachingDefsResult R;
  R.Entry.resize(NumLabels + 1);
  R.Exit.resize(NumLabels + 1);

  // The paper's literal kill and gen sets, pair by pair; assignments are
  // read straight off the CFG, waits take the cross-flow sets.
  ReachingDefsKillGen KG = computeReachingDefsKillGen(CFG, Active, Opts);
  std::vector<PairSet> Kill(NumLabels + 1), Gen(NumLabels + 1);

  for (const ProcessCFG &P : CFG.processes()) {
    literalRdKillGen(CFG, P, KG, Kill, Gen);
    PairSet Initial = initialDefs(P);

    std::vector<PairSet> Exit(NumLabels + 1);

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

      PairSet In;
      if (L == P.Init)
        In = Initial;
      for (LabelId Pred : Preds[L])
        In.unionWith(Exit[Pred]);
      R.Entry.setEager(L, In);

      PairSet Out = std::move(In);
      Out.subtract(Kill[L]);
      Out.unionWith(Gen[L]);

      if (Out == Exit[L])
        continue;
      Exit[L] = std::move(Out);
      for (const auto &[From, To] : P.Flow)
        if (From == L && !InWork[To]) {
          Work.push_back(To);
          InWork[To] = true;
        }
    }

    for (LabelId L : P.Labels)
      R.Exit.setEager(L, std::move(Exit[L]));
  }
  (void)Program;
  return R;
}
