//===- rd/Incremental.cpp -------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/Incremental.h"

#include "cfg/FlowIndex.h"
#include "support/BinaryIO.h"
#include "support/Casting.h"
#include "support/Hash.h"
#include "support/Parallel.h"

using namespace vif;

ArtifactBlobStore::~ArtifactBlobStore() = default;

//===----------------------------------------------------------------------===//
// Slice hashing
//===----------------------------------------------------------------------===//

namespace {

void hashExpr(HashBuilder &H, const Expr &E) {
  H.u64(static_cast<uint64_t>(E.kind()));
  switch (E.kind()) {
  case Expr::Kind::LogicLiteral:
    H.u64(static_cast<uint64_t>(cast<LogicLiteralExpr>(&E)->value()));
    break;
  case Expr::Kind::VectorLiteral: {
    const LogicVector &V = cast<VectorLiteralExpr>(&E)->value();
    H.u64(V.size());
    for (StdLogic B : V.bits())
      H.u64(static_cast<uint64_t>(B));
    break;
  }
  case Expr::Kind::Name: {
    ObjectRef R = cast<NameExpr>(&E)->ref();
    H.u64(static_cast<uint64_t>(R.K)).u64(R.Id);
    break;
  }
  case Expr::Kind::Slice: {
    const auto *S = cast<SliceExpr>(&E);
    ObjectRef R = S->ref();
    H.u64(static_cast<uint64_t>(R.K)).u64(R.Id);
    H.u64(static_cast<uint64_t>(static_cast<int64_t>(S->slice().Z1)));
    H.u64(static_cast<uint64_t>(static_cast<int64_t>(S->slice().Z2)));
    H.boolean(S->slice().Downto);
    break;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    H.u64(static_cast<uint64_t>(U->op()));
    hashExpr(H, U->sub());
    break;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    H.u64(static_cast<uint64_t>(B->op()));
    hashExpr(H, B->lhs());
    hashExpr(H, B->rhs());
    break;
  }
  }
}

uint64_t hashProcessSlice(const ElaboratedProgram &Program,
                          const ProgramCFG &CFG, const ProcessCFG &P) {
  HashBuilder H;
  H.str("vif-slice-v1");
  H.boolean(Program.process(P.ProcessId).Looped);
  H.u64(P.Init);
  auto ids = [&H](const auto &V) {
    H.u64(V.size());
    for (auto X : V)
      H.u64(X);
  };
  ids(P.Labels);
  ids(P.Finals);
  ids(P.WaitLabels);
  ids(P.FreeVars);
  ids(P.FreeSigs);
  H.u64(P.Flow.size());
  for (const auto &[From, To] : P.Flow)
    H.u64(From).u64(To);
  // Signal classes affect the design-level Table 9 interface handling;
  // fold them in so artifacts never outlive a reclassification.
  for (unsigned Sig : P.FreeSigs)
    H.u64(static_cast<uint64_t>(Program.signal(Sig).Class));
  // The statement slice, in label order. Source ranges are deliberately
  // never hashed: edits elsewhere in the file shift them without
  // changing any analysis input.
  for (LabelId L : P.Labels) {
    const CFGBlock &B = CFG.block(L);
    H.u64(L).u64(static_cast<uint64_t>(B.K));
    switch (B.K) {
    case CFGBlock::Kind::VarAssign:
    case CFGBlock::Kind::SignalAssign: {
      const auto *A = cast<AssignStmtBase>(B.S);
      ObjectRef R = A->targetRef();
      H.u64(static_cast<uint64_t>(R.K)).u64(R.Id);
      H.boolean(A->hasSlice());
      if (A->hasSlice()) {
        H.u64(static_cast<uint64_t>(static_cast<int64_t>(A->slice().Z1)));
        H.u64(static_cast<uint64_t>(static_cast<int64_t>(A->slice().Z2)));
        H.boolean(A->slice().Downto);
      }
      hashExpr(H, A->value());
      break;
    }
    case CFGBlock::Kind::Wait: {
      const auto *W = cast<WaitStmt>(B.S);
      ids(W->onSignals());
      H.boolean(W->hasUntil());
      if (W->hasUntil())
        hashExpr(H, W->until());
      break;
    }
    case CFGBlock::Kind::Cond:
      hashExpr(H, *B.Cond);
      break;
    case CFGBlock::Kind::Null:
      break;
    }
  }
  return H.value();
}

} // namespace

std::vector<uint64_t> vif::hashProcessSlices(const ElaboratedProgram &Program,
                                             const ProgramCFG &CFG) {
  std::vector<uint64_t> Out(CFG.processes().size(), 0);
  for (const ProcessCFG &P : CFG.processes())
    Out[P.ProcessId] = hashProcessSlice(Program, CFG, P);
  return Out;
}

//===----------------------------------------------------------------------===//
// Artifact codecs
//===----------------------------------------------------------------------===//

namespace {

/// Both artifact payloads: iterations, NL, K, the domain's K pairs, then
/// each NL x K matrix of \p Mats (none when K == 0; NL is the row count of
/// the first).
std::string encodeArtifact(uint64_t Iterations, const DefPairDomain *Dom,
                           std::initializer_list<const BitMatrix *> Mats) {
  ByteWriter W;
  W.u64(Iterations);
  size_t K = Dom ? Dom->size() : 0;
  size_t NL = *Mats.begin() ? (*Mats.begin())->numRows() : 0;
  W.u32(static_cast<uint32_t>(NL));
  W.u32(static_cast<uint32_t>(K));
  for (size_t I = 0; I < K; ++I) {
    DefPair P = Dom->pair(I);
    W.u32(P.N.raw());
    W.u32(P.L);
  }
  if (K)
    for (const BitMatrix *M : Mats)
      for (size_t I = 0; I < NL; ++I)
        for (size_t J = 0; J < (K + 63) / 64; ++J)
          W.u64(M->row(I)[J]);
  return W.take();
}

/// Decodes an encodeArtifact payload into \p Iterations, \p DomOut and
/// the matrices \p Mats points to. Returns false on any anomaly; sizes
/// are checked against the remaining bytes before anything is allocated
/// from them, so corrupt headers are rejected cheaply.
bool decodeArtifact(std::string_view Blob, uint64_t &Iterations,
                    std::shared_ptr<const DefPairDomain> &DomOut,
                    std::initializer_list<std::shared_ptr<const BitMatrix> *>
                        Mats) {
  ByteReader R(Blob);
  Iterations = R.u64();
  uint32_t NL = R.u32();
  uint32_t K = R.u32();
  if (!R.ok() || K > R.remaining() / 8)
    return false;
  auto Dom = std::make_shared<DefPairDomain>();
  for (uint32_t I = 0; I < K; ++I) {
    uint32_t Raw = R.u32();
    LabelId L = R.u32();
    Dom->add(DefPair{Resource::fromRaw(Raw), L});
  }
  Dom->finalize();
  // Unsorted or duplicated pairs shrink under finalize — corrupt.
  if (!R.ok() || Dom->size() != K)
    return false;
  if (K) {
    size_t WW = (K + 63) / 64;
    if (uint64_t(NL) > R.remaining() / (WW * 8) / Mats.size())
      return false;
    // Bits beyond K in the last payload word are masked off, so garbage
    // padding can never index outside the domain.
    uint64_t LastMask =
        (K % 64) ? (uint64_t(1) << (K % 64)) - 1 : ~uint64_t(0);
    for (std::shared_ptr<const BitMatrix> *Out : Mats) {
      auto M = std::make_shared<BitMatrix>(NL, K);
      for (uint32_t I = 0; I < NL; ++I) {
        for (size_t J = 0; J < WW; ++J)
          M->row(I)[J] = R.u64();
        M->row(I)[WW - 1] &= LastMask;
      }
      *Out = std::move(M);
    }
  }
  DomOut = std::move(Dom);
  return R.ok() && R.atEnd();
}

} // namespace

std::string vif::encodeActiveArtifact(const ActiveProcessArtifact &A) {
  return encodeArtifact(A.Iterations, A.Dom.get(),
                        {A.MayEntry.get(), A.MayExit.get(), A.MustEntry.get(),
                         A.MustExit.get()});
}

bool vif::decodeActiveArtifact(std::string_view Blob,
                               ActiveProcessArtifact &A) {
  ActiveProcessArtifact Out;
  if (!decodeArtifact(Blob, Out.Iterations, Out.Dom,
                      {&Out.MayEntry, &Out.MayExit, &Out.MustEntry,
                       &Out.MustExit}))
    return false;
  A = std::move(Out);
  return true;
}

std::string vif::encodeRdArtifact(const RdProcessArtifact &A) {
  return encodeArtifact(A.Iterations, A.Dom.get(),
                        {A.Entry.get(), A.Exit.get()});
}

bool vif::decodeRdArtifact(std::string_view Blob, RdProcessArtifact &A) {
  RdProcessArtifact Out;
  if (!decodeArtifact(Blob, Out.Iterations, Out.Dom, {&Out.Entry, &Out.Exit}))
    return false;
  A = std::move(Out);
  return true;
}

//===----------------------------------------------------------------------===//
// ProcessArtifactTable
//===----------------------------------------------------------------------===//

ProcessArtifactTable::ProcessArtifactTable(size_t MaxEntries)
    : Cap(MaxEntries ? MaxEntries : 1) {}

size_t ProcessArtifactTable::size() const {
  std::lock_guard<std::mutex> G(M);
  return Map.size();
}

std::shared_ptr<const void> ProcessArtifactTable::find(uint64_t Key) {
  std::lock_guard<std::mutex> G(M);
  auto It = Map.find(Key);
  if (It == Map.end())
    return nullptr;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return It->second.Value;
}

void ProcessArtifactTable::insert(uint64_t Key,
                                  std::shared_ptr<const void> V) {
  std::lock_guard<std::mutex> G(M);
  auto It = Map.find(Key);
  if (It != Map.end()) {
    It->second.Value = std::move(V);
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return;
  }
  Lru.push_front(Key);
  Map.emplace(Key, Entry{std::move(V), Lru.begin()});
  while (Map.size() > Cap) {
    Map.erase(Lru.back());
    Lru.pop_back();
  }
}

template <typename T>
std::shared_ptr<const T>
ProcessArtifactTable::findAs(uint64_t Key, const char (&Kind)[5],
                             bool (*Decode)(std::string_view, T &)) {
  auto A = std::static_pointer_cast<const T>(find(Key));
  std::string Blob;
  if (!A && Backing && Backing->load(Kind, Key, Blob)) {
    auto Loaded = std::make_shared<T>();
    if (Decode(Blob, *Loaded)) {
      insert(Key, Loaded);
      A = std::move(Loaded);
    }
  }
  (A ? Hits : Misses).fetch_add(1, std::memory_order_relaxed);
  return A;
}

std::shared_ptr<const ActiveProcessArtifact>
ProcessArtifactTable::findActive(uint64_t Key) {
  return findAs<ActiveProcessArtifact>(Key, "actv", decodeActiveArtifact);
}

void ProcessArtifactTable::insertActive(
    uint64_t Key, std::shared_ptr<const ActiveProcessArtifact> A) {
  if (Backing)
    Backing->store("actv", Key, encodeActiveArtifact(*A));
  insert(Key, std::move(A));
}

std::shared_ptr<const RdProcessArtifact>
ProcessArtifactTable::findRd(uint64_t Key) {
  return findAs<RdProcessArtifact>(Key, "rdpr", decodeRdArtifact);
}

void ProcessArtifactTable::insertRd(uint64_t Key,
                                    std::shared_ptr<const RdProcessArtifact> A) {
  if (Backing)
    Backing->store("rdpr", Key, encodeRdArtifact(*A));
  insert(Key, std::move(A));
}

//===----------------------------------------------------------------------===//
// Incremental analysis
//===----------------------------------------------------------------------===//

namespace {

/// Folds a BitSet into a hash as (count, ascending indices) — the
/// canonical form, independent of universe padding.
void hashBitSet(HashBuilder &H, const BitSet &S) {
  H.u64(S.count());
  S.forEach([&H](size_t I) { H.u64(I); });
}

} // namespace

bool vif::analyzeIncremental(const ElaboratedProgram &Program,
                             const ProgramCFG &CFG,
                             const ReachingDefsOptions &Opts,
                             ProcessArtifactTable &Table,
                             ActiveSignalsResult &Active,
                             ReachingDefsResult &RD,
                             IncrementalStats *Stats) {
  // The reference solvers and the explicit tuple enumeration are
  // validation modes; they bypass artifact reuse entirely.
  if (Opts.ReferenceSolver || Opts.EnumerateCrossFlowTuples)
    return false;

  size_t NumLabels = CFG.numLabels();
  size_t NumProcs = CFG.processes().size();

  Active = ActiveSignalsResult();
  Active.MayEntry.resize(NumLabels + 1);
  Active.MayExit.resize(NumLabels + 1);
  Active.MustEntry.resize(NumLabels + 1);
  Active.MustExit.resize(NumLabels + 1);
  RD = ReachingDefsResult();
  RD.Entry.resize(NumLabels + 1);
  RD.Exit.resize(NumLabels + 1);

  std::vector<uint64_t> Slice = hashProcessSlices(Program, CFG);

  // Phase 1: Table 4 artifacts, keyed by the slice alone (the fixpoint
  // reads nothing outside the process). Kill/gen vectors span all labels
  // but only dirty processes' slots are filled — disjoint writes, so the
  // misses solve in parallel just like the cold path.
  ActiveKillGen AKG;
  AKG.Kill.resize(NumLabels + 1);
  AKG.Gen.resize(NumLabels + 1);
  std::vector<uint64_t> ActIters(NumProcs, 0);
  std::vector<uint8_t> ActReused(NumProcs, 0);
  parallelFor(Opts.Jobs, NumProcs, [&](size_t PI) {
    const ProcessCFG &P = CFG.processes()[PI];
    unsigned Pid = P.ProcessId;
    const FlowIndex &FI = CFG.flowIndex(Pid);
    uint64_t Key = HashBuilder().str("actv").u64(Slice[Pid]).value();
    auto A = Table.findActive(Key);
    if (A && A->MayEntry && A->MayEntry->numRows() != FI.numLabels())
      A = nullptr; // shape mismatch (hash collision / stale blob): re-solve
    if (A) {
      ActReused[Pid] = 1;
    } else {
      computeActiveKillGenFor(CFG, P, AKG);
      auto Solved = std::make_shared<ActiveProcessArtifact>(
          solveProcessActive(CFG, P, AKG));
      Table.insertActive(Key, Solved);
      A = std::move(Solved);
    }
    installProcessActive(Active, CFG, P, *A);
    ActIters[Pid] = A->Iterations;
  });
  for (size_t I = 0; I < NumProcs; ++I)
    Active.Iterations += ActIters[I];

  // Phase 2: the factored cross-flow aggregates of Table 5's wait
  // kill/gen — the same O(P * S / 64) bitset sweep the cold path runs.
  CrossFlowAggregates Agg =
      computeCrossFlowAggregates(CFG, Active, Opts.HsiehLevitanCrossFlow);

  // Phase 3: Table 5 artifacts, keyed by the slice plus everything the
  // wait kill/gen sets read from outside the process: the "others"
  // unions and the two options that shape them.
  KilledResources RdKill(NumLabels + 1);
  std::vector<PairSet> RdGen(NumLabels + 1);
  std::vector<uint64_t> RdIters(NumProcs, 0);
  std::vector<uint8_t> RdReused(NumProcs, 0);
  parallelFor(Opts.Jobs, NumProcs, [&](size_t PI) {
    const ProcessCFG &P = CFG.processes()[PI];
    unsigned Pid = P.ProcessId;
    const FlowIndex &FI = CFG.flowIndex(Pid);
    HashBuilder KH;
    KH.str("rdpr").u64(Slice[Pid]);
    hashBitSet(KH, Agg.OthersMay[Pid]);
    hashBitSet(KH, Agg.OthersMust[Pid]);
    KH.boolean(Opts.UseMustActiveKill).boolean(Opts.HsiehLevitanCrossFlow);
    uint64_t Key = KH.value();
    auto A = Table.findRd(Key);
    if (A && A->Entry && A->Entry->numRows() != FI.numLabels())
      A = nullptr; // shape mismatch (hash collision / stale blob): re-solve
    if (A) {
      RdReused[Pid] = 1;
    } else {
      fillProcessRdKillGen(CFG, P, Active, Agg, Opts, RdKill, RdGen);
      auto Solved = std::make_shared<RdProcessArtifact>(
          solveProcessRd(CFG, P, RdKill, RdGen));
      Table.insertRd(Key, Solved);
      A = std::move(Solved);
    }
    installProcessRd(RD, CFG, P, *A);
    RdIters[Pid] = A->Iterations;
  });
  for (size_t I = 0; I < NumProcs; ++I)
    RD.Iterations += RdIters[I];

  if (Stats) {
    for (size_t I = 0; I < NumProcs; ++I) {
      Stats->ActiveReused += ActReused[I];
      Stats->ActiveSolved += !ActReused[I];
      Stats->RdReused += RdReused[I];
      Stats->RdSolved += !RdReused[I];
    }
  }
  return true;
}
