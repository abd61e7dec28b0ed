//===- perfbench/src/Oracle.cpp -------------------------------------------===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Common.h"

#include "driver/AnalysisSession.h"

#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

using namespace perfbench;
using namespace vif;

namespace {

std::vector<uint64_t> edgeHashes(const Digraph &G) {
  std::vector<uint64_t> H;
  H.reserve(G.numEdges());
  G.forEachSortedEdge(
      [&](std::string_view A, std::string_view B) { H.push_back(edgeHash(A, B)); });
  std::sort(H.begin(), H.end());
  return H;
}

/// Shortest path of length >= 1 from \p Src to \p Sink, plus the sizes of
/// the forward and backward reachable sets (length >= 1 semantics, the
/// query engine's contract).
void bfsAnswer(const std::vector<std::vector<uint32_t>> &Succ,
               const std::vector<std::vector<uint32_t>> &Pred, uint32_t Src,
               uint32_t Sink, QueryRef &Q) {
  auto Sweep = [](const std::vector<std::vector<uint32_t>> &Adj,
                  uint32_t From, std::vector<uint32_t> &Dist) {
    Dist.assign(Adj.size(), 0);
    std::deque<uint32_t> Work;
    for (uint32_t N : Adj[From])
      if (!Dist[N]) {
        Dist[N] = 1;
        Work.push_back(N);
      }
    while (!Work.empty()) {
      uint32_t N = Work.front();
      Work.pop_front();
      for (uint32_t M : Adj[N])
        if (!Dist[M]) {
          Dist[M] = Dist[N] + 1;
          Work.push_back(M);
        }
    }
    uint32_t Count = 0;
    for (uint32_t D : Dist)
      Count += D != 0;
    return Count;
  };
  std::vector<uint32_t> Dist;
  Q.Backward = Sweep(Pred, Sink, Dist);
  Q.Forward = Sweep(Succ, Src, Dist);
  Q.Dist = Dist[Sink];
  Q.Reaches = Q.Dist != 0;
}

/// Sorts the edges of the reference graph that Kemmerer's graph lacks into
/// allowed and unexplained ones. Kemmerer closes RMlo, where a wait
/// statement reads (R0) its `on` set, its `until` condition and the
/// conditions enclosing it but modifies nothing, so the baseline misses the
/// implicit flow from what a wait reads to whatever the waiting process
/// assigns, and every flow onward from there. A gap A -> B is allowed only
/// if B is reachable from A over Kemmerer's local (pre-closure) edges plus
/// those wait edges: the graph Kemmerer's method would close had it seen
/// them.
void classifyKemmererGaps(const ElaboratedProgram &P, const ProgramCFG &C,
                          const IFAResult &I, const KemmererResult &K,
                          RefDesign &R) {
  std::unordered_map<std::string, uint32_t> Ids;
  std::vector<std::vector<uint32_t>> Succ;
  auto Node = [&](std::string_view Name) {
    auto [It, New] = Ids.emplace(std::string(Name), Succ.size());
    if (New)
      Succ.emplace_back();
    return It->second;
  };
  K.LocalGraph.forEachSortedEdge([&](std::string_view A, std::string_view B) {
    uint32_t From = Node(A), To = Node(B);
    Succ[From].push_back(To);
  });
  std::vector<std::vector<uint32_t>> WaitReads(P.Processes.size()),
      Assigned(P.Processes.size());
  for (const RMEntry &E : I.RMlo) {
    if (E.L == InitialLabel)
      continue;
    unsigned Proc = C.processOf(E.L);
    if (E.A == Access::M0 || E.A == Access::M1)
      Assigned[Proc].push_back(Node(E.N.name(P)));
    else if (E.A == Access::R0 && C.isWaitLabel(E.L))
      WaitReads[Proc].push_back(Node(E.N.name(P)));
  }
  for (size_t Proc = 0; Proc < WaitReads.size(); ++Proc)
    for (uint32_t From : WaitReads[Proc])
      Succ[From].insert(Succ[From].end(), Assigned[Proc].begin(),
                        Assigned[Proc].end());

  // Reachable sets (paths of length >= 1), computed once per gap source.
  std::unordered_map<uint32_t, std::vector<bool>> Reach;
  auto Reaches = [&](uint32_t From, uint32_t To) {
    auto [It, New] = Reach.emplace(From, std::vector<bool>());
    std::vector<bool> &Seen = It->second;
    if (New) {
      Seen.assign(Succ.size(), false);
      std::vector<uint32_t> Work(Succ[From]);
      while (!Work.empty()) {
        uint32_t N = Work.back();
        Work.pop_back();
        if (Seen[N])
          continue;
        Seen[N] = true;
        Work.insert(Work.end(), Succ[N].begin(), Succ[N].end());
      }
    }
    return To < Seen.size() && Seen[To];
  };
  I.Graph.forEachSortedEdge([&](std::string_view A, std::string_view B) {
    if (K.Graph.hasEdge(A, B))
      return;
    if (Reaches(Node(A), Node(B))) {
      ++R.KemmererGaps;
      return;
    }
    if (!R.KemmererUnexplained++)
      R.FirstUnexplained = std::string(A) + " -> " + std::string(B);
  });
}

RefDesign referenceFor(const Design &D, uint64_t Seed) {
  RefDesign R;
  driver::SessionOptions Opts;
  Opts.Statements = D.Statements;
  Opts.Ifa.RD.ReferenceSolver = true;
  Opts.Ifa.ReferenceClosure = true;
  Opts.Ifa.RD.EnumerateCrossFlowTuples = D.Enumerate;
  driver::AnalysisSession S =
      driver::AnalysisSession::fromSource(D.Name, D.Source, Opts);
  const IFAResult *I = S.ifa();
  const KemmererResult *K = S.kemmerer();
  if (!I || !K)
    return R;
  const ElaboratedProgram &P = *S.program();
  const Digraph &G = I->Graph;
  R.Processes = static_cast<uint32_t>(P.Processes.size());
  R.Signals = static_cast<uint32_t>(P.Signals.size());
  R.Variables = static_cast<uint32_t>(P.Variables.size());
  R.Nodes = static_cast<uint32_t>(G.numNodes());
  std::vector<uint64_t> Edges = edgeHashes(G);
  R.Edges = Edges.size();
  R.EdgeSet = edgeSetHash(Edges);
  R.Ok = true;
  classifyKemmererGaps(P, *S.cfg(), *I, *K, R);

  if (D.Queries && G.numNodes()) {
    size_t N = G.numNodes();
    std::vector<std::vector<uint32_t>> Succ(N), Pred(N);
    std::vector<std::pair<uint32_t, uint32_t>> EdgeIds;
    G.forEachEdgeId([&](Digraph::NodeId A, Digraph::NodeId B) {
      Succ[A].push_back(B);
      Pred[B].push_back(A);
      EdgeIds.emplace_back(A, B);
    });
    Rng Q(Seed ^ hashBytes(D.Name) ^ hashBytes(D.Source));
    for (unsigned I = 0; I < D.Queries; ++I) {
      // Half the pairs start at an edge's source, so most of those reach
      // something; the sink is any node.
      uint32_t Src = (I % 2 == 0 && !EdgeIds.empty())
                         ? EdgeIds[Q.below(EdgeIds.size())].first
                         : static_cast<uint32_t>(Q.below(N));
      uint32_t Sink = static_cast<uint32_t>(Q.below(N));
      QueryRef QR;
      QR.From = std::string(G.name(Src));
      QR.To = std::string(G.name(Sink));
      bfsAnswer(Succ, Pred, Src, Sink, QR);
      R.Queries.push_back(std::move(QR));
    }
  }
  return R;
}

// A minimal binary encoding for the parent/child hand-off.
void putU64(std::string &Out, uint64_t V) {
  Out.append(reinterpret_cast<const char *>(&V), 8);
}
void putStr(std::string &Out, const std::string &S) {
  putU64(Out, S.size());
  Out += S;
}
struct Reader {
  const std::string &In;
  size_t Pos = 0;
  bool Bad = false;
  uint64_t u64() {
    uint64_t V = 0;
    if (Pos + 8 > In.size()) {
      Bad = true;
      return 0;
    }
    std::memcpy(&V, In.data() + Pos, 8);
    Pos += 8;
    return V;
  }
  std::string str() {
    uint64_t N = u64();
    if (Bad || Pos + N > In.size()) {
      Bad = true;
      return {};
    }
    std::string S = In.substr(Pos, N);
    Pos += N;
    return S;
  }
};

void encode(std::string &Out, uint64_t Index, const RefDesign &R) {
  putU64(Out, Index);
  putU64(Out, R.Ok);
  putU64(Out, R.Processes);
  putU64(Out, R.Signals);
  putU64(Out, R.Variables);
  putU64(Out, R.Nodes);
  putU64(Out, R.KemmererGaps);
  putU64(Out, R.KemmererUnexplained);
  putStr(Out, R.FirstUnexplained);
  putU64(Out, R.Edges);
  putU64(Out, R.EdgeSet);
  putU64(Out, R.Queries.size());
  for (const QueryRef &Q : R.Queries) {
    putStr(Out, Q.From);
    putStr(Out, Q.To);
    putU64(Out, Q.Reaches);
    putU64(Out, Q.Dist);
    putU64(Out, Q.Forward);
    putU64(Out, Q.Backward);
  }
}

bool decode(Reader &In, std::vector<RefDesign> &Out) {
  uint64_t Index = In.u64();
  if (In.Bad || Index >= Out.size())
    return false;
  RefDesign &R = Out[Index];
  R.Ok = In.u64();
  R.Processes = static_cast<uint32_t>(In.u64());
  R.Signals = static_cast<uint32_t>(In.u64());
  R.Variables = static_cast<uint32_t>(In.u64());
  R.Nodes = static_cast<uint32_t>(In.u64());
  R.KemmererGaps = static_cast<uint32_t>(In.u64());
  R.KemmererUnexplained = static_cast<uint32_t>(In.u64());
  R.FirstUnexplained = In.str();
  R.Edges = In.u64();
  R.EdgeSet = In.u64();
  uint64_t NQ = In.u64();
  for (uint64_t I = 0; I < NQ && !In.Bad; ++I) {
    QueryRef Q;
    Q.From = In.str();
    Q.To = In.str();
    Q.Reaches = In.u64();
    Q.Dist = static_cast<uint32_t>(In.u64());
    Q.Forward = static_cast<uint32_t>(In.u64());
    Q.Backward = static_cast<uint32_t>(In.u64());
    R.Queries.push_back(std::move(Q));
  }
  return !In.Bad;
}

} // namespace

uint64_t perfbench::edgeSetHash(const std::vector<uint64_t> &Sorted) {
  return hashBytes(std::string_view(reinterpret_cast<const char *>(Sorted.data()),
                                    Sorted.size() * sizeof(uint64_t)));
}

bool perfbench::computeReferences(const std::vector<Design> &Designs,
                                  uint64_t Seed, const std::string &WorkDir,
                                  unsigned Workers,
                                  std::vector<RefDesign> &Out,
                                  std::string &Error) {
  return computeReferences([&](size_t I) { return Designs[I]; },
                           Designs.size(), Seed, WorkDir, Workers, Out, Error);
}

bool perfbench::computeReferences(const std::function<Design(size_t)> &Make,
                                  size_t Count, uint64_t Seed,
                                  const std::string &WorkDir, unsigned Workers,
                                  std::vector<RefDesign> &Out,
                                  std::string &Error) {
  Out.assign(Count, RefDesign());
  std::fflush(nullptr);
  std::vector<pid_t> Kids;
  for (unsigned W = 0; W < Workers; ++W) {
    pid_t Pid = fork();
    if (Pid < 0) {
      Error = "fork failed";
      break;
    }
    if (Pid == 0) {
      std::string Blob;
      for (size_t I = W; I < Count; I += Workers)
        encode(Blob, I, referenceFor(Make(I), Seed));
      std::ofstream F(WorkDir + "/ref-" + std::to_string(W) + ".bin",
                      std::ios::binary);
      F << Blob;
      F.close();
      _exit(F ? 0 : 1);
    }
    Kids.push_back(Pid);
  }
  bool Ok = Error.empty();
  for (pid_t Pid : Kids) {
    int Status = 0;
    waitpid(Pid, &Status, 0);
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      Error = "reference child failed";
      Ok = false;
    }
  }
  for (unsigned W = 0; Ok && W < Kids.size(); ++W) {
    std::string Path = WorkDir + "/ref-" + std::to_string(W) + ".bin";
    std::ifstream F(Path, std::ios::binary);
    std::stringstream SS;
    SS << F.rdbuf();
    std::string Blob = SS.str();
    std::remove(Path.c_str());
    Reader In{Blob};
    while (Ok && In.Pos < Blob.size())
      if (!decode(In, Out)) {
        Error = "corrupt reference file";
        Ok = false;
      }
  }
  return Ok;
}
