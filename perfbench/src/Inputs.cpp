//===- perfbench/src/Inputs.cpp -------------------------------------------===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Common.h"

#include "gen/Generator.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <numeric>
#include <stdexcept>

using namespace perfbench;

namespace {

const char *const Ops[] = {"and", "or", "xor"};

/// pipelineDesign(N) with stage K's assignment widened by one more read:
/// `s_K <= s_{K-1} OP s_A;` (A < N, so only in/inout ports are read). The
/// edit stays inside process st_K and keeps the design valid.
std::string pipelineVariant(unsigned N, unsigned K, unsigned A, unsigned Op) {
  std::string Src = vif::workloads::pipelineDesign(N);
  std::string Old = "s_" + std::to_string(K) + " <= s_" +
                    std::to_string(K - 1) + ";";
  size_t At = Src.find(Old);
  if (At == std::string::npos)
    throw std::logic_error("pipeline stage not found");
  Src.replace(At, Old.size(),
              "s_" + std::to_string(K) + " <= s_" + std::to_string(K - 1) +
                  " " + Ops[Op] + " s_" + std::to_string(A) + ";");
  return Src;
}

/// randomDesign source with `v_0 := v_0 OP g_S;` prepended to process P's
/// body (every process declares v_0 and v_1; g_S is a bus signal).
std::string randomVariant(const std::string &Base, unsigned P, unsigned S,
                          unsigned Op) {
  std::string Head = "  p_" + std::to_string(P) + " : process\n";
  size_t At = Base.find(Head);
  if (At == std::string::npos)
    throw std::logic_error("process not found");
  At = Base.find("  begin\n", At);
  std::string Src = Base;
  Src.insert(At + 8, "    v_0 := v_0 " + std::string(Ops[Op]) + " g_" +
                         std::to_string(S) + ";\n");
  return Src;
}

/// A single-stage variant whose extra read comes from an earlier stage
/// (A < K), so every seed keeps the acyclic pipeline's graph size and the
/// work per verdict stays comparable across seeds.
Design pipelineStageVariant(Rng &R, unsigned N, const std::string &Name) {
  unsigned K = 1 + static_cast<unsigned>(R.below(N));
  unsigned A = static_cast<unsigned>(R.below(K));
  unsigned Op = static_cast<unsigned>(R.below(3));
  Design D;
  D.Name = Name;
  D.Source = pipelineVariant(N, K, A, Op);
  D.Enumerate = true;
  return D;
}

/// serve-edit base geometry: pipeline/128 and randomDesign(32, 64).
struct EditBase {
  bool Pipeline;
  unsigned Size; ///< stages resp. processes
};
const EditBase EditBases[3] = {{true, 128}, {false, 32}, {false, 64}};

std::string randomBaseSource(uint64_t Seed, unsigned Procs) {
  return vif::workloads::randomDesign(Seed, Procs, 8, Procs / 2);
}

} // namespace

std::vector<Design> perfbench::coldPipelineDesigns(uint64_t Seed) {
  Rng R(Seed ^ 0x70697065ull);
  std::vector<Design> Out;
  // pipeline/256 twice (two variants): the tail statistic needs at least
  // eleven samples of the slowest size, and the median then falls in the
  // middle of the pipeline/192 samples rather than between two sizes.
  for (unsigned N : {64u, 128u, 192u, 256u, 256u})
    Out.push_back(pipelineStageVariant(
        R, N, "pipeline-" + std::to_string(N) + "-" + std::to_string(Out.size())));
  return Out;
}

std::vector<Design> perfbench::coldAesDesigns(uint64_t Seed) {
  Rng R(Seed ^ 0x616573ull);
  std::vector<Design> Out;
  auto Add = [&](std::string Name, std::string Src, bool Statements) {
    Design D;
    D.Name = std::move(Name);
    D.Source = std::move(Src);
    D.Statements = Statements;
    // Single-process fragments: cross-flow enumeration is trivial.
    D.Enumerate = true;
    Out.push_back(std::move(D));
  };
  // SubBytes over 2..8 bytes, the 8-byte one three times: enough samples of
  // the slowest fragment for the tail statistic, and an odd cycle length
  // that puts the median inside one fragment's samples.
  for (unsigned N : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 8u, 8u})
    Add("subbytes-" + std::to_string(N) + "-" + std::to_string(Out.size()),
        vif::workloads::subBytesStatements(N), true);
  Add("mixcolumns", vif::workloads::mixColumnsStatements(), true);
  unsigned Bytes = 8 + static_cast<unsigned>(R.below(9));
  Add("addroundkey-" + std::to_string(Bytes),
      vif::workloads::addRoundKeyStatements(Bytes), true);
  Add("shiftrows-stmts", vif::workloads::shiftRowsStatements(), true);
  Add("shiftrows-design", vif::workloads::shiftRowsDesign(), false);
  // A seeded visiting order; the set itself is fixed.
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[R.below(I)]);
  return Out;
}

std::vector<Design> perfbench::serveWarmDesigns(uint64_t Seed) {
  Rng R(Seed ^ 0x7761726dull);
  // Class of each rank within a block of 12: 8 generated, 3 random, 1
  // pipeline; four blocks make the 48-design working set.
  static const char Pattern[] = "GRGGRGPGRGGG";
  unsigned NextGen = 0, NextRand = 0, NextPipe = 0;
  std::vector<Design> Out;
  for (unsigned Rank = 0; Rank < 48; ++Rank) {
    Design D;
    switch (Pattern[Rank % 12]) {
    case 'G': {
      unsigned I = NextGen++;
      vif::gen::GenOptions O;
      O.Seed = R.next();
      O.Processes = 2 + I % 5;
      O.StmtsPerProcess = 6 + (I % 4) * 2;
      D.Name = "gen-" + std::to_string(I);
      D.Source = vif::gen::generateDesign(O);
      break;
    }
    case 'R': {
      unsigned I = NextRand++;
      unsigned Procs = 16 + 4 * I;
      D.Name = "random-" + std::to_string(Procs);
      D.Source = randomBaseSource(R.next(), Procs);
      break;
    }
    default: {
      unsigned N = 64 * ++NextPipe;
      D = pipelineStageVariant(R, N, "pipeline-" + std::to_string(N));
      break;
    }
    }
    D.Queries = 4;
    Out.push_back(std::move(D));
  }
  return Out;
}

EditStream::EditStream(uint64_t Seed) {
  Rng R(Seed ^ 0x65646974ull);
  for (unsigned B = 0; B < 3; ++B) {
    const EditBase &E = EditBases[B];
    Design D;
    if (E.Pipeline) {
      D.Name = "pipeline-" + std::to_string(E.Size);
      D.Source = vif::workloads::pipelineDesign(E.Size);
      D.Enumerate = true;
    } else {
      D.Name = "random-" + std::to_string(E.Size);
      D.Source = randomBaseSource(R.next(), E.Size);
    }
    D.Queries = 2;
    Bases.push_back(std::move(D));
    // Edit I of base B is combination (Offset + I * Stride) mod Total of
    // (process, read, operator): a full-period walk, so edits never repeat.
    // Pipeline edits read an earlier stage (A < K) only, which keeps the
    // graph acyclic and every edit's cost alike; the random bases' edits
    // read any bus signal.
    uint64_t Pairs = E.Pipeline ? uint64_t(E.Size) * (E.Size + 1) / 2
                                : uint64_t(E.Size) * (E.Size / 2);
    Total[B] = Pairs * 3;
    Offset[B] = R.below(Total[B]);
    Stride[B] = 1 + R.below(Total[B] - 1);
    while (std::gcd(Stride[B], Total[B]) != 1)
      ++Stride[B];
  }
}

Design EditStream::edit(size_t I) const {
  unsigned B = static_cast<unsigned>(I % 3);
  const EditBase &E = EditBases[B];
  uint64_t C = (Offset[B] + (I / 3) * Stride[B]) % Total[B];
  unsigned Op = static_cast<unsigned>(C % 3);
  C /= 3;
  Design D;
  D.Queries = 2;
  if (E.Pipeline) {
    // C indexes the pairs (K, A), 1 <= K <= Size, A < K, row by row.
    unsigned K = 1;
    while (C >= K) {
      C -= K;
      ++K;
    }
    D.Source = pipelineVariant(E.Size, K, static_cast<unsigned>(C), Op);
    D.Enumerate = true;
  } else {
    unsigned P = static_cast<unsigned>(C % E.Size);
    unsigned S = static_cast<unsigned>(C / E.Size);
    D.Source = randomVariant(Bases[B].Source, P, S, Op);
  }
  D.Name = Bases[B].Name + "-edit-" + std::to_string(I);
  return D;
}

std::vector<double> perfbench::zipfCdf(size_t N) {
  std::vector<double> Cdf(N);
  double Sum = 0;
  for (size_t I = 0; I < N; ++I)
    Cdf[I] = (Sum += 1.0 / static_cast<double>(I + 1));
  for (double &C : Cdf)
    C /= Sum;
  return Cdf;
}
