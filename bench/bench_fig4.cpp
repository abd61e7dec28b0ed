//===- bench/bench_fig4.cpp - Figure 4 regeneration -----------------------===//
//
// Part of the vif project; see DESIGN.md (experiment FIG4).
//
// Paper claim (Figure 4, Section 5.3): the improved analysis of program (b)
// `b:=a; c:=b` with incoming (n◦) and outgoing (n•) nodes shows that the
// initial value of a reaches every outgoing value, while the initial value
// of b reaches nothing — "the initial value of the variable b cannot be
// read from the variable c".
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cfg/CFG.h"
#include "ifa/InformationFlow.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace vif;
using vif::bench::mustElaborateStatements;

namespace {

const char *ProgramB = "b := a; c := b;";

void regenerateFigure(std::FILE *Out) {
  std::fprintf(Out, "== FIG4: improved analysis of program (b)\n");
  ElaboratedProgram P = mustElaborateStatements(ProgramB);
  ProgramCFG CFG = ProgramCFG::build(P);

  IFAResult Plain = analyzeInformationFlow(P, CFG);
  std::fprintf(Out, "Figure 4(a) — basic graph:");
  Plain.Graph.forEachSortedEdge([Out](std::string_view From, std::string_view To) {
    std::fprintf(Out, "  %.*s->%.*s", static_cast<int>(From.size()),
                 From.data(), static_cast<int>(To.size()), To.data());
  });
  std::fprintf(Out, "\n");

  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  IFAResult Improved = analyzeInformationFlow(P, CFG, Opts);
  Digraph Interface = Improved.interfaceGraph();
  std::fprintf(Out, "Figure 4(b) — interface graph (%zu nodes):",
              Interface.numNodes());
  Interface.forEachSortedEdge([Out](std::string_view From, std::string_view To) {
    std::fprintf(Out, "  %.*s->%.*s", static_cast<int>(From.size()),
                 From.data(), static_cast<int>(To.size()), To.data());
  });
  std::fprintf(Out, "\n");
  std::fprintf(Out, "b-initial leaks to c: %s (paper: must be no)\n\n",
              Interface.hasEdge("b◦", "c•") ? "YES (bug!)" : "no");
}

void BM_Fig4_Improved(benchmark::State &State) {
  ElaboratedProgram P = mustElaborateStatements(ProgramB);
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  for (auto _ : State) {
    IFAResult R = analyzeInformationFlow(P, CFG, Opts);
    benchmark::DoNotOptimize(R.RMgl.size());
  }
}
BENCHMARK(BM_Fig4_Improved);

void BM_Fig4_InterfaceExtraction(benchmark::State &State) {
  ElaboratedProgram P = mustElaborateStatements(ProgramB);
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  IFAResult R = analyzeInformationFlow(P, CFG, Opts);
  for (auto _ : State) {
    Digraph G = R.interfaceGraph();
    benchmark::DoNotOptimize(G.numEdges());
  }
}
BENCHMARK(BM_Fig4_InterfaceExtraction);

} // namespace

int main(int argc, char **argv) {
  regenerateFigure(vif::bench::figureStream(argc, argv));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
