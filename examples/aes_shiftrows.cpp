//===- examples/aes_shiftrows.cpp - Figure 5 reproduction -----------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
//
// Reproduces the paper's showcase experiment (Section 6, Figure 5): the AES
// ShiftRows function, loops unrolled, all three shifted rows flowing through
// the same temporaries. Kemmerer's method smears flows across rows; the
// RD-guided analysis recovers the exact per-row rotation. Emits both graphs
// as DOT on request.
//
//===----------------------------------------------------------------------===//

#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "parse/Parser.h"
#include "workloads/AesVhdl.h"

#include <iostream>
#include <string>

using namespace vif;

namespace {

/// Strips the ◦ / • interface marks so incoming and outgoing nodes merge,
/// as the paper does for Figure 5(b).
std::string stripMarks(std::string_view Name) {
  auto Strip = [&](std::string_view Suffix) -> std::string {
    if (Name.size() >= Suffix.size() &&
        Name.substr(Name.size() - Suffix.size()) == Suffix)
      return std::string(Name.substr(0, Name.size() - Suffix.size()));
    return std::string(Name);
  };
  std::string Out = Strip("◦");
  if (Out != Name)
    return Out;
  return Strip("•");
}

bool isStateNode(std::string_view Name) {
  return Name.rfind("a_", 0) == 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Dot = Argc > 1 && std::string(Argv[1]) == "--dot";

  DiagnosticEngine Diags;
  StatementProgram Prog =
      parseStatementProgram(workloads::shiftRowsStatements(), Diags);
  std::optional<ElaboratedProgram> Program =
      elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  if (!Program) {
    Diags.print(std::cerr);
    return 1;
  }
  ProgramCFG CFG = ProgramCFG::build(*Program);

  // Our analysis, improved (Table 9), end of the function treated as the
  // outgoing synchronization point; then merge n◦/n• and keep the 12 state
  // nodes — exactly the presentation of Figure 5(b).
  IFAOptions Opts;
  Opts.ProgramEndOutgoing = true;
  IFAResult Ours = analyzeInformationFlow(*Program, CFG, Opts);
  Digraph OursMerged =
      Ours.Graph.mergeNodes(stripMarks).inducedSubgraph(isStateNode);

  // Kemmerer's method on the same program, restricted to the state nodes.
  KemmererResult Base = analyzeKemmerer(*Program, CFG);
  Digraph BaseState = Base.Graph.inducedSubgraph(isStateNode);

  if (Dot) {
    BaseState.printDOT(std::cout, "kemmerer_shiftrows");
    OursMerged.printDOT(std::cout, "rd_guided_shiftrows");
    return 0;
  }

  std::cout << "AES ShiftRows, rows 1-3 through shared temporaries "
               "(12 state nodes)\n\n";
  std::cout << "Kemmerer's method: " << BaseState.numEdges()
            << " edges between state bytes\n";
  std::cout << "RD-guided analysis: " << OursMerged.numEdges()
            << " edges between state bytes\n\n";
  std::cout << "RD-guided flows (expected: row r rotated left by r):\n";
  OursMerged.forEachSortedEdge([](std::string_view From, std::string_view To) {
    std::cout << "  " << From << " -> " << To << '\n';
  });
  std::cout << "\nKemmerer false positives: "
            << BaseState.edgesNotIn(OursMerged).size() << " spurious edges"
            << " (cross-row flows through the reused temporaries)\n";
  return 0;
}
