//===- examples/covert_channel_audit.cpp - Common Criteria audit ----------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
//
// The Common Criteria workflow the paper targets (Covert Channel analysis,
// CC Chapter 14): compute the full information-flow graph of a key-handling
// core, then check a flow policy — the key may flow into the ciphertext
// output, but must not flow into the public handshake signal. The example
// core contains exactly that bug.
//
//===----------------------------------------------------------------------===//

#include "ifa/InformationFlow.h"
#include "ifa/Policy.h"
#include "parse/Parser.h"
#include "workloads/AesVhdl.h"

#include <iostream>

using namespace vif;

int main() {
  DiagnosticEngine Diags;
  DesignFile File = parseDesign(workloads::leakyCoreDesign(), Diags);
  std::optional<ElaboratedProgram> Program = elaborateDesign(File, Diags);
  if (!Program) {
    Diags.print(std::cerr);
    return 1;
  }
  ProgramCFG CFG = ProgramCFG::build(*Program);

  IFAOptions Opts;
  Opts.Improved = true; // track incoming/outgoing interface values
  IFAResult R = analyzeInformationFlow(*Program, CFG, Opts);

  std::cout << "information-flow graph of 'leaky' ("
            << R.Graph.numEdges() << " edges):\n";
  R.Graph.forEachSortedEdge([](std::string_view From, std::string_view To) {
    std::cout << "  " << From << " -> " << To << '\n';
  });

  FlowPolicy Policy;
  // The designer declares the intended flows; an auditor forbids the rest.
  Policy.Forbidden.push_back({"key", "ready"});
  Policy.Forbidden.push_back({"key◦", "ready•"});
  Policy.Forbidden.push_back({"din", "ready"});

  std::vector<PolicyViolation> Violations =
      checkFlowPolicy(R.Graph, Policy);
  std::cout << "\npolicy check: " << Violations.size()
            << " violation(s)\n";
  for (const PolicyViolation &V : Violations)
    std::cout << "  forbidden flow " << V.From << " -> " << V.To
              << (V.ViaPath ? " (via path)" : " (direct edge)") << '\n';

  // The audit must find the key -> ready covert channel and must not
  // accuse the legitimate din path.
  bool FoundLeak = false, FalseAlarm = false;
  for (const PolicyViolation &V : Violations) {
    FoundLeak |= V.From.rfind("key", 0) == 0;
    FalseAlarm |= V.From.rfind("din", 0) == 0;
  }
  if (!FoundLeak || FalseAlarm) {
    std::cerr << "audit mismatch\n";
    return 1;
  }
  std::cout << "\naudit: covert channel key -> ready correctly flagged; "
               "din -> ready correctly absent\n";
  return 0;
}
