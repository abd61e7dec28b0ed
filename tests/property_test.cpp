//===- tests/property_test.cpp - Cross-cutting analysis invariants --------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties that must hold on arbitrary programs, exercised over the
/// deterministic random families of workloads/Synthetic.h:
///
///  * precision order: the RD-guided graph is a subgraph of Kemmerer's
///    transitive closure (same local matrix, strictly finer closure);
///  * RD∩ ⊆ RD∪ everywhere (the paper's ⋂˙ guarantee);
///  * RMlo ⊆ RMgl and RMgl \ RMlo carries only R0 entries;
///  * idempotence of the closure (re-running adds nothing);
///  * determinism (two runs produce identical results).
///
//===----------------------------------------------------------------------===//

#include "EdgeList.h"
#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "parse/Parser.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <set>

using namespace vif;

namespace {

struct Analyzed {
  ElaboratedProgram Program;
  ProgramCFG CFG;
  IFAResult R;
  KemmererResult K;
};

Analyzed analyze(const std::string &Source, bool IsDesign,
                 IFAOptions Opts = {}) {
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  if (IsDesign) {
    DesignFile F = parseDesign(Source, Diags);
    P = elaborateDesign(F, Diags);
  } else {
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  }
  EXPECT_TRUE(P.has_value()) << Diags.str() << "\n" << Source;
  Analyzed A{std::move(*P), {}, {}, {}};
  A.CFG = ProgramCFG::build(A.Program);
  A.R = analyzeInformationFlow(A.Program, A.CFG, Opts);
  A.K = analyzeKemmerer(A.Program, A.CFG);
  return A;
}

void checkInvariants(const Analyzed &A, const std::string &Tag) {
  // Precision order: every RD-guided edge is in Kemmerer's closure, EXCEPT
  // flows that originate at a synchronization point (resources read by a
  // wait's S set or until condition). Kemmerer's local matrix has no
  // modify entry at waits, so his method cannot see those flows at all —
  // the two methods are comparable only away from synchronization reads.
  // Interface nodes (n◦/n•) likewise have no Kemmerer counterpart.
  std::set<std::string> WaitReadSources;
  for (const ProcessCFG &Proc : A.CFG.processes())
    for (LabelId L : Proc.WaitLabels)
      for (Resource N : A.R.RMlo.resourcesAt(L, Access::R0))
        WaitReadSources.insert(N.name(A.Program));
  for (const auto &[From, To] : test::edgeList(A.R.Graph)) {
    auto IsInterface = [](const std::string &N) {
      return N.find("◦") != std::string::npos ||
             N.find("•") != std::string::npos;
    };
    if (IsInterface(From) || IsInterface(To))
      continue;
    // A source that is itself a sync read, or feeds one (transitively, by
    // Kemmerer's own closure), may flow through the synchronization gate —
    // a channel Kemmerer's model does not have.
    bool FeedsSync = WaitReadSources.count(From) != 0;
    for (const std::string &W : WaitReadSources)
      FeedsSync |= A.K.Graph.hasNode(From) && A.K.Graph.hasNode(W) &&
                   A.K.Graph.hasEdge(From, W);
    if (FeedsSync)
      continue;
    EXPECT_TRUE(A.K.Graph.hasEdge(From, To))
        << Tag << ": RD-guided edge " << From << "->" << To
        << " missing from Kemmerer's closure";
  }

  // RD∩ ⊆ RD∪.
  for (LabelId L = 1; L <= A.CFG.numLabels(); ++L) {
    for (const DefPair &D : A.R.Active.MustEntry[L])
      EXPECT_TRUE(A.R.Active.MayEntry[L].contains(D)) << Tag;
    for (const DefPair &D : A.R.Active.MustExit[L])
      EXPECT_TRUE(A.R.Active.MayExit[L].contains(D)) << Tag;
  }

  // RMlo ⊆ RMgl; the closure only adds R0 entries (plus the outgoing M
  // pseudo-entries, which live at labels above the real ones).
  for (const RMEntry &E : A.R.RMlo)
    EXPECT_TRUE(A.R.RMgl.contains(E.N, E.L, E.A)) << Tag;
  for (const RMEntry &E : A.R.RMgl) {
    if (A.R.RMlo.contains(E.N, E.L, E.A))
      continue;
    bool IsOutgoingM = E.L > A.CFG.numLabels() &&
                       (E.A == Access::M0 || E.A == Access::M1);
    EXPECT_TRUE(E.A == Access::R0 || IsOutgoingM) << Tag;
  }
}

class RandomStatementPrograms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomStatementPrograms, Invariants) {
  std::string Source = workloads::randomStatements(GetParam(), 25, 6);
  Analyzed A = analyze(Source, false);
  checkInvariants(A, "stmt seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStatementPrograms,
                         ::testing::Range<uint64_t>(1, 26));

class RandomDesigns : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDesigns, Invariants) {
  std::string Source =
      workloads::randomDesign(GetParam(), 2 + GetParam() % 3, 8, 4);
  Analyzed A = analyze(Source, true);
  checkInvariants(A, "design seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesigns,
                         ::testing::Range<uint64_t>(1, 26));

class RandomDesignsImproved : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDesignsImproved, InvariantsWithInterfaceNodes) {
  IFAOptions Opts;
  Opts.Improved = true;
  std::string Source = workloads::randomPortedDesign(GetParam(), 3, 6, 3, 2);
  Analyzed A = analyze(Source, true, Opts);
  checkInvariants(A, "ported seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesignsImproved,
                         ::testing::Range<uint64_t>(1, 16));

TEST(Determinism, RepeatedAnalysisIsIdentical) {
  std::string Source = workloads::randomDesign(7, 3, 10, 4);
  Analyzed A = analyze(Source, true);
  Analyzed B = analyze(Source, true);
  EXPECT_TRUE(A.R.Graph.sameFlows(B.R.Graph));
  EXPECT_TRUE(A.R.RMgl == B.R.RMgl);
  EXPECT_EQ(A.R.Graph.dot(), B.R.Graph.dot());
}

TEST(Idempotence, ClosureIsAFixpoint) {
  // Feeding the analysis its own program twice (re-elaborated) must give
  // the same RMgl; and Kemmerer's closure is idempotent by construction.
  std::string Source = workloads::tempReuseLadder(3, 4);
  Analyzed A = analyze(Source, false);
  Digraph Once = A.K.Graph;
  Digraph Twice = Once.transitiveClosure();
  EXPECT_TRUE(Once.sameFlows(Twice));
}

TEST(Determinism, GraphNodeOrderIsStable) {
  std::string Source = workloads::randomDesign(11, 4, 6, 5);
  Analyzed A = analyze(Source, true);
  std::vector<std::string> N1 = A.R.Graph.sortedNodes();
  Analyzed B = analyze(Source, true);
  EXPECT_EQ(N1, B.R.Graph.sortedNodes());
}

} // namespace
