//===- tests/rd_test.cpp - Reaching Definitions (paper Tables 4-5) --------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"
#include "rd/Incremental.h"
#include "rd/ReachingDefs.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace vif;

namespace {

struct Analyzed {
  ElaboratedProgram Program;
  ProgramCFG CFG;
  ActiveSignalsResult Active;
  ReachingDefsResult RD;
};

Analyzed analyzeStmts(const std::string &Source,
                      ReachingDefsOptions Opts = {}) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(Source, Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  Analyzed A{std::move(*P), {}, {}, {}};
  A.CFG = ProgramCFG::build(A.Program);
  A.Active = analyzeActiveSignals(A.Program, A.CFG);
  A.RD = analyzeReachingDefs(A.Program, A.CFG, A.Active, Opts);
  return A;
}

Analyzed analyzeDesign(const std::string &Source,
                       ReachingDefsOptions Opts = {}) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  auto P = elaborateDesign(F, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  Analyzed A{std::move(*P), {}, {}, {}};
  A.CFG = ProgramCFG::build(A.Program);
  A.Active = analyzeActiveSignals(A.Program, A.CFG);
  A.RD = analyzeReachingDefs(A.Program, A.CFG, A.Active, Opts);
  return A;
}

unsigned sigId(const ElaboratedProgram &P, const std::string &Name) {
  for (const ElabSignal &S : P.Signals)
    if (S.Name == Name)
      return S.Id;
  ADD_FAILURE() << "no signal " << Name;
  return 0;
}

unsigned varId(const ElaboratedProgram &P, const std::string &Name) {
  for (const ElabVariable &V : P.Variables)
    if (V.Name == Name)
      return V.Id;
  ADD_FAILURE() << "no variable " << Name;
  return 0;
}

DefPair sig(const ElaboratedProgram &P, const std::string &Name,
            LabelId L) {
  return DefPair{Resource::signal(sigId(P, Name)), L};
}

DefPair var(const ElaboratedProgram &P, const std::string &Name,
            LabelId L) {
  return DefPair{Resource::variable(varId(P, Name)), L};
}

//===----------------------------------------------------------------------===//
// Active signals (Table 4)
//===----------------------------------------------------------------------===//

TEST(ActiveSignals, GenAndKillByWholeAssignment) {
  // [s <= a]^1 [t <= a]^2 [s <= b]^3 [null]^4
  Analyzed A = analyzeStmts("s <= a; t <= a; s <= b; null;");
  EXPECT_TRUE(A.Active.MayExit[1].contains(sig(A.Program, "s", 1)));
  EXPECT_TRUE(A.Active.MayExit[2].contains(sig(A.Program, "t", 2)));
  // The second assignment to s kills the first.
  EXPECT_FALSE(A.Active.MayExit[3].contains(sig(A.Program, "s", 1)));
  EXPECT_TRUE(A.Active.MayExit[3].contains(sig(A.Program, "s", 3)));
  EXPECT_TRUE(A.Active.MayExit[3].contains(sig(A.Program, "t", 2)));
  // Straight-line code: must == may.
  EXPECT_TRUE(A.Active.MustExit[3] == A.Active.MayExit[3]);
}

TEST(ActiveSignals, WaitKillsAllActiveDefs) {
  // [s <= a]^1 [wait on s]^2 [null]^3
  Analyzed A = analyzeStmts("s <= a; wait on s; null;");
  EXPECT_TRUE(A.Active.MayEntry[2].contains(sig(A.Program, "s", 1)));
  EXPECT_TRUE(A.Active.MayExit[2].empty())
      << "synchronization consumes every active value";
}

TEST(ActiveSignals, SliceAssignmentGeneratesWithoutKilling) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(
      "signal v : std_logic_vector(3 downto 0);\n"
      "variable a : std_logic_vector(3 downto 0);\n"
      "variable b : std_logic_vector(1 downto 0);\n"
      "v <= a;\n"              // l1
      "v(1 downto 0) <= b;\n"  // l2: gen only
      "null;",                 // l3
      Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ProgramCFG CFG = ProgramCFG::build(*P);
  ActiveSignalsResult Active = analyzeActiveSignals(*P, CFG);
  // Both definitions reach l3: the slice write does not overwrite the
  // whole active value (Table 4 has no kill for slice assignments).
  EXPECT_TRUE(Active.MayEntry[3].contains(sig(*P, "v", 1)));
  EXPECT_TRUE(Active.MayEntry[3].contains(sig(*P, "v", 2)));
}

TEST(ActiveSignals, MayVsMustAtJoin) {
  // if c then [s <= a]^2 else [null]^3; [null]^5 — s may be active at the
  // join but is not guaranteed to be.
  Analyzed A = analyzeStmts(
      "if c then s <= a; else null; end if; null;");
  // Labels: [c]^1 [s<=a]^2 [null]^3 [null]^4 (join)
  LabelId Join = 4;
  EXPECT_TRUE(A.Active.MayEntry[Join].contains(sig(A.Program, "s", 2)));
  EXPECT_FALSE(A.Active.MustEntry[Join].contains(sig(A.Program, "s", 2)));
}

TEST(ActiveSignals, MustSurvivesWhenBothBranchesAssign) {
  Analyzed A = analyzeStmts(
      "if c then s <= a; else s <= b; end if; null;");
  // Labels: [c]^1 [s<=a]^2 [s<=b]^3 [null]^4.
  EXPECT_TRUE(A.Active.MayEntry[4].contains(sig(A.Program, "s", 2)));
  EXPECT_TRUE(A.Active.MayEntry[4].contains(sig(A.Program, "s", 3)));
  // Neither branch's definition MUST reach (they are alternatives), but
  // the *signal* s must be active via one of them. fst(must) must contain
  // s — the dotted intersection keeps per-(signal,label) pairs, so the
  // pair itself is absent while the union trick in RDcf uses fst().
  EXPECT_FALSE(A.Active.MustEntry[4].contains(sig(A.Program, "s", 2)));
  EXPECT_FALSE(A.Active.MustEntry[4].contains(sig(A.Program, "s", 3)));
}

TEST(ActiveSignals, LoopAccumulatesMayDefs) {
  Analyzed A = analyzeStmts(
      "while c loop s <= a; end loop; null;");
  // Labels: [c]^1 [s<=a]^2 [null]^3.
  EXPECT_TRUE(A.Active.MayEntry[1].contains(sig(A.Program, "s", 2)))
      << "back edge feeds the loop header";
  EXPECT_FALSE(A.Active.MustEntry[1].contains(sig(A.Program, "s", 2)))
      << "zero-trip execution may bypass the assignment";
  EXPECT_TRUE(A.Active.MayEntry[3].contains(sig(A.Program, "s", 2)));
}

TEST(ActiveSignals, MustIsSubsetOfMay) {
  Analyzed A = analyzeStmts(
      "if c then s <= a; t <= b; else s <= b; end if;"
      " while d loop t <= a; end loop; u <= t; null;");
  for (LabelId L = 1; L <= A.CFG.numLabels(); ++L) {
    for (const DefPair &D : A.Active.MustEntry[L])
      EXPECT_TRUE(A.Active.MayEntry[L].contains(D))
          << "RD∩ ⊆ RD∪ violated at label " << L;
    for (const DefPair &D : A.Active.MustExit[L])
      EXPECT_TRUE(A.Active.MayExit[L].contains(D));
  }
}

//===----------------------------------------------------------------------===//
// Variables and present signal values (Table 5)
//===----------------------------------------------------------------------===//

TEST(ReachingDefs, InitialDefsAtEntry) {
  Analyzed A = analyzeStmts("x := a; y := x;");
  // Entry of init: every free variable/signal paired with "?".
  const PairSet &Init = A.RD.Entry[1];
  EXPECT_TRUE(Init.contains(var(A.Program, "x", InitialLabel)));
  EXPECT_TRUE(Init.contains(var(A.Program, "a", InitialLabel)));
  EXPECT_TRUE(Init.contains(var(A.Program, "y", InitialLabel)));
}

TEST(ReachingDefs, VariableAssignmentKillsAndGens) {
  Analyzed A = analyzeStmts("x := a; x := b; y := x;");
  // At l3, only (x,2) reaches.
  EXPECT_TRUE(A.RD.Entry[3].contains(var(A.Program, "x", 2)));
  EXPECT_FALSE(A.RD.Entry[3].contains(var(A.Program, "x", 1)));
  EXPECT_FALSE(A.RD.Entry[3].contains(var(A.Program, "x", InitialLabel)))
      << "(x, ?) is killed by the first assignment";
  // a and b keep their initial defs.
  EXPECT_TRUE(A.RD.Entry[3].contains(var(A.Program, "a", InitialLabel)));
}

TEST(ReachingDefs, BranchesMergeByUnion) {
  Analyzed A = analyzeStmts(
      "if c then x := a; else x := b; end if; y := x;");
  // Labels: [c]^1 [x:=a]^2 [x:=b]^3 [y:=x]^4.
  EXPECT_TRUE(A.RD.Entry[4].contains(var(A.Program, "x", 2)));
  EXPECT_TRUE(A.RD.Entry[4].contains(var(A.Program, "x", 3)));
  EXPECT_FALSE(A.RD.Entry[4].contains(var(A.Program, "x", InitialLabel)));
}

TEST(ReachingDefs, SliceVarAssignDoesNotKill) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(
      "variable v : std_logic_vector(3 downto 0);\n"
      "variable w : std_logic_vector(1 downto 0);\n"
      "v := \"0000\";\n"       // l1
      "v(1 downto 0) := w;\n"  // l2
      "w := v(3 downto 2);",   // l3
      Diags);
  auto P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ProgramCFG CFG = ProgramCFG::build(*P);
  ActiveSignalsResult Active = analyzeActiveSignals(*P, CFG);
  ReachingDefsResult RD = analyzeReachingDefs(*P, CFG, Active);
  EXPECT_TRUE(RD.Entry[3].contains(var(*P, "v", 1)));
  EXPECT_TRUE(RD.Entry[3].contains(var(*P, "v", 2)));
}

TEST(ReachingDefs, WaitDefinesPresentValueOfMayActiveSignals) {
  // [s <= a]^1 [wait on s]^2 [x := s]^3
  Analyzed A = analyzeStmts("s <= a; wait on s; x := s;");
  EXPECT_TRUE(A.RD.Entry[3].contains(sig(A.Program, "s", 2)))
      << "the present value of s is (re)defined at the wait";
  EXPECT_FALSE(A.RD.Entry[3].contains(sig(A.Program, "s", InitialLabel)))
      << "s must be active at the wait, so (s,?) is killed";
}

TEST(ReachingDefs, ConditionalActiveKeepsInitialDef) {
  // s is only conditionally driven, so RD∩ cannot prove it becomes
  // active; the initial definition must survive the wait.
  Analyzed A = analyzeStmts(
      "if c then s <= a; else null; end if; wait on s; x := s;");
  // Labels: [c]^1 [s<=a]^2 [null]^3 [wait]^4 [x:=s]^5.
  EXPECT_TRUE(A.RD.Entry[5].contains(sig(A.Program, "s", 4)));
  EXPECT_TRUE(A.RD.Entry[5].contains(sig(A.Program, "s", InitialLabel)))
      << "under-approximation refuses to kill the initial value";
}

TEST(ReachingDefs, AblationWithoutMustKill) {
  // With the under-approximation disabled (ABL-RD), even an
  // unconditionally driven signal keeps its stale defs across waits.
  ReachingDefsOptions Opts;
  Opts.UseMustActiveKill = false;
  Analyzed A = analyzeStmts("s <= a; wait on s; x := s;", Opts);
  EXPECT_TRUE(A.RD.Entry[3].contains(sig(A.Program, "s", InitialLabel)))
      << "no kill without RD∩";
  EXPECT_TRUE(A.RD.Entry[3].contains(sig(A.Program, "s", 2)));
}

TEST(ReachingDefs, CrossProcessMayActivePropagates) {
  // p2 never drives s itself; the definition arrives via p1's activity.
  Analyzed A = analyzeDesign(R"(
    entity e is port(clk : in std_logic; q : out std_logic); end e;
    architecture rtl of e is
      signal s : std_logic;
    begin
      p1 : process begin s <= clk; wait on clk; end process p1;
      p2 : process
        variable x : std_logic;
      begin
        x := s;
        q <= x;
        wait on s;
      end process p2;
    end rtl;)");
  // Find p2's wait label and the label of x := s.
  const ProcessCFG &P2 = A.CFG.process(1);
  ASSERT_EQ(P2.WaitLabels.size(), 1u);
  LabelId W2 = P2.WaitLabels[0];
  // After the wait, the present value of s is defined at W2 because s may
  // be active in p1 at its wait.
  unsigned S = sigId(A.Program, "s");
  bool Found = false;
  for (const DefPair &D : A.RD.Exit[W2])
    if (D.N == Resource::signal(S) && D.L == W2)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(ReachingDefs, FactoredEqualsEnumeratedOnMesh) {
  // The factored cf quantification must coincide with the explicit
  // Cartesian-product definition.
  for (unsigned Procs : {2u, 3u}) {
    std::string Source = workloads::syncMeshDesign(Procs, 3, 4);
    ReachingDefsOptions Fact, Enum;
    Enum.EnumerateCrossFlowTuples = true;
    Analyzed AF = analyzeDesign(Source, Fact);
    Analyzed AE = analyzeDesign(Source, Enum);
    ASSERT_EQ(AF.CFG.numLabels(), AE.CFG.numLabels());
    for (LabelId L = 1; L <= AF.CFG.numLabels(); ++L) {
      EXPECT_TRUE(AF.RD.Entry[L] == AE.RD.Entry[L]) << "entry at " << L;
      EXPECT_TRUE(AF.RD.Exit[L] == AE.RD.Exit[L]) << "exit at " << L;
    }
  }
}

TEST(ReachingDefs, FactoredEqualsEnumeratedOnRandomDesigns) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    std::string Source = workloads::randomDesign(Seed, 3, 6, 3);
    ReachingDefsOptions Fact, Enum;
    Enum.EnumerateCrossFlowTuples = true;
    Analyzed AF = analyzeDesign(Source, Fact);
    Analyzed AE = analyzeDesign(Source, Enum);
    for (LabelId L = 1; L <= AF.CFG.numLabels(); ++L) {
      EXPECT_TRUE(AF.RD.Entry[L] == AE.RD.Entry[L])
          << "seed " << Seed << " entry at " << L;
      EXPECT_TRUE(AF.RD.Exit[L] == AE.RD.Exit[L])
          << "seed " << Seed << " exit at " << L;
    }
  }
}

/// The signal ids with a pair in \p S (fst restricted to signals).
std::set<unsigned> signalsIn(const PairSet &S) {
  std::set<unsigned> Out;
  for (const DefPair &D : S)
    if (D.N.isSignal())
      Out.insert(D.N.id());
  return Out;
}

TEST(ReachingDefs, HsiehLevitanKillGenMatchesBruteForce) {
  // ABL-HL samples every *other* process at its last wait only; the
  // process's own wait entry and the must side stay as in Table 5.
  Analyzed A = analyzeDesign(workloads::syncMeshDesign(3, 3, 4));
  ReachingDefsOptions HL;
  HL.HsiehLevitanCrossFlow = true;
  ReachingDefsKillGen KG = computeReachingDefsKillGen(A.CFG, A.Active, HL);
  ReachingDefsKillGen Full = computeReachingDefsKillGen(A.CFG, A.Active);

  bool Narrower = false;
  std::vector<PairSet> Literal(A.CFG.numLabels() + 1);
  std::vector<PairSet> LiteralGen(A.CFG.numLabels() + 1);
  for (const ProcessCFG &P : A.CFG.processes()) {
    literalRdKillGen(A.CFG, P, KG, Literal, LiteralGen);
    for (LabelId L : P.WaitLabels) {
      std::set<unsigned> May = signalsIn(A.Active.MayEntry[L]);
      std::set<unsigned> Must = signalsIn(A.Active.MustEntry[L]);
      for (const ProcessCFG &Q : A.CFG.processes()) {
        if (Q.ProcessId == P.ProcessId || Q.WaitLabels.empty())
          continue;
        for (unsigned S : signalsIn(A.Active.MayEntry[Q.WaitLabels.back()]))
          May.insert(S);
        std::set<unsigned> Meet = signalsIn(A.Active.MustEntry[Q.WaitLabels[0]]);
        for (LabelId W : Q.WaitLabels) {
          std::set<unsigned> Here = signalsIn(A.Active.MustEntry[W]), Keep;
          for (unsigned S : Meet)
            if (Here.count(S))
              Keep.insert(S);
          Meet = Keep;
        }
        Must.insert(Meet.begin(), Meet.end());
      }
      PairSet Gen, Kill;
      std::vector<Resource> Killed;
      for (unsigned S : May)
        Gen.insert(DefPair{Resource::signal(S), L});
      for (unsigned S : Must) {
        Killed.push_back(Resource::signal(S));
        Kill.insert(DefPair{Resource::signal(S), InitialLabel});
        for (LabelId W : P.WaitLabels)
          Kill.insert(DefPair{Resource::signal(S), W});
      }
      EXPECT_TRUE(KG.Gen[L] == Gen) << "gen at " << L;
      EXPECT_TRUE(KG.Kill[L] == Killed) << "killed signals at " << L;
      EXPECT_TRUE(Literal[L] == Kill) << "literal kill at " << L;
      EXPECT_TRUE(KG.Kill[L] == Full.Kill[L]) << "HL changed kill at " << L;
      Narrower |= KG.Gen[L].size() < Full.Gen[L].size();
    }
  }
  // The design must actually tell the two cross-flow modes apart.
  EXPECT_TRUE(Narrower);
}

TEST(ReachingDefs, WaitlessProcessesContributeNothingToCrossFlow) {
  // p0 never synchronizes, so u (driven only there) is never defined at
  // another process's wait; the concurrent assignments are wait-ended
  // processes and do contribute their active targets.
  Analyzed A = analyzeDesign(R"(
    entity e is port(clk : in std_logic; a : in std_logic;
                     q : out std_logic); end e;
    architecture rtl of e is
      signal s, t, u : std_logic;
    begin
      p0 : process begin u <= a; s <= a; end process p0;
      p1 : process begin s <= clk; wait on clk; end process p1;
      t <= '1';
      q <= s;
    end rtl;)");
  const ProcessCFG &P0 = A.CFG.process(0);
  const ProcessCFG &P1 = A.CFG.process(1);
  ASSERT_TRUE(P0.WaitLabels.empty());
  ASSERT_EQ(P1.WaitLabels.size(), 1u);
  LabelId W = P1.WaitLabels[0];
  ReachingDefsKillGen KG = computeReachingDefsKillGen(A.CFG, A.Active);
  std::set<unsigned> Defined;
  for (const DefPair &D : KG.Gen[W])
    Defined.insert(D.N.id());
  EXPECT_EQ(Defined.count(sigId(A.Program, "u")), 0u);
  EXPECT_EQ(Defined.count(sigId(A.Program, "s")), 1u);
  EXPECT_EQ(Defined.count(sigId(A.Program, "t")), 1u);
  EXPECT_EQ(Defined.count(sigId(A.Program, "q")), 1u);

  ReachingDefsOptions Enum;
  Enum.EnumerateCrossFlowTuples = true;
  for (bool MustKill : {true, false}) {
    ReachingDefsOptions Fact;
    Fact.UseMustActiveKill = Enum.UseMustActiveKill = MustKill;
    ReachingDefsKillGen F = computeReachingDefsKillGen(A.CFG, A.Active, Fact);
    ReachingDefsKillGen E = computeReachingDefsKillGen(A.CFG, A.Active, Enum);
    for (LabelId L = 1; L <= A.CFG.numLabels(); ++L) {
      EXPECT_TRUE(F.Gen[L] == E.Gen[L]) << "gen at " << L;
      EXPECT_TRUE(F.Kill[L] == E.Kill[L]) << "kill at " << L;
    }
  }
}

/// Table 5 through analyzeIncremental over \p Table must equal the cold
/// solver label by label; returns how many processes it re-solved.
size_t expectIncrementalMatchesCold(const std::string &Source,
                                    ProcessArtifactTable &Table) {
  Analyzed Cold = analyzeDesign(Source);
  ActiveSignalsResult Act;
  ReachingDefsResult RD;
  IncrementalStats Stats;
  EXPECT_TRUE(
      analyzeIncremental(Cold.Program, Cold.CFG, {}, Table, Act, RD, &Stats));
  EXPECT_EQ(RD.Iterations, Cold.RD.Iterations);
  for (LabelId L = 1; L <= Cold.CFG.numLabels(); ++L) {
    EXPECT_TRUE(RD.Entry[L] == Cold.RD.Entry[L]) << "entry at " << L;
    EXPECT_TRUE(RD.Exit[L] == Cold.RD.Exit[L]) << "exit at " << L;
  }
  return Stats.RdSolved;
}

TEST(ReachingDefs, IncrementalEqualsColdOnPipeline) {
  std::string Source = workloads::pipelineDesign(64);
  ProcessArtifactTable Table;
  EXPECT_EQ(expectIncrementalMatchesCold(Source, Table), 64u);
  size_t At = Source.find("s_10 <= s_9;");
  ASSERT_NE(At, std::string::npos);
  Source.replace(At, 12, "s_10 <= not s_9;");
  EXPECT_EQ(expectIncrementalMatchesCold(Source, Table), 1u);
}

TEST(ReachingDefs, IncrementalEqualsColdOnRandomDesigns) {
  unsigned Edited = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::string Source = workloads::randomDesign(Seed, 4, 8, 4);
    ProcessArtifactTable Table;
    // Four processes plus the concurrent dout driver.
    EXPECT_EQ(expectIncrementalMatchesCold(Source, Table), 5u);
    // Flip the first literal in p_1's body: only that process's
    // expressions change (active sets, hence the others' keys, do not).
    size_t Body = Source.find("begin", Source.find("p_1 : process"));
    size_t Quote = Source.find('\'', Body);
    if (Quote > Source.find("end process p_1"))
      continue; // no literal in p_1
    Source[Quote + 1] = Source[Quote + 1] == '0' ? '1' : '0';
    EXPECT_EQ(expectIncrementalMatchesCold(Source, Table), 1u);
    ++Edited;
  }
  EXPECT_GT(Edited, 0u);
}

/// For every label of every process of \p A: the kill rows the dense
/// solvers mask from killed resources equal maskInto of the paper's
/// literal kill sets over the same domain (Table 4 and Table 5).
void expectRangeKillRowsMatchLiteral(const Analyzed &A) {
  size_t NL = A.CFG.numLabels() + 1;
  ActiveKillGen AKG = computeActiveKillGen(A.CFG);
  ReachingDefsKillGen KG = computeReachingDefsKillGen(A.CFG, A.Active);
  std::vector<PairSet> ActLiteral(NL), RdLiteral(NL), ActGen(NL), RdGen(NL);
  size_t NonEmpty = 0;
  auto Compare = [&](const DefPairDomain &Dom, LabelId L,
                     const std::vector<Resource> &Killed,
                     const PairSet &Literal, const char *Table) {
    std::vector<uint64_t> Range((Dom.size() + 63) / 64, 0);
    std::vector<uint64_t> Pairs(Range.size(), 0);
    Dom.maskResources(Killed, Range.data());
    Dom.maskInto(Literal, Pairs.data());
    EXPECT_EQ(Range, Pairs) << Table << " kill row at " << L;
    NonEmpty += std::any_of(Range.begin(), Range.end(),
                            [](uint64_t W) { return W != 0; });
  };
  for (const ProcessCFG &P : A.CFG.processes()) {
    literalActiveKillGen(A.CFG, P, ActLiteral, ActGen);
    literalRdKillGen(A.CFG, P, KG, RdLiteral, RdGen);
    ActiveProcessArtifact Act = solveProcessActive(A.CFG, P, AKG);
    RdProcessArtifact Rd = solveProcessRd(A.CFG, P, KG.Kill, KG.Gen);
    for (LabelId L : P.Labels) {
      Compare(*Act.Dom, L, AKG.Kill[L], ActLiteral[L], "Table 4");
      Compare(*Rd.Dom, L, KG.Kill[L], RdLiteral[L], "Table 5");
    }
  }
  EXPECT_GT(NonEmpty, 0u) << "no label kills anything";
}

TEST(ReachingDefs, RangeKillRowsEqualLiteralKillSets) {
  {
    SCOPED_TRACE("subBytes/2");
    expectRangeKillRowsMatchLiteral(
        analyzeStmts(workloads::subBytesStatements(2)));
  }
  {
    SCOPED_TRACE("pipeline/16");
    expectRangeKillRowsMatchLiteral(
        analyzeDesign(workloads::pipelineDesign(16)));
  }
  {
    SCOPED_TRACE("syncMesh/3x3x4");
    expectRangeKillRowsMatchLiteral(
        analyzeDesign(workloads::syncMeshDesign(3, 3, 4)));
  }
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    SCOPED_TRACE("random seed " + std::to_string(Seed));
    expectRangeKillRowsMatchLiteral(
        analyzeDesign(workloads::randomDesign(Seed, 4, 8, 4)));
  }
}

TEST(ReachingDefs, AtProcessEnd) {
  Analyzed A = analyzeStmts("x := a; if c then x := b; end if;");
  PairSet End = A.RD.atProcessEnd(A.CFG.process(0));
  EXPECT_TRUE(End.contains(var(A.Program, "x", 1)));
  EXPECT_TRUE(End.contains(var(A.Program, "x", 3)));
  EXPECT_TRUE(End.contains(var(A.Program, "a", InitialLabel)));
}

//===----------------------------------------------------------------------===//
// DefPairDomain range masks
//===----------------------------------------------------------------------===//

/// A domain over v0 (3 pairs), v1 (70 pairs, crossing word 0/1), v3 (1),
/// s0 (2) and s5 (60 pairs, crossing word 1/2): 136 pairs in 3 words.
DefPairDomain rangeTestDomain() {
  DefPairDomain Dom;
  auto Add = [&](Resource N, unsigned Count) {
    for (unsigned I = 0; I < Count; ++I)
      Dom.add(DefPair{N, I}); // label 0 is the initial "?" definition
  };
  Add(Resource::variable(0), 3);
  Add(Resource::variable(1), 70);
  Add(Resource::variable(3), 1);
  Add(Resource::signal(0), 2);
  Add(Resource::signal(5), 60);
  Dom.finalize();
  return Dom;
}

/// maskResources(Rs) against the pair-by-pair definition: bit I is set
/// iff pair I's resource is in Rs.
void expectMaskMatches(const DefPairDomain &Dom,
                       const std::vector<Resource> &Rs) {
  std::vector<uint64_t> Row((Dom.size() + 63) / 64, 0);
  Dom.maskResources(Rs, Row.data());
  for (size_t I = 0; I < Dom.size(); ++I) {
    bool In = std::find(Rs.begin(), Rs.end(), Dom.pair(I).N) != Rs.end();
    EXPECT_EQ(((Row[I >> 6] >> (I & 63)) & 1) != 0, In) << "bit " << I;
  }
}

TEST(DefPairDomain, MaskResourcesEdgeCases) {
  DefPairDomain Dom = rangeTestDomain();
  ASSERT_EQ(Dom.size(), 136u);
  Resource V0 = Resource::variable(0), V1 = Resource::variable(1),
           V2 = Resource::variable(2), V3 = Resource::variable(3),
           S0 = Resource::signal(0), S1 = Resource::signal(1),
           S5 = Resource::signal(5), S9 = Resource::signal(9);

  // Empty list, and resources absent from the domain (before, between
  // and after the ranges) set nothing.
  for (const std::vector<Resource> &Rs :
       {std::vector<Resource>{}, {V2}, {S1}, {S9}, {V2, S1, S9}}) {
    std::vector<uint64_t> Row(3, 0);
    Dom.maskResources(Rs, Row.data());
    EXPECT_EQ(Row, std::vector<uint64_t>(3, 0));
  }
  expectMaskMatches(Dom, {V0});         // first resource
  expectMaskMatches(Dom, {S5});         // last resource, crosses 127/128
  expectMaskMatches(Dom, {V1});         // crosses the 63/64 boundary
  expectMaskMatches(Dom, {V1, V3, S0}); // adjacent ranges
  expectMaskMatches(Dom, {V0, V2, V3, S1, S5}); // absent ones mixed in
  expectMaskMatches(Dom, {V0, V1, V3, S0, S5}); // everything

  // The range form agrees with maskInto of the resources' pairs.
  PairSet Pairs;
  for (size_t I = 0; I < Dom.size(); ++I)
    if (Dom.pair(I).N == V3 || Dom.pair(I).N == S5)
      Pairs.append(Dom.pair(I));
  std::vector<uint64_t> Range(3, 0), Literal(3, 0);
  Dom.maskResources({V3, S5}, Range.data());
  Dom.maskInto(Pairs, Literal.data());
  EXPECT_EQ(Range, Literal);
}

//===----------------------------------------------------------------------===//
// PairSet algebra
//===----------------------------------------------------------------------===//

TEST(PairSet, BasicOperations) {
  PairSet S;
  DefPair P1{Resource::variable(1), 5};
  DefPair P2{Resource::signal(1), 5};
  EXPECT_TRUE(S.insert(P1));
  EXPECT_FALSE(S.insert(P1)) << "duplicate";
  S.insert(P2);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(P1));
  PairSet T;
  T.insert(P2);
  S.intersectWith(T);
  EXPECT_EQ(S.size(), 1u);
  EXPECT_TRUE(S.contains(P2));
}

TEST(PairSet, DottedIntersectionOfEmptyFamilyIsEmpty) {
  EXPECT_TRUE(PairSet::dottedIntersection({}).empty());
}

TEST(PairSet, FirstComponents) {
  PairSet S;
  S.insert(DefPair{Resource::signal(3), 1});
  S.insert(DefPair{Resource::signal(3), 2});
  S.insert(DefPair{Resource::variable(1), 7});
  std::vector<Resource> F = S.firstComponents();
  EXPECT_EQ(F.size(), 2u);
}

TEST(PairSet, ResourceDecorations) {
  Resource N = Resource::signal(42);
  EXPECT_TRUE(N.isPlain());
  Resource In = N.incoming(), Out = N.outgoing();
  EXPECT_TRUE(In.isIncoming());
  EXPECT_TRUE(Out.isOutgoing());
  EXPECT_EQ(In.plain(), N);
  EXPECT_EQ(Out.plain(), N);
  EXPECT_EQ(In.id(), 42u);
  EXPECT_TRUE(In.isSignal());
  EXPECT_NE(In, Out);
  EXPECT_NE(In, N);
}

} // namespace
