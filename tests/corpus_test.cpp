//===- tests/corpus_test.cpp - Checked-in fuzz seed corpus ----------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// Sweeps tests/inputs/corpus/: `gen_<seed>.vhd` are generated designs
// (small and medium, regenerable with `vifc-fuzz --seed N --dump`) that
// must elaborate and keep the dense and reference solver families in
// agreement; `crash_*.vhd` are minimized inputs that used to crash the
// frontend and must now produce diagnostics. The corpus pins the exact
// bytes: even if the generator's output drifts, these inputs keep
// exercising today's shapes.
//
//===----------------------------------------------------------------------===//

#include "EdgeList.h"
#include "ifa/InformationFlow.h"
#include "parse/Parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace vif;

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<fs::path> corpusFiles(const char *Prefix) {
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(VIFC_CORPUS_DIR))
    if (E.path().filename().string().rfind(Prefix, 0) == 0)
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

TEST(Corpus, HasTheDocumentedShape) {
  EXPECT_GE(corpusFiles("gen_").size(), 10u);
  EXPECT_GE(corpusFiles("crash_").size(), 2u);
}

TEST(Corpus, GeneratedDesignsElaborateAndSolversAgree) {
  for (const fs::path &File : corpusFiles("gen_")) {
    std::string Source = slurp(File);
    ASSERT_FALSE(Source.empty()) << File;

    DiagnosticEngine Diags;
    DesignFile F = parseDesign(Source, Diags);
    ASSERT_FALSE(Diags.hasErrors()) << File << "\n" << Diags.str();
    std::optional<ElaboratedProgram> P = elaborateDesign(F, Diags);
    ASSERT_TRUE(P.has_value()) << File << "\n" << Diags.str();
    ProgramCFG CFG = ProgramCFG::build(*P);

    // Dense vs reference RD, through the whole IFA pipeline.
    IFAOptions RefRD;
    RefRD.RD.ReferenceSolver = true;
    IFAResult Dense = analyzeInformationFlow(*P, CFG);
    IFAResult Ref = analyzeInformationFlow(*P, CFG, RefRD);
    EXPECT_TRUE(Dense.RMgl == Ref.RMgl) << File;
    EXPECT_EQ(test::edgeList(Dense.Graph), test::edgeList(Ref.Graph)) << File;

    // BitSet closure vs the retained sorted-vector rows.
    IFAOptions RefClos;
    RefClos.ReferenceClosure = true;
    IFAResult Clos = analyzeInformationFlow(*P, CFG, RefClos);
    EXPECT_TRUE(Dense.RMgl == Clos.RMgl) << File;
    EXPECT_TRUE(Dense.Graph.sameFlows(Clos.Graph)) << File;
  }
}

TEST(Corpus, CrashersAreDiagnosedCleanly) {
  for (const fs::path &File : corpusFiles("crash_")) {
    std::string Source = slurp(File);
    ASSERT_FALSE(Source.empty()) << File;
    DiagnosticEngine Diags;
    // Both as a statement program (the shape the crashers minimized to)
    // and as a design file: neither entry point may crash, and at least
    // one must complain.
    parseStatementProgram(Source, Diags);
    parseDesign(Source, Diags);
    EXPECT_TRUE(Diags.hasErrors()) << File;
  }
}

} // namespace
