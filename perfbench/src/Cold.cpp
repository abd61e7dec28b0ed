//===- perfbench/src/Cold.cpp - cold-pipeline and cold-aes ----------------===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-shot path: each verdict is driver::runBatch (Flows, one input,
/// one job, no session cache, no store) followed by printBatchJson — what
/// `vifc flows --json --jobs 1 FILE` does after process start. The timed
/// phase visits the run's designs in whole cycles, so every run weighs
/// every design equally. The traced replay drives the same designs through
/// the layers' public functions, one span per layer call.
///
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Check.h"
#include "Common.h"
#include "Inputs.h"
#include "Oracle.h"
#include "Trace.h"
#include "Workloads.h"

#include "driver/Batch.h"
#include "driver/V1b.h"
#include "ifa/LocalDeps.h"

#include <cstdio>
#include <sstream>

using namespace perfbench;
using namespace vif;

namespace {

driver::BatchOptions coldOptions(const Design &D) {
  driver::BatchOptions O;
  O.Mode = driver::BatchMode::Flows;
  O.Jobs = 1;
  O.CaptureRenderedText = false;
  O.Session.Statements = D.Statements;
  O.Session.Ifa.RD.Jobs = 1;
  return O;
}

/// One verdict; returns its wall time in ms and leaves the document in
/// \p Doc.
double verdict(const Design &D, std::string &Doc) {
  driver::BatchOptions O = coldOptions(D);
  std::ostringstream OS;
  double Start = nowMs();
  driver::BatchResult R = driver::runBatch({{D.Name, D.Source}}, O);
  driver::printBatchJson(OS, R, O);
  Doc = OS.str();
  return nowMs() - Start;
}

/// Checks a verdict document through the memo; false when wrong.
bool checked(CheckMemo &Memo, size_t Index, const std::string &Doc,
             const RefDesign &R, std::string &Why) {
  uint64_t Key = stableHash(Doc) ^ (Index * 0x9E3779B97F4A7C15ull);
  int Known = Memo.find(Key);
  if (Known >= 0)
    return Known == 1 || (Why = "same wrong answer as before", false);
  bool Ok = checkFlows(Doc, R, Why);
  Memo.insert(Key, Ok);
  return Ok;
}

/// The traced replay of one verdict: the production path of
/// analyzeDesign + printBatchJson, spelled out as its public layer calls.
/// analyzeReachingDefs is computeReachingDefsKillGen followed by the
/// per-process solveProcessRd/installProcessRd loop, so kill/gen and the
/// solve get separate spans without doing either twice. The closure's
/// graph extraction is fused into composeInformationFlow; a separate
/// extractFlowGraph call right after it is timed as the closure span's
/// child, so the closure's self time leaves extraction out.
std::string replay(const Design &D, SpanBuffer &B, uint64_t Op,
                   double &ProbeMs) {
  uint64_t Root = B.open("verdict", Op, 0), Id = 0;
  DiagnosticEngine Diags;
  std::optional<DesignFile> File;
  std::optional<StatementProgram> Stmts;
  traced(B, "parse", Op, Root, Id, [&] {
    if (D.Statements)
      Stmts.emplace(parseStatementProgram(D.Source, Diags));
    else
      File.emplace(parseDesign(D.Source, Diags));
    return 0;
  });
  B.count(Id, "parse.bytes", static_cast<double>(D.Source.size()));
  std::optional<ElaboratedProgram> P = traced(B, "sema", Op, Root, Id, [&] {
    return D.Statements ? elaborateStatements(*Stmts->Body, Diags, &Stmts->Decls)
                        : elaborateDesign(*File, Diags);
  });
  if (!P || Diags.hasErrors()) {
    B.close(Root);
    return {};
  }
  B.count(Id, "sema.processes", static_cast<double>(P->Processes.size()));
  ProgramCFG C = traced(B, "cfg", Op, Root, Id, [&] { return ProgramCFG::build(*P); });
  B.count(Id, "cfg.labels", static_cast<double>(C.numLabels()));
  ResourceMatrix RMlo =
      traced(B, "localdeps", Op, Root, Id, [&] { return computeLocalDeps(*P, C); });
  B.count(Id, "localdeps.rmlo_entries", static_cast<double>(RMlo.size()));
  ActiveSignalsResult Active = traced(B, "rd.active", Op, Root, Id,
                                      [&] { return analyzeActiveSignals(*P, C, 1); });
  B.count(Id, "rd.active.iterations", static_cast<double>(Active.Iterations));
  IFAOptions IO;
  ReachingDefsKillGen KG = traced(B, "rd.killgen", Op, Root, Id, [&] {
    return computeReachingDefsKillGen(C, Active, IO.RD);
  });
  double Pairs = 0;
  for (size_t L = 0; L < KG.Kill.size(); ++L)
    Pairs += static_cast<double>(KG.Kill[L].size() + KG.Gen[L].size());
  B.count(Id, "rd.killgen.pairs", Pairs);
  ReachingDefsResult RD = traced(B, "rd.solve", Op, Root, Id, [&] {
    ReachingDefsResult R;
    R.Entry.resize(C.numLabels() + 1);
    R.Exit.resize(C.numLabels() + 1);
    for (const ProcessCFG &PC : C.processes()) {
      RdProcessArtifact A = solveProcessRd(C, PC, KG.Kill, KG.Gen);
      R.Iterations += A.Iterations;
      installProcessRd(R, C, PC, A);
    }
    return R;
  });
  B.count(Id, "rd.solve.iterations", static_cast<double>(RD.Iterations));
  // The closure span also covers the separate extraction probe, its child,
  // so the closure's self time is composeInformationFlow minus extraction.
  uint64_t Closure = B.open("ifa.closure", Op, Root);
  IFAResult I = composeInformationFlow(*P, C, IO, std::move(RMlo),
                                       std::move(Active), std::move(RD));
  B.count(Closure, "ifa.rmgl_entries", static_cast<double>(I.RMgl.size()));
  B.count(Closure, "ifa.edges", static_cast<double>(I.Graph.numEdges()));
  double T0 = nowMs();
  traced(B, "ifa.extract", Op, Closure, Id,
         [&] { return extractFlowGraph(LabelIndexedRM(I.RMgl), *P); });
  ProbeMs += nowMs() - T0;
  B.close(Closure);

  driver::BatchOptions O = coldOptions(D);
  driver::BatchResult BR;
  driver::DesignResult DR;
  DR.Name = D.Name;
  DR.Ok = true;
  DR.NumProcesses = P->Processes.size();
  DR.NumSignals = P->Signals.size();
  DR.NumVariables = P->Variables.size();
  DR.NumNodes = I.Graph.numNodes();
  DR.NumEdges = I.Graph.numEdges();
  DR.Graph = &I.Graph;
  BR.Designs.push_back(std::move(DR));
  BR.NumOk = 1;
  std::ostringstream OS;
  traced(B, "serialize.json", Op, Root, Id, [&] {
    driver::printBatchJson(OS, BR, O);
    return 0;
  });
  std::string Doc = OS.str();
  B.count(Id, "serialize.json.bytes", static_cast<double>(Doc.size()));
  B.close(Root);
  return Doc;
}

} // namespace

bool perfbench::runCold(const Config &Cfg, RunResult &Out) {
  std::vector<Design> Designs = Cfg.Workload == "cold-pipeline"
                                    ? coldPipelineDesigns(Cfg.Seed)
                                    : coldAesDesigns(Cfg.Seed);
  std::vector<RefDesign> Refs;
  std::string Error;
  if (!computeReferences(Designs, Cfg.Seed, Cfg.WorkDir, 4, Refs, Error)) {
    Out.note("error: " + Error);
    return false;
  }
  CheckMemo Memo;
  Tally Count(Out);

  // The untraced run calibrates every timed verdict and set-up; RawMs
  // keeps the verdicts' unscaled times.
  HostCalibration Cal(!Cfg.Trace);
  std::vector<double> RawMs;

  // Set-up: one untimed warm-up verdict per distinct design, SetupReps times;
  // the last round's documents are checked in full (outside the clock).
  std::vector<std::string> Warm(Designs.size());
  double SetupS = medianSetupSeconds(
      Out, SetupReps, [&] { Cal.before(); },
      [&] {
        for (size_t I = 0; I < Designs.size(); ++I)
          verdict(Designs[I], Warm[I]);
      },
      [&](double S) { return Cal.scaled(S); });
  std::string Why;
  for (size_t I = 0; I < Designs.size(); ++I)
    Count(checked(Memo, I, Warm[I], Refs[I], Why), Designs[I].Name, Why);

  // Checker self-test on the design with the most edges: a document with
  // one edge dropped and a corrupted v1b frame must both be rejected.
  size_t Big = 0;
  for (size_t I = 1; I < Designs.size(); ++I)
    if (Refs[I].Edges > Refs[Big].Edges)
      Big = I;
  {
    driver::BatchOptions O = coldOptions(Designs[Big]);
    driver::BatchResult R = driver::runBatch({{Designs[Big].Name, Designs[Big].Source}}, O);
    std::string Frame;
    driver::writeV1bDesign(Frame, R.Designs[0], O);
    selfTest(Out, Cfg, checkFlows(dropOneEdge(Warm[Big]), Refs[Big], Why),
             checkV1b(corruptFrame(Frame), Refs[Big], 0, Why));
  }

  // One cycle: a timed verdict of every design, each checked.
  auto Cycle = [&](std::vector<double> &Ms) {
    std::string Doc;
    for (size_t I = 0; I < Designs.size(); ++I) {
      double T = verdict(Designs[I], Doc);
      if (Cal.enabled())
        RawMs.push_back(T);
      Ms.push_back(Cal.scaled(T));
      Count(checked(Memo, I, Doc, Refs[I], Why), Designs[I].Name, Why);
    }
  };

  checkKemmerer(Count, Out, Refs);

  if (!Cfg.Trace) {
    std::vector<double> Ms;
    Cal.before();
    for (double End = nowMs() + Cfg.Seconds * 1000.0; nowMs() < End;)
      Cycle(Ms);
    std::sort(RawMs.begin(), RawMs.end());
    char Line[200];
    std::snprintf(Line, sizeof Line,
                  "unscaled: verdict_ms_p50 = %.6g ms, designs_per_s = %.6g "
                  "1/s",
                  percentileSorted(RawMs, 50), 1000.0 / mean(RawMs));
    Out.note(Cal.summary());
    Out.note(Line);
    reportLatency(Out, "verdict", Ms, "verdict");
    reportLatency(Out, "req", Ms, "request (one CLI verdict)");
    Out.metric("designs_per_s", 1000.0 / mean(Ms), "1/s");
    Out.metric("req_per_s", 1000.0 / mean(Ms), "1/s");
    Out.metric("peak_rss_mb", peakRssMb(), "MB");
    Out.metric("setup_s", SetupS, "s");
    return true;
  }

  // Traced run: untraced cycles (the overhead baseline) alternate with
  // cycles replayed through the layer calls, so a host that speeds up or
  // slows down during the run moves both alike.
  std::vector<double> Ms;
  SpanBuffer Buf(0);
  double ProbeMs = 0;
  uint64_t Op = 0;
  for (double End = nowMs() + Cfg.Seconds * 1000.0; nowMs() < End;) {
    Cycle(Ms);
    for (size_t I = 0; I < Designs.size(); ++I) {
      std::string Doc = replay(Designs[I], Buf, ++Op, ProbeMs);
      Count(checked(Memo, I, Doc, Refs[I], Why), Designs[I].Name, Why);
    }
  }
  double Untraced = mean(Ms);
  LayerSummary L = summarize({&Buf});
  double Traced = (L.RootMs - ProbeMs) / static_cast<double>(L.Ops);
  reportLayers(Out, L, Untraced, Traced, {});
  Out.metric("store_mb", 0, "MB");
  if (!Cfg.TraceOut.empty() && !writeChromeTrace(Cfg.TraceOut, {&Buf}))
    Out.note("warning: could not write " + Cfg.TraceOut);
  return true;
}
