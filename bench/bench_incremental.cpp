//===- bench/bench_incremental.cpp - Process-grained artifact reuse -------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// What the incremental layer buys, measured at the solver tier (the
// front end — parse/elaborate/CFG — is identical on every path and runs
// outside the timed region): a cold ifa() re-solves Table 4 and Table 5
// for every process and closes Table 7/8 from scratch; a one-expression
// edit against a warm ProcessArtifactTable re-solves exactly one process
// and recomposes (cold and incremental share the bitset Table 5 kill/gen,
// so the gap is the per-process solve only); an unchanged re-analysis
// re-solves nothing; and
// a warm on-disk store serves the whole-design blob, skipping the
// solvers and the closure entirely — the restart-survival path, whose
// cost is one bounds-checked decode. Every OneEdit iteration analyzes a
// *distinct* edit (the varied operands keep each slice hash fresh), so
// the table can never have seen the edited process before.
//
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"
#include "driver/ArtifactStore.h"
#include "workloads/Synthetic.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <string>

using namespace vif;

namespace {

/// The pipeline source with the last stage's assignment rewritten to a
/// variant expression chosen by \p Tick: same written signal, same wait
/// set, extra read operands. Confined to one process, so exactly one
/// slice hash changes; distinct Ticks give distinct hashes, so a warm
/// table never reuses a previous iteration's edit.
std::string editedPipeline(unsigned N, uint64_t Tick) {
  std::string Src = workloads::pipelineDesign(N);
  std::string Prev = "s_" + std::to_string(N - 1);
  std::string Last = "s_" + std::to_string(N) + " <= " + Prev + ";";
  size_t At = Src.find(Last);
  uint64_t M = N - 1;
  std::string Repl = "s_" + std::to_string(N) + " <= " + Prev + " and s_" +
                     std::to_string(Tick % M) + " and s_" +
                     std::to_string((Tick / M) % M) + " and s_" +
                     std::to_string((Tick / (M * M)) % M) + ";";
  Src.replace(At, Last.size(), Repl);
  return Src;
}

/// A session over \p Source with the front end already run, so the timed
/// region below is exactly the solver tier.
driver::AnalysisSession frontEndSession(const std::string &Source,
                                        bool Statements = false) {
  driver::SessionOptions Opts;
  Opts.Statements = Statements;
  driver::AnalysisSession S = driver::AnalysisSession::fromSource(
      Statements ? "chain" : "pipe", Source, Opts);
  S.cfg();
  return S;
}

/// An RAII temp directory for the disk-backed cases.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/vif-bench-store-XXXXXX";
    Path = mkdtemp(Buf) ? Buf : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Path, EC);
    }
  }
};

/// Cold baseline: every process solved, the closure run, nothing reused.
void BM_Incremental_Cold(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::string Source = workloads::pipelineDesign(N);
  for (auto _ : State) {
    State.PauseTiming();
    driver::AnalysisSession S = frontEndSession(Source);
    State.ResumeTiming();
    benchmark::DoNotOptimize(S.ifa());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_Incremental_Cold)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

/// One edited process against a warm table: one Table 4 + Table 5 solve,
/// N-1 reuses, then the recompose.
void BM_Incremental_OneEdit(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  ProcessArtifactTable Table;
  {
    // Warm the table with the unedited design's N artifacts.
    driver::AnalysisSession S = frontEndSession(workloads::pipelineDesign(N));
    S.setArtifacts(&Table, nullptr);
    S.ifa();
  }
  uint64_t Tick = 0;
  for (auto _ : State) {
    State.PauseTiming();
    driver::AnalysisSession S = frontEndSession(editedPipeline(N, Tick++));
    S.setArtifacts(&Table, nullptr);
    State.ResumeTiming();
    benchmark::DoNotOptimize(S.ifa());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_Incremental_OneEdit)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

/// Unchanged re-analysis against a warm table: zero solves, pure
/// recompose — the floor any edit converges to.
void BM_Incremental_FullReuse(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::string Source = workloads::pipelineDesign(N);
  ProcessArtifactTable Table;
  {
    driver::AnalysisSession S = frontEndSession(Source);
    S.setArtifacts(&Table, nullptr);
    S.ifa();
  }
  for (auto _ : State) {
    State.PauseTiming();
    driver::AnalysisSession S = frontEndSession(Source);
    S.setArtifacts(&Table, nullptr);
    State.ResumeTiming();
    benchmark::DoNotOptimize(S.ifa());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_Incremental_FullReuse)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

/// Restart survival: a fresh session against a warm on-disk store hits
/// the whole-design blob — no solver, no closure, one decode.
void BM_Incremental_WarmDisk(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::string Source = workloads::pipelineDesign(N);
  TempDir Dir;
  driver::ArtifactStore Store(Dir.Path);
  {
    // Populate the store: one cold run writes the design blob back.
    driver::AnalysisSession S = frontEndSession(Source);
    S.setArtifacts(nullptr, &Store);
    S.ifa();
  }
  for (auto _ : State) {
    State.PauseTiming();
    driver::AnalysisSession S = frontEndSession(Source);
    S.setArtifacts(nullptr, &Store);
    State.ResumeTiming();
    benchmark::DoNotOptimize(S.ifa());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_Incremental_WarmDisk)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

/// The chain (statement-program) family, cold: the single process is the
/// whole program, so this is the store's design-blob unit at its largest.
void BM_IncrementalChain_Cold(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::string Source = workloads::chainStatements(N);
  for (auto _ : State) {
    State.PauseTiming();
    driver::AnalysisSession S = frontEndSession(Source, /*Statements=*/true);
    State.ResumeTiming();
    benchmark::DoNotOptimize(S.ifa());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_IncrementalChain_Cold)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

/// Chain family against a warm on-disk store: one design-blob decode
/// replaces the whole solve.
void BM_IncrementalChain_WarmDisk(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::string Source = workloads::chainStatements(N);
  TempDir Dir;
  driver::ArtifactStore Store(Dir.Path);
  {
    driver::AnalysisSession S = frontEndSession(Source, /*Statements=*/true);
    S.setArtifacts(nullptr, &Store);
    S.ifa();
  }
  for (auto _ : State) {
    State.PauseTiming();
    driver::AnalysisSession S = frontEndSession(Source, /*Statements=*/true);
    S.setArtifacts(nullptr, &Store);
    State.ResumeTiming();
    benchmark::DoNotOptimize(S.ifa());
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_IncrementalChain_WarmDisk)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

} // namespace

BENCHMARK_MAIN();
