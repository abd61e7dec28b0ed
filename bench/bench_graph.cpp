//===- bench/bench_graph.cpp - Flow-graph materialization and output ------===//
//
// Part of the vif project; see DESIGN.md (Output path).
//
// The analysis result is "a non-transitive directed graph" (paper,
// abstract); on pipelineDesign(n) it has n(n+1)/2 edges, so getting it
// into sorted, serialized form is a layer of its own. Two rows pin it:
//
//  * BM_Graph_FlushAndViews: the raw extraction pairs of a pipeline flow
//    graph handed to a fresh Digraph, then numEdges() (the lazy flush:
//    sort + dedup) and ensureSortedViews() (node ranks and the sorted
//    edge order) — what recordGraph pays once per verdict;
//  * BM_Serialize_FlowsJson: one `vifc flows --json` batch document for
//    an analyzed pipeline design, written to a discarding stream.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "driver/Serialize.h"
#include "support/Graph.h"
#include "workloads/Synthetic.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

using namespace vif;

namespace {

driver::BatchOptions flowsOptions() {
  driver::BatchOptions O;
  O.Mode = driver::BatchMode::Flows;
  return O;
}

/// The analyzed flows result for pipelineDesign(\p Stages).
driver::DesignResult analyzedPipeline(unsigned Stages) {
  driver::DesignResult D = driver::analyzeDesign(
      {"pipeline.vhd", workloads::pipelineDesign(Stages)}, flowsOptions());
  if (!D.Ok || !D.Graph)
    std::abort();
  return D;
}

void BM_Graph_FlushAndViews(benchmark::State &State) {
  driver::DesignResult D =
      analyzedPipeline(static_cast<unsigned>(State.range(0)));
  const Digraph &Flows = *D.Graph;
  // The extraction emits pairs label by label, each label's reads fanning
  // into the resources it modifies, so raw pairs arrive grouped by target
  // rather than in (from, to) order.
  std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> Raw;
  Flows.forEachEdgeId([&Raw](Digraph::NodeId From, Digraph::NodeId To) {
    Raw.push_back({From, To});
  });
  std::stable_sort(Raw.begin(), Raw.end(), [](const auto &A, const auto &B) {
    return A.second < B.second;
  });
  for (auto _ : State) {
    State.PauseTiming();
    Digraph G;
    G.reserveNodes(Flows.numNodes());
    for (std::string_view Name : Flows.nodes())
      G.addNode(Name);
    std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> Pairs = Raw;
    State.ResumeTiming();
    G.addEdges(std::move(Pairs));
    benchmark::DoNotOptimize(G.numEdges());
    G.ensureSortedViews();
  }
  State.counters["edges"] = static_cast<double>(Raw.size());
}
BENCHMARK(BM_Graph_FlushAndViews)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/// Counts and drops every byte, so the row measures the writer alone.
class DiscardBuf : public std::streambuf {
public:
  size_t Bytes = 0;

protected:
  std::streamsize xsputn(const char *, std::streamsize N) override {
    Bytes += static_cast<size_t>(N);
    return N;
  }
  int_type overflow(int_type C) override {
    ++Bytes;
    return traits_type::not_eof(C);
  }
};

void BM_Serialize_FlowsJson(benchmark::State &State) {
  driver::BatchResult R;
  R.Designs.push_back(analyzedPipeline(static_cast<unsigned>(State.range(0))));
  R.NumOk = 1;
  driver::BatchOptions O = flowsOptions();
  DiscardBuf Buf;
  std::ostream OS(&Buf);
  for (auto _ : State)
    driver::writeBatchDocument(OS, R, O);
  State.SetBytesProcessed(static_cast<int64_t>(Buf.Bytes));
}
BENCHMARK(BM_Serialize_FlowsJson)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
