//===- perfbench/src/main.cpp - The end-to-end benchmark program ----------===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           --workdir DIR [--trace-out FILE] [--inject-faults]
///
/// Runs one workload, checks every answer and prints, one per line, each
/// metric with its unit, then as the last line one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
/// per-layer ones of the traced replay. Exits 1 on a set-up failure.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>

using namespace perfbench;

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

uint64_t perfbench::directoryBytes(const std::string &Dir) {
  uint64_t Sum = 0;
  if (DIR *D = opendir(Dir.c_str())) {
    while (dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name == "." || Name == "..")
        continue;
      std::string Path = Dir + "/" + Name;
      struct stat St;
      if (lstat(Path.c_str(), &St) != 0)
        continue;
      if (S_ISDIR(St.st_mode))
        Sum += directoryBytes(Path);
      else if (S_ISREG(St.st_mode))
        Sum += static_cast<uint64_t>(St.st_size);
    }
    closedir(D);
  }
  return Sum;
}

void perfbench::reportLatency(RunResult &R, const std::string &Prefix,
                              std::vector<double> Ms, const char *What) {
  std::sort(Ms.begin(), Ms.end());
  double Pct = 0;
  double Tail = tailSorted(Ms, Pct);
  R.metric(Prefix + "_ms_p50", percentileSorted(Ms, 50), "ms");
  char Line[240];
  std::snprintf(Line, sizeof Line,
                "%s_ms_tail = %.6g ms (p%.1f of %zu %s samples, 10 beyond it)",
                Prefix.c_str(), Tail, Pct, Ms.size(), What);
  R.note(Line);
}

void Tally::operator()(bool Ok, const std::string &What,
                       const std::string &Why) {
  std::lock_guard<std::mutex> L(M);
  ++Out.Attempted;
  if (Ok)
    return;
  ++Out.Failed;
  Out.Correct = false;
  if (Out.Failed <= 5)
    Out.note("wrong answer for " + What + ": " + Why);
}

void perfbench::checkKemmerer(Tally &Count, RunResult &Out,
                              const std::vector<RefDesign> &Refs) {
  uint64_t Gaps = 0;
  for (size_t I = 0; I < Refs.size(); ++I) {
    const RefDesign &R = Refs[I];
    Gaps += R.KemmererGaps;
    Count(R.KemmererUnexplained == 0, "reference design #" + std::to_string(I),
          std::to_string(R.KemmererUnexplained) +
              " edge(s) outside Kemmerer's graph not explained by wait "
              "flows, e.g. " + R.FirstUnexplained);
  }
  Out.note("kemmerer_gaps = " + std::to_string(Gaps) +
           " reference edges outside Kemmerer's graph, over " +
           std::to_string(Refs.size()) +
           " designs, each explained by wait flows");
}

void perfbench::selfTest(RunResult &Out, const Config &Cfg,
                         bool DroppedAccepted, bool CorruptAccepted) {
  if (DroppedAccepted || CorruptAccepted) {
    Out.Correct = false;
    Out.note("error: checker self-test accepted a mutated answer");
  }
  Out.note(std::string("checker self-test: dropped-edge document ") +
           (DroppedAccepted ? "ACCEPTED" : "rejected") +
           ", corrupted v1b frame " +
           (CorruptAccepted ? "ACCEPTED" : "rejected"));
  if (Cfg.InjectFaults) {
    Out.Attempted += 2;
    Out.Failed += !DroppedAccepted + !CorruptAccepted;
    Out.Correct = false;
  }
}

namespace {

/// Every per-layer metric, in BENCHMARK.json order: name and unit.
const std::pair<const char *, const char *> PerLayer[] = {
    {"parse.ms", "ms"},
    {"parse.bytes", "bytes"},
    {"sema.ms", "ms"},
    {"sema.processes", "count"},
    {"cfg.ms", "ms"},
    {"cfg.labels", "count"},
    {"localdeps.ms", "ms"},
    {"localdeps.rmlo_entries", "count"},
    {"rd.active.ms", "ms"},
    {"rd.active.iterations", "count"},
    {"rd.killgen.ms", "ms"},
    {"rd.killgen.pairs", "count"},
    {"rd.solve.ms", "ms"},
    {"rd.solve.iterations", "count"},
    {"rd.incremental.ms", "ms"},
    {"rd.incremental.reuse_ratio", "ratio"},
    {"rd.incremental.solved", "count"},
    {"ifa.closure.ms", "ms"},
    {"ifa.rmgl_entries", "count"},
    {"ifa.extract.ms", "ms"},
    {"ifa.edges", "count"},
    {"store.encode.ms", "ms"},
    {"store.bytes_written", "bytes"},
    {"store.decode.ms", "ms"},
    {"store.bytes_read", "bytes"},
    {"store.hit_ratio", "ratio"},
    {"query.build.ms", "ms"},
    {"query.probe.ms", "ms"},
    {"query.probes", "count"},
    {"serialize.json.ms", "ms"},
    {"serialize.json.bytes", "bytes"},
    {"serialize.v1b.ms", "ms"},
    {"serialize.v1b.bytes", "bytes"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"serve.handle.ms", "ms"},
    {"serve.socket.ms", "ms"},
    {"serve.errors", "count"},
    {"unattributed.ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"fail_ratio", "ratio"},
    {"store_mb", "MB"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold-pipeline|cold-aes|serve-warm|"
               "serve-edit --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE] [--inject-faults]\n");
  return 2;
}

} // namespace

void perfbench::reportLayers(RunResult &Out, const LayerSummary &L,
                             double UntracedMs, double TracedMs,
                             const std::map<std::string, double> &Explicit) {
  for (const auto &[Name, Unit] : PerLayer) {
    std::string N = Name;
    auto It = Explicit.find(N);
    if (It != Explicit.end())
      Out.metric(N, It->second, Unit);
    else if (N == "unattributed.ms")
      Out.metric(N, UntracedMs - L.layersPerOp(), Unit);
    else if (N == "trace.overhead_ms")
      Out.metric(N, TracedMs - UntracedMs, Unit);
    else if (N == "trace.overhead_ratio")
      Out.metric(N, UntracedMs > 0 ? (TracedMs - UntracedMs) / UntracedMs : 0,
                 Unit);
    else if (N == "fail_ratio")
      Out.metric(N,
                 Out.Attempted ? static_cast<double>(Out.Failed) /
                                     static_cast<double>(Out.Attempted)
                               : 0,
                 Unit);
    else if (N.size() > 3 && N.compare(N.size() - 3, 3, ".ms") == 0)
      Out.metric(N, L.selfPerOp(N.substr(0, N.size() - 3)), Unit);
    else
      Out.metric(N, L.countPerOp(N), Unit);
    // A negative self time means a layer's spans and the spans attributed
    // to it disagree, so this run's attribution is not to be trusted. A
    // negative unattributed.ms means the layers, as traced, add up to more
    // than the operation they account for.
    double V = Out.Metrics[N].first;
    if (Unit == std::string("ms") && N != "trace.overhead_ms" && V < 0)
      Out.note("warning: negative " + N + " = " + std::to_string(V) + " ms");
  }
  char Line[200];
  std::snprintf(Line, sizeof Line,
                "traced %zu ops: untraced %.4f ms/op, layers %.4f ms/op, "
                "traced %.4f ms/op",
                L.Ops, UntracedMs, L.layersPerOp(), TracedMs);
  Out.note(Line);
}

int main(int Argc, char **Argv) {
  Config Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::exit(usage());
      }
      return Argv[++I];
    };
    if (A == "--workload")
      Cfg.Workload = Value();
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (A == "--trace")
      Cfg.Trace = Value() == "1";
    else if (A == "--workdir")
      Cfg.WorkDir = Value();
    else if (A == "--trace-out")
      Cfg.TraceOut = Value();
    else if (A == "--inject-faults")
      Cfg.InjectFaults = true;
    else
      return usage();
  }
  if (Cfg.WorkDir.empty() || Cfg.Seconds <= 0)
    return usage();

  RunResult R;
  bool Ok;
  if (Cfg.Workload == "cold-pipeline" || Cfg.Workload == "cold-aes")
    Ok = runCold(Cfg, R);
  else if (Cfg.Workload == "serve-warm" || Cfg.Workload == "serve-edit")
    Ok = runServe(Cfg, R);
  else
    return usage();

  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  if (!Ok)
    return 1;
  std::printf("fail_ratio = %.6g (%llu failed of %llu attempted)\n",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const auto &[Name, VU] : R.Metrics)
    std::printf("%s = %.6g %s\n", Name.c_str(), VU.first, VU.second.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  for (const auto &[Name, VU] : R.Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), VU.first, VU.second.c_str());
    First = false;
  }
  std::printf("}}\n");
  return 0;
}
