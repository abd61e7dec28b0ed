//===- perfbench/src/Trace.cpp --------------------------------------------===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

using namespace perfbench;

namespace {
constexpr uint64_t IndexBits = 40;
constexpr uint64_t IndexMask = (uint64_t(1) << IndexBits) - 1;
} // namespace

uint64_t SpanBuffer::open(const char *Name, uint64_t Op, uint64_t Parent) {
  double Now = nowMs();
  return add(Name, Op, Parent, Now, Now);
}

void SpanBuffer::close(uint64_t Id) {
  Span &S = Spans[(Id & IndexMask) - 1];
  S.DurMs = nowMs() - S.StartMs;
}

uint64_t SpanBuffer::add(const char *Name, uint64_t Op, uint64_t Parent,
                         double StartMs, double EndMs) {
  Span S;
  S.Name = Name;
  S.StartMs = StartMs;
  S.DurMs = EndMs - StartMs;
  S.Op = Op;
  S.Parent = Parent;
  S.Id = (uint64_t(Tid + 1) << IndexBits) | (Spans.size() + 1);
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

void SpanBuffer::count(uint64_t Id, const char *Key, double Value) {
  Spans[(Id & IndexMask) - 1].Counts.emplace_back(Key, Value);
}

double LayerSummary::selfPerOp(const std::string &Name) const {
  auto It = SelfMs.find(Name);
  return It == SelfMs.end() || !Ops ? 0 : It->second / Ops;
}

double LayerSummary::countPerOp(const std::string &Key) const {
  return Ops ? count(Key) / Ops : 0;
}

double LayerSummary::count(const std::string &Key) const {
  auto It = Counts.find(Key);
  return It == Counts.end() ? 0 : It->second;
}

double LayerSummary::layersPerOp() const {
  double Sum = 0;
  for (const auto &[Name, Ms] : SelfMs)
    Sum += Ms;
  return Ops ? Sum / Ops : 0;
}

LayerSummary perfbench::summarize(const std::vector<SpanBuffer *> &Buffers) {
  std::unordered_map<uint64_t, double> ChildMs;
  for (SpanBuffer *B : Buffers)
    for (const Span &S : B->spans())
      if (S.Parent)
        ChildMs[S.Parent] += S.DurMs;
  LayerSummary L;
  for (SpanBuffer *B : Buffers)
    for (const Span &S : B->spans()) {
      for (const auto &[Key, V] : S.Counts)
        L.Counts[Key] += V;
      if (!S.Parent) {
        if (!B->replay()) {
          ++L.Ops;
          L.RootMs += S.DurMs;
        }
        continue;
      }
      auto It = ChildMs.find(S.Id);
      L.SelfMs[S.Name] += S.DurMs - (It == ChildMs.end() ? 0 : It->second);
    }
  return L;
}

bool perfbench::writeChromeTrace(const std::string &Path,
                                 const std::vector<SpanBuffer *> &Buffers) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  double Origin = -1;
  for (SpanBuffer *B : Buffers)
    for (const Span &S : B->spans())
      if (Origin < 0 || S.StartMs < Origin)
        Origin = S.StartMs;
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  char Num[64];
  auto Us = [&](double Ms) {
    std::snprintf(Num, sizeof Num, "%.3f", Ms * 1000.0);
    return std::string(Num);
  };
  for (SpanBuffer *B : Buffers)
    for (const Span &S : B->spans()) {
      OS << (First ? "" : ",") << "\n{\"name\":\"" << S.Name
         << "\",\"cat\":\"" << (S.Parent ? "layer" : "op")
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << B->tid()
         << ",\"ts\":" << Us(S.StartMs - Origin) << ",\"dur\":" << Us(S.DurMs)
         << ",\"args\":{\"op\":" << S.Op << ",\"span\":" << S.Id
         << ",\"parent\":" << S.Parent;
      for (const auto &[Key, V] : S.Counts)
        OS << ",\"" << Key << "\":" << V;
      OS << "}}";
      First = false;
    }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}
