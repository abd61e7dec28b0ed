//===- perfbench/src/Trace.h - Spans and counts of the traced run -*- C++ -*-===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. A span has a name, a start, an end, the span
/// it is attributed to (its parent) and the operation — verdict or request
/// — it belongs to; counts ride on the span of the layer that produced
/// them. Spans stay in per-thread memory and are written once, at exit,
/// as Chrome trace-event JSON (open it in Perfetto or chrome://tracing).
/// A layer's self time is its span's duration minus the durations of the
/// spans attributed to it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Common.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name;
  double StartMs = 0, DurMs = 0;
  uint64_t Op = 0;
  uint64_t Id = 0, Parent = 0; ///< Parent 0 = root of its operation
  std::vector<std::pair<const char *, double>> Counts;
};

/// One thread's spans on one track. Not thread-safe; every client thread
/// owns its buffers. In a replay buffer, root spans only group the spans
/// replayed for one operation: they are neither operations nor layers.
class SpanBuffer {
public:
  explicit SpanBuffer(uint32_t Tid, bool Replay = false)
      : Tid(Tid), Replay(Replay) {}

  /// Opens a span now; returns its id.
  uint64_t open(const char *Name, uint64_t Op, uint64_t Parent);
  void close(uint64_t Id);
  /// Records a span measured elsewhere (e.g. a client round trip).
  uint64_t add(const char *Name, uint64_t Op, uint64_t Parent, double StartMs,
               double EndMs);
  void count(uint64_t Id, const char *Key, double Value);

  uint32_t tid() const { return Tid; }
  bool replay() const { return Replay; }
  std::vector<Span> &spans() { return Spans; }

private:
  Span &at(uint64_t Id) { return Spans[Id & 0xFFFFFFFFFFull]; }
  uint32_t Tid;
  bool Replay;
  std::vector<Span> Spans;
};

/// Times \p F inside a span named \p Name; returns \p F's result.
template <typename Fn>
auto traced(SpanBuffer &B, const char *Name, uint64_t Op, uint64_t Parent,
            uint64_t &Id, Fn &&F) {
  Id = B.open(Name, Op, Parent);
  struct Closer {
    SpanBuffer &B;
    uint64_t Id;
    ~Closer() { B.close(Id); }
  } C{B, Id};
  return F();
}

/// Per-layer totals over all operations of a traced phase.
struct LayerSummary {
  size_t Ops = 0;
  std::map<std::string, double> SelfMs; ///< by span name
  std::map<std::string, double> Counts; ///< by count key
  double RootMs = 0; ///< summed durations of the operations' root spans

  double selfPerOp(const std::string &Name) const;
  double countPerOp(const std::string &Key) const;
  double count(const std::string &Key) const;
  /// Sum of all non-root self times per operation.
  double layersPerOp() const;
};

/// Aggregates the spans of \p Buffers. Root spans (Parent 0) of the
/// non-replay buffers count the operations; every non-root span
/// contributes its self time.
LayerSummary summarize(const std::vector<SpanBuffer *> &Buffers);

/// Writes \p Buffers as a Chrome trace-event document; false on I/O error.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanBuffer *> &Buffers);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
