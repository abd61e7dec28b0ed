//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, sample statistics, a fast content hash, resident-memory probe and
/// the result object every workload fills in and main() prints.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Splitmix64: the seeded stream every input generator draws from.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

private:
  uint64_t S;
};

/// A word-at-a-time 64-bit hash; fast enough to fingerprint multi-MB
/// responses inside the measurement loop.
inline uint64_t hashBytes(std::string_view Bytes, uint64_t Seed = 0) {
  const uint64_t M = 0x9E3779B97F4A7C15ull;
  uint64_t H = Seed ^ (Bytes.size() * M);
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, Bytes.data() + I, 8);
    H = (H ^ (W * M)) * 0xBF58476D1CE4E5B9ull;
    H ^= H >> 29;
  }
  uint64_t Tail = 0;
  if (I < Bytes.size()) // an empty view's data() may be null
    std::memcpy(&Tail, Bytes.data() + I, Bytes.size() - I);
  H = (H ^ (Tail * M)) * 0x94D049BB133111EBull;
  return H ^ (H >> 31);
}

/// The fingerprint of one flow edge, shared by the oracle and the checker.
inline uint64_t edgeHash(std::string_view From, std::string_view To) {
  return hashBytes(To, hashBytes(From) * 31 + 7);
}

inline double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(P / 100.0 * Sorted.size() + 0.999999);
  Rank = Rank == 0 ? 1 : (Rank > Sorted.size() ? Sorted.size() : Rank);
  return Sorted[Rank - 1];
}

/// The tail statistic: the highest percentile with at least ten samples
/// beyond it, i.e. the sample of rank N-10 (ascending). \p Pct receives
/// the percentile it corresponds to.
inline double tailSorted(const std::vector<double> &Sorted, double &Pct) {
  size_t N = Sorted.size();
  if (N <= 10) {
    Pct = 100;
    return N ? Sorted.back() : 0;
  }
  Pct = 100.0 * static_cast<double>(N - 10) / static_cast<double>(N);
  return Sorted[N - 11];
}

double peakRssMb();
/// Total bytes of the regular files under \p Dir.
uint64_t directoryBytes(const std::string &Dir);

/// What a run reports. Metrics keep insertion order out of a map keyed by
/// name; Notes are human-readable lines printed before the result object.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::vector<std::string> Notes;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
};

/// Counts checked answers into a RunResult; safe to share across threads.
/// The first few wrong answers are kept as notes.
class Tally {
public:
  explicit Tally(RunResult &Out) : Out(Out) {}
  void operator()(bool Ok, const std::string &What, const std::string &Why);

private:
  std::mutex M;
  RunResult &Out;
};

/// Command-line configuration shared by every workload.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool InjectFaults = false;
  std::string WorkDir;  ///< scratch space (stores, reference file)
  std::string TraceOut; ///< Chrome trace-event file of the traced run
};

/// The median of one timed sample as the metric <Prefix>_ms_p50, and its
/// tail (see tailSorted) with percentile and sample count as a note line.
void reportLatency(RunResult &R, const std::string &Prefix,
                   std::vector<double> Ms, const char *What);

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 5;

/// Runs \p Prepare (untimed) and then \p Setup (timed) \p Reps times and
/// returns the median of the timed parts in seconds, each first passed
/// through \p Adjust (called right after it, untimed): the setup_s
/// statistic. Notes every set-up's time, raw and adjusted, on \p Out.
template <typename PrepareFn, typename SetupFn, typename AdjustFn>
double medianSetupSeconds(RunResult &Out, unsigned Reps, PrepareFn &&Prepare,
                          SetupFn &&Setup, AdjustFn &&Adjust) {
  std::vector<double> T;
  std::string Line = "set-ups (s):", Adjusted = "; adjusted:";
  bool Changed = false;
  for (unsigned I = 0; I < Reps; ++I) {
    Prepare();
    double S = nowMs();
    Setup();
    double Raw = (nowMs() - S) / 1000.0;
    T.push_back(Adjust(Raw));
    Changed |= T.back() != Raw;
    Line += " " + std::to_string(Raw);
    Adjusted += " " + std::to_string(T.back());
  }
  Out.note(Changed ? Line + Adjusted : Line);
  std::sort(T.begin(), T.end());
  return T[T.size() / 2];
}


} // namespace perfbench

#endif // PERFBENCH_COMMON_H
