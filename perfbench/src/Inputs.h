//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every design a workload feeds the program, derived from the run seed
/// alone. Sizes follow fixed ladders so that two seeds exercise the same
/// amount of work; the seed decides content (which stage is edited, which
/// signals a generated process reads, the request stream).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Design {
  std::string Name;
  std::string Source;
  /// Parse as a bare statement program (the AES component fragments).
  bool Statements = false;
  /// The oracle also runs the enumerated cross-flow kill/gen
  /// (EnumerateCrossFlowTuples) — only where enumeration is cheap.
  bool Enumerate = false;
  /// Seeded (from, to) query pairs the oracle picks and answers.
  unsigned Queries = 0;
};

/// cold-pipeline: single-stage variants of pipelineDesign(n) for n in
/// {64, 128, 192, 256, 256}.
std::vector<Design> coldPipelineDesigns(uint64_t Seed);

/// cold-aes: the Section 6 fragments — SubBytes over 2..8 bytes (8 three
/// times), MixColumns, AddRoundKey (seeded width), ShiftRows as statements
/// and as a design.
std::vector<Design> coldAesDesigns(uint64_t Seed);

/// serve-warm: 48 designs in Zipf rank order (index 0 is the hottest):
/// 32 generated, 12 randomDesign with 16..60 processes, 4 pipeline
/// variants with 64..256 stages, interleaved by a fixed class pattern.
std::vector<Design> serveWarmDesigns(uint64_t Seed);

/// serve-edit: the base designs (pipeline/128, randomDesign with 32 and
/// 64 processes) and an endless stream of fresh one-process edits of them,
/// edit I applying to base I % 3. The first 1536 edits of each base are
/// pairwise distinct (the smallest base has 32 processes x 16 signals x 3
/// operators to choose from); edits are generated on demand, so a run
/// holds only the ones in flight.
class EditStream {
public:
  explicit EditStream(uint64_t Seed);
  const std::vector<Design> &bases() const { return Bases; }
  Design edit(size_t I) const;

private:
  std::vector<Design> Bases;
  uint64_t Offset[3], Stride[3], Total[3];
};

/// Cumulative Zipf(1) weights over \p N ranks.
std::vector<double> zipfCdf(size_t N);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
