//===- perfbench/src/Calibrate.h - Host calibration -------------*- C++ -*-===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host calibration (see README, "Host calibration"). The benchmark
/// runs on a virtual machine of a shared server, whose speed for the
/// analysis's memory-heavy work switches by up to 1.5x between stretches
/// of seconds to minutes. Right before and right after each time it
/// calibrates, the benchmark runs a fixed kernel of its own, which calls
/// nothing of the program, and scales the time by the kernel's reference
/// time over the mean of the kernel's two times. A program change moves
/// the scaled time as it moves the raw one; a change of host speed moves
/// the kernel along with the program and cancels out.
///
/// The kernel runs on the thread that did the timed work, so it meets the
/// processor, caches and heap that work just used.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <string>
#include <vector>

namespace perfbench {

/// The calibration kernel: std::set<unsigned> union churn (copy a set,
/// insert another set's members, keep the result), the access pattern of
/// the Table 5 kill/gen (factoredMay/factoredMust), on fixed data shaped
/// like pipeline/192's. Returns its wall time in ms.
double setChurnMs();

/// setChurnMs()'s median over the development runs behind the figures in
/// perfbench/README.md, on a 4-vCPU VM. Scaled times are therefore in
/// milliseconds at that host speed, close to those runs' raw times.
constexpr double CalibrationRefMs = 20;

/// The calibration of one run. A disabled one runs no kernel and scales
/// by 1. Not thread-safe.
class HostCalibration {
public:
  explicit HostCalibration(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  /// Runs the kernel right before a timed part.
  void before();
  /// Runs the kernel right after a timed part that took \p T, in any unit,
  /// and returns \p T scaled by CalibrationRefMs over the mean of this
  /// kernel time and the one before it. Back-to-back timed parts need no
  /// before() in between: one kernel run closes the first and opens the
  /// next.
  double scaled(double T);
  /// A note line: how often the kernel ran, its median and the reference.
  std::string summary() const;

private:
  bool Enabled;
  std::vector<double> KernelMs;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
