//===- perfbench/src/Calibrate.cpp ----------------------------------------===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

using namespace perfbench;

double perfbench::setChurnMs() {
  static const std::vector<std::set<unsigned>> Sets = [] {
    std::vector<std::set<unsigned>> V(192);
    for (unsigned I = 0; I < V.size(); ++I)
      for (unsigned K = 0; K < 192; K += 1 + I % 3)
        V[I].insert((K * 7 + I) % 256);
    return V;
  }();
  double Start = nowMs();
  size_t Members = 0;
  for (unsigned L = 0; L < 8; ++L) {
    std::set<unsigned> R = Sets[L];
    for (const std::set<unsigned> &S : Sets) {
      std::set<unsigned> T = R;
      T.insert(S.begin(), S.end());
      R.swap(T);
    }
    Members += R.size();
  }
  double Ms = nowMs() - Start;
  if (Members != 8 * 256) // the union of all sets is every residue
    std::abort();
  return Ms;
}

void HostCalibration::before() {
  if (Enabled)
    KernelMs.push_back(setChurnMs());
}

double HostCalibration::scaled(double T) {
  if (!Enabled)
    return T;
  double Before = KernelMs.back();
  KernelMs.push_back(setChurnMs());
  return T * 2 * CalibrationRefMs / (Before + KernelMs.back());
}

std::string HostCalibration::summary() const {
  std::vector<double> K = KernelMs;
  std::sort(K.begin(), K.end());
  char Line[200];
  std::snprintf(Line, sizeof Line,
                "host calibration: kernel ran %zu times, median %.4g ms "
                "(reference %.4g ms)",
                K.size(), K.empty() ? 0.0 : K[K.size() / 2],
                CalibrationRefMs);
  return Line;
}
