//===- perfbench/src/Check.h - Response checking ----------------*- C++ -*-===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks every verdict and response against the oracle's answers. A
/// response is correct when its status is ok, its shape counts match, its
/// edge set equals the reference edge set, its query answer matches a BFS
/// over the reference graph, and — for v1b frames — it decodes to the same
/// content as the JSON response for the same design. Verdicts are
/// memoized by a fingerprint of the response with its volatile members
/// (timings, cache counters) left out, so a byte-identical answer is
/// checked once and later ones cost one hash.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include "Oracle.h"

#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace perfbench {

/// A flows document (a printBatchJson batch document, a compact serve
/// response, or a decoded v1b frame) against \p R. \p Edges, when given,
/// receives the document's sorted edge hashes.
bool checkFlows(std::string_view Doc, const RefDesign &R, std::string &Why,
                std::vector<uint64_t> *Edges = nullptr);
/// A `check` serve response: status and program shape.
bool checkCheck(std::string_view Doc, const RefDesign &R, std::string &Why);
/// A `query` serve response against the BFS answer \p Q; witness steps
/// must be edges of \p Edges, the sorted edge hashes of a flows answer for
/// the same design that passed checkFlows.
bool checkQuery(std::string_view Doc, const RefDesign &R, const QueryRef &Q,
                const std::vector<uint64_t> &Edges, std::string &Why);
/// A v1b frame: decodes, passes checkFlows, and its decoded content
/// fingerprint equals \p JsonContent, the contentHash of the JSON flows
/// response for the same design (0 = not known yet, skip that part).
bool checkV1b(std::string_view Frame, const RefDesign &R,
              uint64_t JsonContent, std::string &Why);

/// Fingerprint of a JSON document's content, ignoring the members a v1b
/// frame leaves out (cacheHit, timings, wallMs, cache, contentKey) and
/// the request id. 0 when the document does not parse.
uint64_t contentHash(std::string_view Doc);
/// Fingerprint of a response with its volatile members left out: the
/// memo key. Frames are deterministic and hashed whole.
uint64_t stableHash(std::string_view Resp);

/// The fault-injection mutations of the checker self-test.
std::string dropOneEdge(std::string Doc);
std::string corruptFrame(std::string Frame);

/// Thread-safe memo of checked responses: fingerprint -> verdict.
class CheckMemo {
public:
  /// The memoized verdict for \p Key, or -1 when unseen.
  int find(uint64_t Key) {
    std::lock_guard<std::mutex> L(M);
    auto It = Map.find(Key);
    return It == Map.end() ? -1 : It->second;
  }
  void insert(uint64_t Key, bool Ok) {
    std::lock_guard<std::mutex> L(M);
    Map[Key] = Ok;
  }

private:
  std::mutex M;
  std::unordered_map<uint64_t, bool> Map;
};

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
