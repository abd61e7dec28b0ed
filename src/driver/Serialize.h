//===- driver/Serialize.h - The vifc.v1 JSON wire format --------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single place every vifc JSON document shape is defined. Each
/// document — batch results (`--json` on check/flows/rm/report), sim and
/// datalog documents, serve responses, error objects and the JSON a v1b
/// frame decodes to (driver/V1b.h) — opens with a `"schema": "vifc.v1"`
/// member and is specified normatively in docs/SCHEMA.md; a field emitted here but absent from that spec fails
/// `tools/schema_check.py`. Commands, the serve loop and the v1b decoder
/// must build documents from these writers instead of hand-rolling
/// JsonWriter calls (the serve loop adds only its protocol envelope
/// members: ping/stats status, request counters, wallMs), so the wire
/// format can only drift in one reviewable file.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_DRIVER_SERIALIZE_H
#define VIF_DRIVER_SERIALIZE_H

#include "driver/Batch.h"
#include "driver/SessionCache.h"
#include "support/Json.h"

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace vif {

class JsonValue;

namespace driver {

/// The wire-format version stamped into every JSON document. Versioning
/// policy (docs/SCHEMA.md): adding optional fields keeps "vifc.v1";
/// renaming, removing or re-typing any documented field bumps to
/// "vifc.v2".
inline constexpr const char SchemaVersion[] = "vifc.v1";

/// Emits the leading "schema" member; must be the first member of every
/// top-level document object.
void writeSchemaTag(JsonWriter &J);

/// Echoes a request's "id" (a string, number or null value) as the "id"
/// member; nothing when \p Id is null. Strings are escaped, integral
/// numbers round-trip exactly, others go through %.6g (SERVER.md tells
/// clients to use strings or integers).
void writeRequestId(JsonWriter &J, const JsonValue *Id);

/// The same rendering as a standalone JSON value token — what
/// writeRequestId emits after the key — for a v1b frame's IDNT section.
/// Empty when \p Id is null.
std::string requestIdToken(const JsonValue *Id);

/// The members describing one analyzed design: file/status/diagnostics,
/// program shape, then the mode-dependent payload (graph, matrices,
/// violations, query answer). Used verbatim inside batch documents, serve
/// responses and decoded v1b frames. When \p Opts.Cache is set, a
/// "cacheHit" member reports whether the design's session was reused.
void writeDesignBody(JsonWriter &J, const DesignResult &D,
                     const BatchOptions &Opts);

/// The per-stage "timings" object; batch designs and serve responses
/// carry it after the design body (v1b frames do not).
void writeTimingsObject(JsonWriter &J, const StageTimings &T);

/// The members of a design-level response, up to and including the
/// design body: schema, id, command, \p ContentKey when non-empty,
/// method (flows only), writeDesignBody. A serve response appends
/// timings, wallMs and the cache object; a decoded v1b frame is exactly
/// this.
void writeDesignResponse(JsonWriter &J, const JsonValue *Id,
                         const DesignResult &D, const BatchOptions &Opts,
                         std::string_view ContentKey = {});

/// The "cache" statistics object (serve responses, stats documents).
void writeCacheObject(JsonWriter &J, const SessionCache &Cache);

class ArtifactStore;

/// The "store" statistics object — on-disk artifact hits/misses/writes
/// and byte traffic (serve stats documents when `--store` is configured).
void writeStoreObject(JsonWriter &J, const ArtifactStore &Store);

/// One complete batch document (the `--json` output of check/flows/rm/
/// report): schema, command, designs array, summary.
void writeBatchDocument(std::ostream &OS, const BatchResult &R,
                        const BatchOptions &Opts,
                        JsonStyle Style = JsonStyle::Pretty);

/// The "error" object carried by failed serve responses and one-shot
/// error documents: a stable machine code plus a human message.
void writeErrorObject(JsonWriter &J, std::string_view Code,
                      std::string_view Message);

/// One signal's final value in a sim document.
struct SimSignalValue {
  std::string Name;
  std::string Value;
};

/// Everything `vifc sim --json` reports.
struct SimDocument {
  std::string File;
  /// simStatusName(): "quiescent" | "max-deltas" | "stuck".
  std::string Status;
  uint64_t Deltas = 0;
  /// Only meaningful when Status == "stuck".
  std::string StuckReason;
  std::vector<SimSignalValue> Signals;
};

void writeSimDocument(std::ostream &OS, const SimDocument &Doc,
                      JsonStyle Style = JsonStyle::Pretty);

/// One solved relation in a datalog document, tuples rendered as atom
/// strings and sorted for determinism.
struct DatalogRelation {
  std::string Name;
  unsigned Arity = 0;
  std::vector<std::vector<std::string>> Tuples;
};

/// Everything `vifc datalog --json` reports: the ?-queried relations and
/// the derived-tuple count.
void writeDatalogDocument(std::ostream &OS, std::string_view File,
                          const std::vector<DatalogRelation> &Relations,
                          size_t DerivedCount,
                          JsonStyle Style = JsonStyle::Pretty);

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_SERIALIZE_H
