//===- perfbench/src/Check.cpp --------------------------------------------===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Common.h"

#include "driver/V1b.h"
#include "support/JsonParse.h"

#include <algorithm>

using namespace perfbench;
using namespace vif;

namespace {

bool isSpace(char C) { return C == ' ' || C == '\n' || C == '\r' || C == '\t'; }

/// Offset of the value of the first member named \p Key at or after
/// \p From (whitespace around the colon skipped); npos when absent.
size_t valueAt(std::string_view Doc, std::string_view Key, size_t From = 0) {
  std::string Pat = "\"" + std::string(Key) + "\"";
  for (size_t At = Doc.find(Pat, From); At != std::string_view::npos;
       At = Doc.find(Pat, At + 1)) {
    size_t I = At + Pat.size();
    while (I < Doc.size() && isSpace(Doc[I]))
      ++I;
    if (I < Doc.size() && Doc[I] == ':') {
      ++I;
      while (I < Doc.size() && isSpace(Doc[I]))
        ++I;
      return I;
    }
  }
  return std::string_view::npos;
}

/// Reads an escape-free JSON string at \p I; false on escapes (the caller
/// falls back to the DOM parser) or malformed input.
bool stringAt(std::string_view Doc, size_t &I, std::string_view &Out) {
  if (I >= Doc.size() || Doc[I] != '"')
    return false;
  size_t End = Doc.find('"', I + 1);
  if (End == std::string_view::npos)
    return false;
  Out = Doc.substr(I + 1, End - I - 1);
  if (Out.find('\\') != std::string_view::npos)
    return false;
  I = End + 1;
  return true;
}

bool numberIs(std::string_view Doc, std::string_view Key, uint64_t Want,
              std::string &Why) {
  size_t I = valueAt(Doc, Key);
  uint64_t V = 0;
  bool Digits = false;
  for (; I < Doc.size() && Doc[I] >= '0' && Doc[I] <= '9'; ++I, Digits = true)
    V = V * 10 + static_cast<uint64_t>(Doc[I] - '0');
  if (!Digits || V != Want) {
    Why = std::string(Key) + " is not " + std::to_string(Want);
    return false;
  }
  return true;
}

bool statusOk(std::string_view Doc, std::string &Why) {
  size_t I = valueAt(Doc, "status");
  std::string_view S;
  if (I == std::string_view::npos || !stringAt(Doc, I, S) || S != "ok") {
    Why = "status is not ok";
    return false;
  }
  return true;
}

/// The edge list of a flows document as sorted edge hashes: a direct scan
/// of the `edgeList` array, or the DOM when a name carries escapes.
bool edgeHashes(std::string_view Doc, std::vector<uint64_t> &Out) {
  size_t I = valueAt(Doc, "edgeList");
  if (I == std::string_view::npos || Doc[I] != '[')
    return false;
  ++I;
  auto Skip = [&] {
    while (I < Doc.size() && isSpace(Doc[I]))
      ++I;
  };
  bool Fast = true;
  for (;;) {
    Skip();
    if (I < Doc.size() && Doc[I] == ']')
      break;
    if (I >= Doc.size() || Doc[I] != '{') {
      Fast = false;
      break;
    }
    size_t F = valueAt(Doc, "from", I);
    std::string_view From, To;
    if (F == std::string_view::npos || !stringAt(Doc, F, From)) {
      Fast = false;
      break;
    }
    size_t T = valueAt(Doc, "to", F);
    if (T == std::string_view::npos || !stringAt(Doc, T, To)) {
      Fast = false;
      break;
    }
    Out.push_back(edgeHash(From, To));
    I = T;
    Skip();
    if (I >= Doc.size() || Doc[I] != '}') {
      Fast = false;
      break;
    }
    ++I;
    Skip();
    if (I < Doc.size() && Doc[I] == ',')
      ++I;
  }
  if (!Fast) {
    Out.clear();
    std::optional<JsonValue> V = parseJson(Doc);
    if (!V)
      return false;
    const JsonValue *Body = &*V;
    if (const JsonValue *Ds = V->find("designs")) {
      if (Ds->elements().empty())
        return false;
      Body = &Ds->elements()[0];
    }
    const JsonValue *G = Body->find("graph");
    const JsonValue *L = G ? G->find("edgeList") : nullptr;
    if (!L)
      return false;
    for (const JsonValue &E : L->elements()) {
      const JsonValue *A = E.find("from"), *B = E.find("to");
      if (!A || !B)
        return false;
      Out.push_back(edgeHash(A->asString(), B->asString()));
    }
  }
  std::sort(Out.begin(), Out.end());
  return true;
}

void hashValue(const JsonValue &V, uint64_t &H) {
  auto Mix = [&](uint64_t X) { H = hashBytes({}, H ^ (X * 0x9E3779B97F4A7C15ull)); };
  Mix(static_cast<uint64_t>(V.kind()) + 1);
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    break;
  case JsonValue::Kind::Bool:
    Mix(V.asBool());
    break;
  case JsonValue::Kind::Number: {
    double D = V.asNumber();
    uint64_t Bits;
    std::memcpy(&Bits, &D, 8);
    Mix(Bits);
    break;
  }
  case JsonValue::Kind::String:
    Mix(hashBytes(V.asString()));
    break;
  case JsonValue::Kind::Array:
    for (const JsonValue &E : V.elements())
      hashValue(E, H);
    Mix(V.elements().size());
    break;
  case JsonValue::Kind::Object:
    for (const auto &[K, E] : V.members()) {
      if (K == "cacheHit" || K == "timings" || K == "wallMs" ||
          K == "cache" || K == "contentKey" || K == "id")
        continue;
      Mix(hashBytes(K));
      hashValue(E, H);
    }
    break;
  }
}

} // namespace

bool perfbench::checkFlows(std::string_view Doc, const RefDesign &R,
                           std::string &Why, std::vector<uint64_t> *EdgesOut) {
  if (!R.Ok) {
    Why = "no reference answer";
    return false;
  }
  if (!statusOk(Doc, Why) || !numberIs(Doc, "processes", R.Processes, Why) ||
      !numberIs(Doc, "signals", R.Signals, Why) ||
      !numberIs(Doc, "variables", R.Variables, Why) ||
      !numberIs(Doc, "nodes", R.Nodes, Why) ||
      !numberIs(Doc, "edges", R.Edges, Why))
    return false;
  std::vector<uint64_t> Edges;
  if (!edgeHashes(Doc, Edges)) {
    Why = "no readable edge list";
    return false;
  }
  if (Edges.size() != R.Edges || edgeSetHash(Edges) != R.EdgeSet) {
    Why = "edge set differs from the reference";
    return false;
  }
  if (EdgesOut)
    *EdgesOut = std::move(Edges);
  return true;
}

bool perfbench::checkCheck(std::string_view Doc, const RefDesign &R,
                           std::string &Why) {
  if (!R.Ok) {
    Why = "no reference answer";
    return false;
  }
  return statusOk(Doc, Why) && numberIs(Doc, "processes", R.Processes, Why) &&
         numberIs(Doc, "signals", R.Signals, Why) &&
         numberIs(Doc, "variables", R.Variables, Why);
}

bool perfbench::checkQuery(std::string_view Doc, const RefDesign &R,
                           const QueryRef &Q, const std::vector<uint64_t> &Edges,
                           std::string &Why) {
  if (!checkCheck(Doc, R, Why))
    return false;
  std::optional<JsonValue> V = parseJson(Doc);
  const JsonValue *A = V ? V->find("query") : nullptr;
  if (!A) {
    Why = "no query object";
    return false;
  }
  auto Str = [&](const char *K) {
    const JsonValue *E = A->find(K);
    return E && E->isString() ? E->asString() : std::string();
  };
  auto Len = [&](const char *K) {
    const JsonValue *E = A->find(K);
    return E ? E->elements().size() : size_t(0);
  };
  const JsonValue *Reaches = A->find("reaches");
  if (Str("from") != Q.From || Str("to") != Q.To || !Reaches ||
      Reaches->asBool() != Q.Reaches) {
    Why = "query answer differs from the BFS reference";
    return false;
  }
  if (Len("reachableFrom") != Q.Forward || Len("whatReaches") != Q.Backward) {
    Why = "reachable-set sizes differ from the BFS reference";
    return false;
  }
  const JsonValue *W = A->find("witness");
  size_t Steps = W ? W->elements().size() : 0;
  if (!Q.Reaches)
    return Steps == 0 || (Why = "witness for an unreachable pair", false);
  if (Steps != Q.Dist + 1) {
    Why = "witness is not a shortest path";
    return false;
  }
  std::string Prev;
  for (size_t I = 0; I < Steps; ++I) {
    const JsonValue *N = W->elements()[I].find("node");
    std::string Node = N ? N->asString() : std::string();
    if ((I == 0 && Node != Q.From) || (I + 1 == Steps && Node != Q.To) ||
        (I > 0 && !std::binary_search(Edges.begin(), Edges.end(),
                                      edgeHash(Prev, Node)))) {
      Why = "witness is not a path of the reference graph";
      return false;
    }
    Prev = std::move(Node);
  }
  return true;
}

bool perfbench::checkV1b(std::string_view Frame, const RefDesign &R,
                         uint64_t JsonContent, std::string &Why) {
  std::string Json, Err;
  if (!driver::decodeV1bToJson(Frame, Json, &Err)) {
    Why = "v1b frame does not decode: " + Err;
    return false;
  }
  if (!checkFlows(Json, R, Why))
    return false;
  if (JsonContent && contentHash(Json) != JsonContent) {
    Why = "v1b content differs from the JSON response";
    return false;
  }
  return true;
}

uint64_t perfbench::contentHash(std::string_view Doc) {
  std::optional<JsonValue> V = parseJson(Doc);
  if (!V)
    return 0;
  uint64_t H = 1;
  hashValue(*V, H);
  return H ? H : 1;
}

uint64_t perfbench::stableHash(std::string_view Resp) {
  if (Resp.empty() || Resp[0] != '{')
    return hashBytes(Resp, 0xF2A3E);
  size_t Cut = Resp.rfind("\"timings\"");
  if (Cut == std::string_view::npos)
    Cut = Resp.size();
  size_t Hit = valueAt(Resp.substr(0, Cut), "cacheHit");
  if (Hit == std::string_view::npos)
    return hashBytes(Resp.substr(0, Cut));
  size_t After = Resp.find_first_of(",}", Hit);
  return hashBytes(Resp.substr(After, Cut - After),
                   hashBytes(Resp.substr(0, Hit)));
}

std::string perfbench::dropOneEdge(std::string Doc) {
  size_t I = valueAt(Doc, "edgeList");
  if (I == std::string::npos)
    return Doc;
  size_t Open = Doc.find('{', I), Close = Doc.find('}', Open);
  if (Open == std::string::npos || Close == std::string::npos)
    return Doc;
  size_t End = Close + 1;
  while (End < Doc.size() && isSpace(Doc[End]))
    ++End;
  if (End < Doc.size() && Doc[End] == ',')
    Doc.erase(Open, End + 1 - Open);
  else
    Doc.erase(Open, Close + 1 - Open);
  return Doc;
}

std::string perfbench::corruptFrame(std::string Frame) {
  if (!Frame.empty())
    Frame[Frame.size() * 3 / 4] ^= 0x01;
  return Frame;
}
