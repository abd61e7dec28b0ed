//===- driver/V1b.cpp -----------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/V1b.h"

#include "driver/Serialize.h"
#include "support/BinaryIO.h"
#include "support/JsonParse.h"

#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

using namespace vif;
using namespace vif::driver;

namespace {

/// META command and method codes: the wire code is the index here.
constexpr BatchMode Commands[] = {BatchMode::Check, BatchMode::Flows,
                                  BatchMode::Matrices, BatchMode::Report,
                                  BatchMode::Query};
constexpr FlowMethod Methods[] = {FlowMethod::Native, FlowMethod::Alfp,
                                  FlowMethod::Kemmerer};

template <typename Enum, size_t N>
uint8_t wireCode(const Enum (&Table)[N], Enum E) {
  for (size_t I = 0; I < N; ++I)
    if (Table[I] == E)
      return static_cast<uint8_t>(I);
  return 0xff;
}

/// The section tags a version-1 reader knows, indexed by SectionIndex.
enum SectionIndex { Meta, Idnt, Diag, Node, Edge, Mtrx, Viol, Qres };
constexpr std::string_view KnownTags[] = {"META", "IDNT", "DIAG", "NODE",
                                          "EDGE", "MTRX", "VIOL", "QRES"};

/// Decodes \p Frame back into the design result, options and request id
/// it was written from. Every count is checked against the bytes left
/// before anything is sized by it. Returns the error message, or nullptr.
const char *decodeFrame(std::string_view Frame, DesignResult &D,
                        BatchOptions &Opts, std::optional<JsonValue> &Id) {
  ByteReader R(Frame);
  if (R.raw(4) != std::string_view(V1bMagic, 4))
    return "not a v1b frame (bad magic)";
  if (R.u32() != V1bVersion)
    return "unsupported v1b version";
  if (R.u64() != Frame.size())
    return "frame length mismatch";
  uint32_t SectionCount = R.u32();

  // Collect the section bodies by tag; unknown tags are skipped.
  std::optional<std::string_view> Sections[std::size(KnownTags)];
  for (uint32_t I = 0; I < SectionCount; ++I) {
    std::string_view Body;
    std::string_view Tag = R.section(Body);
    if (!R.ok())
      return "truncated section";
    for (size_t K = 0; K < std::size(KnownTags); ++K)
      if (Tag == KnownTags[K])
        Sections[K] = Body;
  }
  if (!R.atEnd())
    return "trailing bytes after last section";
  if (!Sections[Meta])
    return "missing META section";

  ByteReader M(*Sections[Meta]);
  uint8_t Command = M.u8();
  uint8_t Method = M.u8();
  D.Ok = M.u8() != 0;
  D.Unreadable = M.u8() != 0;
  D.Name = M.str32();
  D.NumProcesses = M.u64();
  D.NumSignals = M.u64();
  D.NumVariables = M.u64();
  if (!M.ok() || !M.atEnd())
    return "malformed META section";
  if (Command >= std::size(Commands) || Method >= std::size(Methods))
    return "unknown command or method code";
  Opts.Mode = Commands[Command];
  Opts.Method = Methods[Method];

  if (Sections[Idnt] && !Sections[Idnt]->empty()) {
    // The token is a complete JSON value (string, number or null); parse
    // and re-emit it so the output stays well-formed on a hostile frame.
    Id = parseJson(*Sections[Idnt]);
    if (!Id || (!Id->isString() && !Id->isNumber() && !Id->isNull()))
      return "malformed IDNT section";
  }
  if (Sections[Diag])
    D.Diagnostics = *Sections[Diag];
  if (!D.Ok)
    return nullptr;

  if (Opts.Mode == BatchMode::Flows || Opts.Mode == BatchMode::Report) {
    if (!Sections[Node] || !Sections[Edge])
      return "missing NODE or EDGE section";
    // The node table is in rank (lexicographic) order, so NODE indices
    // are the node ids of the rebuilt graph.
    ByteReader N(*Sections[Node]);
    uint32_t NodeCount = N.u32();
    if (NodeCount > N.remaining() / 4) // every name costs its u32 length
      return "malformed NODE section";
    auto G = std::make_shared<Digraph>();
    G->reserveNodes(NodeCount);
    std::string_view Prev;
    for (uint32_t I = 0; I < NodeCount; ++I) {
      std::string_view Name = N.str32();
      if (!N.ok() || (I > 0 && Name <= Prev))
        return "malformed NODE section";
      G->addNode(Name);
      Prev = Name;
    }
    if (!N.atEnd())
      return "malformed NODE section";

    // Edges are strictly ascending (from, to) rank pairs, two u32s each.
    ByteReader E(*Sections[Edge]);
    uint64_t EdgeCount = E.u64();
    if (EdgeCount != E.remaining() / 8 || E.remaining() % 8)
      return "malformed EDGE section";
    std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> Edges;
    Edges.reserve(static_cast<size_t>(EdgeCount));
    for (uint64_t I = 0; I < EdgeCount; ++I) {
      Digraph::NodeId From = E.u32();
      Digraph::NodeId To = E.u32();
      if (From >= NodeCount || To >= NodeCount ||
          (!Edges.empty() && std::make_pair(From, To) <= Edges.back()))
        return "malformed EDGE section";
      Edges.emplace_back(From, To);
    }
    G->addEdges(std::move(Edges));
    D.NumNodes = NodeCount;
    D.NumEdges = static_cast<size_t>(EdgeCount);
    D.Graph = G.get();
    D.GraphOwner = std::move(G);
  }

  if (Opts.Mode == BatchMode::Matrices) {
    if (!Sections[Mtrx])
      return "missing MTRX section";
    ByteReader X(*Sections[Mtrx]);
    D.RMloEntries = X.u64();
    D.RMglEntries = X.u64();
    if (!X.ok() || !X.atEnd())
      return "malformed MTRX section";
  }

  if (Opts.Mode == BatchMode::Report) {
    if (!Sections[Viol])
      return "missing VIOL section";
    ByteReader V(*Sections[Viol]);
    uint32_t Count = V.u32();
    if (Count > V.remaining() / 9) // two u32 lengths and a flag byte
      return "malformed VIOL section";
    D.Violations.reserve(Count);
    for (uint32_t I = 0; I < Count; ++I) {
      PolicyViolation PV;
      PV.From = V.str32();
      PV.To = V.str32();
      PV.ViaPath = V.u8() != 0;
      D.Violations.push_back(std::move(PV));
    }
    if (!V.ok() || !V.atEnd())
      return "malformed VIOL section";
  }

  if (Opts.Mode == BatchMode::Query) {
    // from, to, reaches flag, witness steps (node + resource + mark code
    // 0 plain / 1 incoming / 2 outgoing), then the forward and backward
    // reachable-name sets.
    if (!Sections[Qres])
      return "missing QRES section";
    ByteReader Q(*Sections[Qres]);
    Opts.QueryFrom = Q.str32();
    Opts.QueryTo = Q.str32();
    D.Reaches = Q.u8() != 0;
    uint32_t Steps = Q.u32();
    if (Steps > Q.remaining() / 9 || (Steps && !D.Reaches))
      return "malformed QRES section";
    D.Witness.resize(Steps);
    for (query::WitnessStep &Step : D.Witness) {
      Step.Node = Q.str32();
      Step.Resource = Q.str32();
      uint8_t Mark = Q.u8();
      if (Mark > static_cast<uint8_t>(query::NodeMark::Outgoing))
        return "malformed QRES section";
      Step.Mark = static_cast<query::NodeMark>(Mark);
    }
    for (std::vector<std::string> *Names : {&D.Forward, &D.Backward}) {
      uint32_t Count = Q.u32();
      if (Count > Q.remaining() / 4)
        return "malformed QRES section";
      Names->reserve(Count);
      for (uint32_t I = 0; I < Count; ++I)
        Names->emplace_back(Q.str32());
    }
    if (!Q.ok() || !Q.atEnd())
      return "malformed QRES section";
  }
  return nullptr;
}

} // namespace

void vif::driver::writeV1bDesign(std::string &Out, const DesignResult &D,
                                 const BatchOptions &Opts,
                                 std::string_view IdToken) {
  // Section bodies are built independently so each length prefix is exact.
  ByteWriter Sections;
  uint32_t Count = 0;
  {
    ByteWriter M;
    M.u8(wireCode(Commands, Opts.Mode));
    M.u8(wireCode(Methods, Opts.Method));
    M.u8(D.Ok ? 1 : 0);
    M.u8(D.Unreadable ? 1 : 0);
    M.str32(D.Name);
    M.u64(D.NumProcesses);
    M.u64(D.NumSignals);
    M.u64(D.NumVariables);
    Sections.section("META", M.data());
    ++Count;
  }
  if (!IdToken.empty()) {
    Sections.section("IDNT", IdToken);
    ++Count;
  }
  if (!D.Diagnostics.empty()) {
    Sections.section("DIAG", D.Diagnostics);
    ++Count;
  }
  if (D.Ok &&
      (Opts.Mode == BatchMode::Flows || Opts.Mode == BatchMode::Report) &&
      D.Graph) {
    const Digraph &G = *D.Graph;
    // Node string table, lexicographic (rank) order.
    ByteWriter N;
    N.u32(static_cast<uint32_t>(G.numNodes()));
    for (Digraph::NodeId Id : G.rankedNodes())
      N.str32(G.name(Id));
    Sections.section("NODE", N.data());
    // Edges as (from, to) indices into the NODE table, sorted — the same
    // order the JSON edgeList streams in, two u32s per edge.
    ByteWriter E;
    E.u64(G.numEdges());
    G.forEachSortedEdgeRanked([&E](Digraph::NodeId From, Digraph::NodeId To) {
      E.u32(From);
      E.u32(To);
    });
    Sections.section("EDGE", E.data());
    Count += 2;
  }
  if (D.Ok && Opts.Mode == BatchMode::Matrices) {
    ByteWriter X;
    X.u64(D.RMloEntries);
    X.u64(D.RMglEntries);
    Sections.section("MTRX", X.data());
    ++Count;
  }
  if (D.Ok && Opts.Mode == BatchMode::Report) {
    ByteWriter V;
    V.u32(static_cast<uint32_t>(D.Violations.size()));
    for (const PolicyViolation &PV : D.Violations) {
      V.str32(PV.From);
      V.str32(PV.To);
      V.u8(PV.ViaPath ? 1 : 0);
    }
    Sections.section("VIOL", V.data());
    ++Count;
  }
  if (D.Ok && Opts.Mode == BatchMode::Query) {
    ByteWriter Q;
    Q.str32(Opts.QueryFrom);
    Q.str32(Opts.QueryTo);
    Q.u8(D.Reaches ? 1 : 0);
    Q.u32(static_cast<uint32_t>(D.Witness.size()));
    for (const query::WitnessStep &Step : D.Witness) {
      Q.str32(Step.Node);
      Q.str32(Step.Resource);
      Q.u8(static_cast<uint8_t>(Step.Mark));
    }
    for (const std::vector<std::string> *Names : {&D.Forward, &D.Backward}) {
      Q.u32(static_cast<uint32_t>(Names->size()));
      for (const std::string &Name : *Names)
        Q.str32(Name);
    }
    Sections.section("QRES", Q.data());
    ++Count;
  }

  // Header: magic, u32 version, u64 total frame length, u32 section count,
  // then the section bytes.
  ByteWriter H;
  H.bytes(V1bMagic, 4);
  H.u32(V1bVersion);
  H.u64(4 + 4 + 8 + 4 + Sections.size());
  H.u32(Count);
  Out += H.data();
  Out += Sections.data();
}

void vif::driver::printBatchV1b(std::ostream &OS, const BatchResult &R,
                                const BatchOptions &Opts) {
  std::string Out;
  for (const DesignResult &D : R.Designs) {
    Out.clear();
    writeV1bDesign(Out, D, Opts);
    OS.write(Out.data(), static_cast<std::streamsize>(Out.size()));
  }
}

uint64_t vif::driver::v1bFrameLength(std::string_view Bytes) {
  if (Bytes.size() < 16 || Bytes.substr(0, 4) != std::string_view(V1bMagic, 4))
    return 0;
  return ByteReader(Bytes.substr(8)).u64();
}

bool vif::driver::decodeV1bToJson(std::string_view Frame,
                                  std::string &JsonOut, std::string *Error) {
  DesignResult D;
  BatchOptions Opts;
  std::optional<JsonValue> Id;
  if (const char *Message = decodeFrame(Frame, D, Opts, Id)) {
    if (Error)
      *Error = Message;
    return false;
  }
  std::ostringstream OS;
  {
    JsonWriter J(OS, JsonStyle::Compact);
    J.beginObject();
    writeDesignResponse(J, Id ? &*Id : nullptr, D, Opts);
    J.endObject();
  }
  JsonOut = OS.str();
  return true;
}
