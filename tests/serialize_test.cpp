//===- tests/serialize_test.cpp - JSON edge-list bytes --------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
//
// The flow graph's "edgeList" is written from node tokens rendered once
// per document, and the writer hands its buffer to the stream in chunks.
// Neither may change a byte: these documents are pinned by length and
// FNV-1a hash, captured from the per-token writer that rendered every
// record member by member into one whole-document buffer.
//
//===----------------------------------------------------------------------===//

#include "driver/Serialize.h"
#include "support/Graph.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <gtest/gtest.h>

#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

using namespace vif;
using namespace vif::driver;

namespace {

uint64_t fnv1a(std::string_view Bytes) {
  HashBuilder H;
  H.bytes(Bytes.data(), Bytes.size());
  return H.value();
}

/// Node names that exercise every escape: quote, backslash, each control
/// byte 0x01..0x1f, DEL (passed through verbatim), the UTF-8 ◦/• interface
/// marks, plus plain names so that ranks interleave with the odd ones.
std::vector<std::string> hostileNames() {
  std::vector<std::string> Names = {"q\"uote", "back\\slash", "del\x7f",
                                    "a◦",      "a•",           "x◦y•",
                                    "plain",   "\"\\\"",       "z"};
  for (char C = 1; C < 0x20; ++C)
    Names.push_back(std::string("c") + C + "!");
  return Names;
}

/// hostileNames() plus \p Extra plain ones; edges i -> j where
/// (i * 7 + j) % \p Keep is 0, self-loops included.
Digraph hostileGraph(unsigned Keep, unsigned Extra = 0) {
  Digraph G;
  std::vector<std::string> Names = hostileNames();
  for (unsigned I = 0; I < Extra; ++I)
    Names.push_back("n" + std::to_string(I));
  for (const std::string &N : Names)
    G.addNode(N);
  for (size_t I = 0; I < Names.size(); ++I)
    for (size_t J = 0; J < Names.size(); ++J)
      if ((I * 7 + J) % Keep == 0)
        G.addEdge(Names[I], Names[J]);
  return G;
}

/// Writes the batch document of one flows design over \p G.
void writeFlowsDocument(std::ostream &OS, const Digraph &G, JsonStyle Style) {
  BatchResult R;
  DesignResult D;
  D.Name = "hostile.vhd";
  D.Ok = true;
  D.NumNodes = G.numNodes();
  D.NumEdges = G.numEdges();
  D.Graph = &G;
  R.Designs.push_back(D);
  R.NumOk = 1;
  BatchOptions O;
  O.Mode = BatchMode::Flows;
  writeBatchDocument(OS, R, O, Style);
}

std::string flowsDocument(const Digraph &G, JsonStyle Style) {
  std::ostringstream OS;
  writeFlowsDocument(OS, G, Style);
  return OS.str();
}

/// Records where each write to the stream ends.
class RecordingBuf : public std::stringbuf {
public:
  std::vector<size_t> WriteEnds;

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    std::streamsize Written = std::stringbuf::xsputn(S, N);
    WriteEnds.push_back(str().size());
    return Written;
  }
};

/// Parses \p Doc and checks its edge list against \p G's sorted edges.
void expectEdgeListRoundTrips(const std::string &Doc, const Digraph &G) {
  std::string Error;
  std::optional<JsonValue> V = parseJson(Doc, &Error);
  ASSERT_TRUE(V.has_value()) << Error;
  const JsonValue *Designs = V->find("designs");
  ASSERT_TRUE(Designs && Designs->isArray());
  const JsonValue *Graph = Designs->elements().at(0).find("graph");
  ASSERT_TRUE(Graph);
  const JsonValue *List = Graph->find("edgeList");
  ASSERT_TRUE(List && List->isArray());
  std::vector<std::pair<std::string, std::string>> Parsed, Expected;
  for (const JsonValue &E : List->elements())
    Parsed.push_back({E.find("from")->asString(), E.find("to")->asString()});
  G.forEachSortedEdge([&](std::string_view From, std::string_view To) {
    Expected.push_back({std::string(From), std::string(To)});
  });
  EXPECT_EQ(Parsed, Expected);
}

TEST(SerializeEdgeList, GoldenBytes) {
  struct Case {
    const char *What;
    unsigned Keep;
    unsigned Extra;
    JsonStyle Style;
    size_t Length;
    uint64_t Hash;
  } Cases[] = {
      {"small pretty", 5, 0, JsonStyle::Pretty, 27496,
       0x8b523ce19f1db59bull},
      {"small compact", 5, 0, JsonStyle::Compact, 11225,
       0x4f755324991afd75ull},
      {"large pretty", 1, 40, JsonStyle::Pretty, 510729,
       0x6262a06b19b51626ull},
      {"large compact", 1, 40, JsonStyle::Compact, 190458,
       0x85ae174761553f90ull},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.What);
    Digraph G = hostileGraph(C.Keep, C.Extra);
    std::string Doc = flowsDocument(G, C.Style);
    EXPECT_EQ(Doc.size(), C.Length);
    EXPECT_EQ(fnv1a(Doc), C.Hash);
    expectEdgeListRoundTrips(Doc, G);
  }
}

TEST(SerializeEdgeList, ChunkBoundaryFallsInsideEdgeList) {
  for (JsonStyle Style : {JsonStyle::Pretty, JsonStyle::Compact}) {
    Digraph G = hostileGraph(1, 40);
    RecordingBuf Sink;
    std::ostream OS(&Sink);
    writeFlowsDocument(OS, G, Style);
    std::string Doc = Sink.str();
    EXPECT_EQ(Doc, flowsDocument(G, Style));
    size_t ListStart = Doc.find("\"edgeList\"");
    size_t ListEnd = Doc.find(']', Doc.rfind("\"to\""));
    ASSERT_NE(ListStart, std::string::npos);
    ASSERT_GT(ListEnd - ListStart, JsonWriter::ChunkBytes);
    // The document reaches the stream in several writes, the first one
    // handed over mid-list once the buffer held a chunk.
    ASSERT_GT(Sink.WriteEnds.size(), 1u);
    EXPECT_GE(Sink.WriteEnds.front(), JsonWriter::ChunkBytes);
    EXPECT_GT(Sink.WriteEnds.front(), ListStart);
    EXPECT_LT(Sink.WriteEnds.front(), ListEnd);
    EXPECT_EQ(Sink.WriteEnds.back(), Doc.size());
  }
}

TEST(SerializeEdgeList, TokenObjectMatchesMemberByMember) {
  for (JsonStyle Style : {JsonStyle::Pretty, JsonStyle::Compact}) {
    std::ostringstream ByMember, ByToken;
    {
      JsonWriter J(ByMember, Style);
      J.beginArray();
      J.beginObject();
      J.member("from", "a\"b");
      J.member("to", "c");
      J.endObject();
      J.beginObject();
      J.endObject();
      J.endArray();
      J.beginObject();
      J.member("k", "v");
      J.endObject();
    }
    {
      JsonWriter J(ByToken, Style);
      J.beginArray();
      J.tokenObject({{"from", "\"a\\\"b\""}, {"to", "\"c\""}});
      J.tokenObject({});
      J.endArray();
      J.tokenObject({{"k", "\"v\""}});
    }
    EXPECT_EQ(ByToken.str(), ByMember.str());
  }
}

} // namespace
