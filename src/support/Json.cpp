//===- support/Json.cpp ---------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>

using namespace vif;

namespace {

/// NeedsEscape[c] is set for the bytes RFC 8259 requires escaped: '"',
/// '\\' and the control characters below 0x20.
struct EscapeTable {
  bool NeedsEscape[256] = {};
  constexpr EscapeTable() {
    for (unsigned C = 0; C < 0x20; ++C)
      NeedsEscape[C] = true;
    NeedsEscape[static_cast<unsigned char>('"')] = true;
    NeedsEscape[static_cast<unsigned char>('\\')] = true;
  }
};
constexpr EscapeTable Escapes;

} // namespace

void vif::jsonEscapeTo(std::string &Out, std::string_view S) {
  size_t RunStart = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (!Escapes.NeedsEscape[C])
      continue;
    Out.append(S.data() + RunStart, I - RunStart);
    RunStart = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      char Hex[8];
      std::snprintf(Hex, sizeof(Hex), "\\u%04x", C);
      Out += Hex;
    }
    }
  }
  Out.append(S.data() + RunStart, S.size() - RunStart);
}

std::string vif::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  jsonEscapeTo(Out, S);
  return Out;
}

void JsonWriter::flush() {
  if (!Buf.empty()) {
    OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
    Buf.clear();
  }
}

void JsonWriter::indent() {
  Buf.append(Stack.size() * IndentWidth, ' ');
}

void JsonWriter::prefix() {
  if (Buf.size() >= ChunkBytes)
    flush();
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (Stack.empty())
    return;
  if (Stack.back() != 0)
    Buf += ',';
  if (!Compact) {
    Buf += '\n';
    indent();
  }
  ++Stack.back();
}

void JsonWriter::open(char C) {
  prefix();
  Buf += C;
  Stack.push_back(0);
}

void JsonWriter::close(char C) {
  assert(!Stack.empty() && "unbalanced JSON container");
  bool HadElements = Stack.back() != 0;
  Stack.pop_back();
  if (HadElements && !Compact) {
    Buf += '\n';
    indent();
  }
  Buf += C;
  finishIfTopLevel();
}

void JsonWriter::finishIfTopLevel() {
  if (!Stack.empty())
    return;
  if (!Compact)
    Buf += '\n';
  // The document is complete; hand the rest of it to the stream.
  flush();
}

void JsonWriter::tokenObject(std::initializer_list<TokenMember> Members) {
  prefix();
  // The object is sized first and then written through one pointer: one
  // buffer growth per record instead of one per token. Members sit one
  // indentation level deeper than the braces.
  size_t NL = Compact ? 0 : 1;
  size_t Outer = Compact ? 0 : Stack.size() * IndentWidth;
  size_t Inner = Compact ? 0 : Outer + IndentWidth;
  std::string_view Colon = Compact ? "\":" : "\": ";
  size_t Size = 2;
  for (const TokenMember &M : Members) {
    assert(jsonEscape(M.Key) == M.Key && "token object keys are verbatim");
    Size += 1 + NL + Inner + 1 + M.Key.size() + Colon.size() + M.Token.size();
  }
  if (Members.size() != 0)
    Size += NL + Outer - 1; // no comma before the first member
  size_t Old = Buf.size();
  Buf.resize(Old + Size);
  char *P = &Buf[Old];
  auto Put = [&P](std::string_view S) {
    std::memcpy(P, S.data(), S.size());
    P += S.size();
  };
  auto NewLine = [&P, NL](size_t Indent) {
    if (NL) {
      *P++ = '\n';
      std::memset(P, ' ', Indent);
      P += Indent;
    }
  };
  *P++ = '{';
  bool First = true;
  for (const TokenMember &M : Members) {
    if (!First)
      *P++ = ',';
    First = false;
    NewLine(Inner);
    *P++ = '"';
    Put(M.Key);
    Put(Colon);
    Put(M.Token);
  }
  if (Members.size() != 0)
    NewLine(Outer);
  *P++ = '}';
  assert(P == Buf.data() + Buf.size() && "token object size mismatch");
  finishIfTopLevel();
}

void JsonWriter::key(std::string_view K) {
  assert(!AfterKey && "key without a value");
  prefix();
  Buf += '"';
  jsonEscapeTo(Buf, K);
  Buf += (Compact ? "\":" : "\": ");
  AfterKey = true;
}

void JsonWriter::value(std::string_view V) {
  prefix();
  Buf += '"';
  jsonEscapeTo(Buf, V);
  Buf += '"';
}

void JsonWriter::value(bool V) {
  prefix();
  Buf += (V ? "true" : "false");
}

void JsonWriter::value(double V) {
  prefix();
  if (!std::isfinite(V)) {
    Buf += "null"; // JSON has no Inf/NaN
    return;
  }
  char Num[32];
  std::snprintf(Num, sizeof(Num), "%.6g", V);
  Buf += Num;
}

void JsonWriter::value(long long V) {
  prefix();
  char Num[24];
  std::snprintf(Num, sizeof(Num), "%lld", V);
  Buf += Num;
}

void JsonWriter::value(unsigned long long V) {
  prefix();
  char Num[24];
  std::snprintf(Num, sizeof(Num), "%llu", V);
  Buf += Num;
}

void JsonWriter::null() {
  prefix();
  Buf += "null";
}
