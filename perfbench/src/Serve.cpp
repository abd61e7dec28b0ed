//===- perfbench/src/Serve.cpp - serve-warm and serve-edit ----------------===//
//
// Part of the vif project; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server path: an in-process driver::Server listening on loopback
/// with 2 workers and a 16-entry session cache over a `--store`
/// directory, driven closed-loop by 2 client connections (each sends its
/// next request once the previous answer is in). Every response is
/// checked against the oracle.
///
/// The traced run keeps the same server and clients. The client records
/// each round trip as the request's root span, with the time it spends
/// writing the request and reading the response after its first byte as
/// serve.socket spans. After the round trip, on a replay track of its own,
/// the same request line is handled by an identically configured twin
/// server in-process (Server::handleLine, the serve.handle span), and the
/// work that request implied is replayed through the layers' public
/// functions — store decodes on session-cache misses, query probes and
/// serialization for serve-warm; the front end, incremental Table 4/5,
/// closure, store encode and query-index build for serve-edit. The twin
/// and the replays are separate executions from the round trip, so the
/// split of a request's time between the layers is an estimate.
///
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Check.h"
#include "Common.h"
#include "Inputs.h"
#include "Oracle.h"
#include "Trace.h"
#include "Workloads.h"

#include "driver/ArtifactStore.h"
#include "driver/Serialize.h"
#include "driver/Serve.h"
#include "driver/V1b.h"
#include "ifa/LocalDeps.h"
#include "support/Json.h"

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace vif;

namespace {

constexpr unsigned Clients = 2;

std::string quote(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
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
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Esc[8];
        std::snprintf(Esc, sizeof Esc, "\\u%04x", C);
        Out += Esc;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

/// One request line. \p Source non-empty sends the design inline,
/// otherwise by \p Key; \p Name, when non-empty, labels it.
std::string request(uint64_t Id, const char *Command, const std::string &Key,
                    const std::string &Source, const std::string &Name,
                    bool V1b = false, const QueryRef *Q = nullptr) {
  std::string L = "{\"id\":" + std::to_string(Id) + ",\"command\":\"" +
                  Command + "\"";
  if (!Source.empty())
    L += ",\"source\":" + quote(Source);
  else
    L += ",\"contentKey\":" + quote(Key);
  if (!Name.empty())
    L += ",\"name\":" + quote(Name);
  if (V1b)
    L += ",\"format\":\"v1b\"";
  if (Q)
    L += ",\"options\":{\"from\":" + quote(Q->From) + ",\"to\":" +
         quote(Q->To) + "}";
  return L + "}";
}

std::string contentKeyOf(std::string_view Resp) {
  size_t At = Resp.find("\"contentKey\":\"");
  if (At == std::string_view::npos)
    return {};
  At += 14;
  return std::string(Resp.substr(At, Resp.find('"', At) - At));
}

bool statusOk(std::string_view Resp) {
  return Resp.substr(0, 4) == "VIFB" ||
         Resp.find("\"status\":\"ok\"") != std::string_view::npos;
}

/// When a round trip's request was fully written and when the first byte
/// of its response arrived.
struct Wire {
  double Sent = 0, First = 0;
};

/// Records one round trip from \p T0 to \p T1 as the operation's root span
/// on the client track, with its two socket phases — writing the request,
/// and reading the response from its first byte on — as serve.socket
/// spans. What is left of the root is the wait for the server's answer.
void addRoundTrip(SpanBuffer &B, uint64_t Op, double T0, double T1,
                  const Wire &W) {
  uint64_t Root = B.add("request", Op, 0, T0, T1);
  B.add("serve.socket", Op, Root, T0, W.Sent);
  B.add("serve.socket", Op, Root, W.First, T1);
}

/// A loopback client speaking the serve line protocol: JSON
/// responses end at a newline, v1b frames carry their length.
class Conn {
public:
  explicit Conn(uint16_t Port) {
    Fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_port = htons(Port);
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (Fd >= 0 && connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof A) != 0) {
      ::close(Fd);
      Fd = -1;
    }
    int One = 1;
    if (Fd >= 0)
      setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  /// Sends \p Line and reads one response into \p Resp (no separator).
  /// \p W, if given, receives when the request was written and when the
  /// first response byte arrived.
  bool roundTrip(const std::string &Line, std::string &Resp,
                 Wire *W = nullptr) {
    if (Fd < 0)
      return false;
    std::string Out = Line + "\n";
    for (size_t Off = 0; Off < Out.size();) {
      ssize_t N = ::write(Fd, Out.data() + Off, Out.size() - Off);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    if (W)
      W->Sent = nowMs();
    if (Buf.empty() && !fill())
      return false;
    if (W)
      W->First = nowMs();
    size_t Len;
    if (Buf[0] == 'V') {
      while ((Len = driver::v1bFrameLength(Buf)) == 0 || Buf.size() < Len + 1)
        if (!fill())
          return false;
    } else {
      size_t Nl;
      while ((Nl = Buf.find('\n')) == std::string::npos)
        if (!fill())
          return false;
      Len = Nl;
    }
    Resp.assign(Buf, 0, Len);
    Buf.erase(0, Len + 1);
    return true;
  }

private:
  /// Waits for more response bytes by polling the socket without blocking:
  /// a client that sleeps in read() adds its own wake-up to every round
  /// trip, which is neither server work nor steady on a shared host.
  bool fill() {
    char Chunk[1 << 16];
    ssize_t N;
    while ((N = ::recv(Fd, Chunk, sizeof Chunk, MSG_DONTWAIT)) < 0 &&
           (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      ;
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
    return true;
  }
  int Fd = -1;
  std::string Buf;
};

driver::ServeOptions serveOptions(const std::string &StoreDir) {
  driver::ServeOptions O;
  O.CacheCapacity = 16;
  O.Workers = 2;
  O.StoreDir = StoreDir;
  return O;
}

/// An in-process server listening on an ephemeral loopback port.
class LiveServer {
public:
  ~LiveServer() { stop(); }
  bool start(const driver::ServeOptions &O) {
    S = std::make_unique<driver::Server>(O);
    T = std::thread([this] { S->listenAndServe(0); });
    for (int I = 0; I < 10000 && !S->boundPort(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Port = S->boundPort();
    return Port != 0;
  }
  /// Shuts the server down; every client connection must be closed.
  void stop() {
    if (!T.joinable())
      return;
    {
      Conn C(Port);
      std::string R;
      C.roundTrip("{\"command\":\"shutdown\"}", R);
    }
    T.join();
    S.reset();
  }
  driver::Server &server() { return *S; }
  uint16_t port() const { return Port; }

private:
  std::unique_ptr<driver::Server> S;
  std::thread T;
  uint16_t Port = 0;
};

void freshDir(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir, EC);
}

/// The twin server of a traced run plus the lock that serializes it, so
/// its cache and store counter deltas belong to one request.
struct Twin {
  std::unique_ptr<driver::Server> S;
  std::mutex M;
  /// Handles \p Line inside a serve.handle span under \p Parent, the
  /// request's replay root; optionally reports whether it missed the
  /// twin's session cache and how many store blobs it loaded.
  void handle(SpanBuffer &B, uint64_t Op, uint64_t Parent,
              const std::string &Line, bool *CacheMiss = nullptr,
              uint64_t *StoreHits = nullptr) {
    std::lock_guard<std::mutex> L(M);
    driver::SessionCache::Stats C0 = S->cache().stats();
    driver::ArtifactStore::Counters S0 = S->artifactStore()->counters();
    uint64_t Id = 0;
    traced(B, "serve.handle", Op, Parent, Id, [&] { return S->handleLine(Line); });
    if (CacheMiss)
      *CacheMiss = S->cache().stats().Misses > C0.Misses;
    if (StoreHits)
      *StoreHits = S->artifactStore()->counters().Hits - S0.Hits;
  }
};

/// Serializes \p D as the server would for \p Mode, inside a span.
void replaySerialize(SpanBuffer &B, uint64_t Op, uint64_t Parent,
                     const driver::DesignResult &D, driver::BatchMode Mode,
                     bool V1b) {
  driver::BatchOptions O;
  O.Mode = Mode;
  uint64_t Id = 0;
  if (V1b) {
    std::string Frame;
    traced(B, "serialize.v1b", Op, Parent, Id, [&] {
      driver::writeV1bDesign(Frame, D, O);
      return 0;
    });
    B.count(Id, "serialize.v1b.bytes", static_cast<double>(Frame.size()));
    return;
  }
  std::ostringstream OS;
  traced(B, "serialize.json", Op, Parent, Id, [&] {
    JsonWriter J(OS, JsonStyle::Compact);
    J.beginObject();
    driver::writeDesignBody(J, D, O);
    J.endObject();
    return 0;
  });
  B.count(Id, "serialize.json.bytes", static_cast<double>(OS.str().size()));
}

/// Query probes as the server answers a `query` request, inside a span.
void replayProbe(SpanBuffer &B, uint64_t Op, uint64_t Parent,
                 const query::FlowQueryEngine &E, const QueryRef &Q,
                 driver::DesignResult &D) {
  uint64_t Id = 0;
  traced(B, "query.probe", Op, Parent, Id, [&] {
    D.Reaches = E.reaches(Q.From, Q.To);
    D.Witness.clear();
    if (auto W = E.witnessPath(Q.From, Q.To))
      D.Witness = std::move(*W);
    D.Forward = E.reachableFrom(Q.From);
    D.Backward = E.whatReaches(Q.To);
    return 0;
  });
  B.count(Id, "query.probes", 1);
}

driver::DesignResult shapeOf(const Design &D, const RefDesign &R,
                             const Digraph *G) {
  driver::DesignResult DR;
  DR.Name = D.Name;
  DR.Ok = true;
  DR.NumProcesses = R.Processes;
  DR.NumSignals = R.Signals;
  DR.NumVariables = R.Variables;
  DR.Graph = G;
  DR.NumNodes = G ? G->numNodes() : 0;
  DR.NumEdges = G ? G->numEdges() : 0;
  return DR;
}

/// Everything a serve workload reports once its phases are done.
struct Phase {
  std::vector<double> ReqMs, StepMs;
  uint64_t Errors = 0;
};

/// Closed-loop throughput of Clients clients whose operations take \p Ms
/// each, counting only the time spent in round trips: the benchmark's own
/// work between them (building requests, checking answers) stays off it.
double throughput(const std::vector<double> &Ms) {
  return Clients * 1000.0 / mean(Ms);
}

void reportEndToEnd(RunResult &Out, Phase &P, double SetupS, bool Steps) {
  reportLatency(Out, "req", P.ReqMs, "request");
  Out.metric("req_per_s", throughput(P.ReqMs), "1/s");
  if (Steps) {
    reportLatency(Out, "verdict", P.StepMs, "edit step (flows + 2 queries)");
    Out.metric("designs_per_s", throughput(P.StepMs), "1/s");
  } else {
    reportLatency(Out, "verdict", P.ReqMs, "request (one verdict each)");
    Out.metric("designs_per_s", throughput(P.ReqMs), "1/s");
  }
  Out.metric("peak_rss_mb", peakRssMb(), "MB");
  Out.metric("setup_s", SetupS, "s");
}

/// Runs \p Body(client, phase) on Clients threads, each in a closed loop,
/// until the phase ends; \p Body returns false to stop its client, and
/// then the phase, early. A client builds each request before and checks
/// each answer after its timed round trip, before it sends the next
/// request. With an enabled \p Cal the phase runs in slices of half a
/// second, with the calibration kernel between them while the clients
/// wait, and each slice's times are scaled by the kernel times around it.
template <typename Fn>
void closedLoop(double Seconds, Phase &P, Fn &&Body,
                HostCalibration *Cal = nullptr) {
  bool Sliced = Cal && Cal->enabled();
  double PhaseEnd = nowMs() + Seconds * 1000.0;
  std::atomic<bool> Stop{false};
  if (Sliced)
    Cal->before();
  while (!Stop && nowMs() < PhaseEnd) {
    double End = Sliced ? std::min(PhaseEnd, nowMs() + 500.0) : PhaseEnd;
    std::vector<std::thread> Ts;
    std::vector<Phase> Per(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Ts.emplace_back([&, C] {
        while (!Stop && nowMs() < End)
          if (!Body(C, Per[C]))
            Stop = true;
      });
    for (std::thread &T : Ts)
      T.join();
    double Scale = Sliced ? Cal->scaled(1.0) : 1.0;
    for (Phase &Q : Per) {
      for (double Ms : Q.ReqMs)
        P.ReqMs.push_back(Ms * Scale);
      for (double Ms : Q.StepMs)
        P.StepMs.push_back(Ms * Scale);
      P.Errors += Q.Errors;
    }
  }
}

/// The traced run's span buffers: per client, the client track (round
/// trips) and the replay track (twin handleLine and layer replays).
struct Tracks {
  std::vector<std::unique_ptr<SpanBuffer>> Client, Replay;
  Tracks() {
    for (unsigned C = 0; C < Clients; ++C) {
      Client.push_back(std::make_unique<SpanBuffer>(C));
      Replay.push_back(std::make_unique<SpanBuffer>(Clients + C, true));
    }
  }
  std::vector<SpanBuffer *> all() const {
    std::vector<SpanBuffer *> All;
    for (auto &B : Client)
      All.push_back(B.get());
    for (auto &B : Replay)
      All.push_back(B.get());
    return All;
  }
};

/// The per-layer report of a traced serve run. serve.socket and
/// serve.handle are measured spans of their own; unattributed.ms is what
/// of the twin's handleLine the replayed layers leave uncovered. A note
/// compares socket + handleLine with the untraced round trip.
void reportServeLayers(RunResult &Out, const Config &Cfg, const Tracks &T,
                       double UntracedMs, double TracedMs,
                       std::map<std::string, double> Explicit) {
  std::vector<SpanBuffer *> All = T.all();
  LayerSummary L = summarize(All);
  double Socket = L.selfPerOp("serve.socket"), Handle = L.selfPerOp("serve.handle");
  double Replayed = L.layersPerOp() - Socket - Handle;
  Explicit["unattributed.ms"] = Handle - Replayed;
  reportLayers(Out, L, UntracedMs, TracedMs, Explicit);
  char Line[240];
  std::snprintf(Line, sizeof Line,
                "estimate: untraced round trip %.4f ms = serve.socket %.4f + "
                "serve.handle %.4f (replayed layers %.4f + unattributed %.4f) "
                "+ %.4f not covered by either",
                UntracedMs, Socket, Handle, Replayed, Handle - Replayed,
                UntracedMs - Socket - Handle);
  Out.note(Line);
  if (!Cfg.TraceOut.empty() && !writeChromeTrace(Cfg.TraceOut, All))
    Out.note("warning: could not write " + Cfg.TraceOut);
}

//===----------------------------------------------------------------------===//
// serve-warm
//===----------------------------------------------------------------------===//

/// The traced replay's copy of one design's warm state: the store blobs
/// the server decodes on a miss and the decoded graph and query engine.
struct WarmReplica {
  std::string Dsgn, Qidx;
  Digraph Graph;
  std::optional<query::FlowQueryEngine> Engine;
};

bool runServeWarm(const Config &Cfg, RunResult &Out) {
  std::vector<Design> Designs = serveWarmDesigns(Cfg.Seed);
  size_t N = Designs.size();
  std::vector<RefDesign> Refs;
  std::string Error;
  if (!computeReferences(Designs, Cfg.Seed, Cfg.WorkDir, 4, Refs, Error)) {
    Out.note("error: " + Error);
    return false;
  }
  std::string DirA = Cfg.WorkDir + "/store", DirB = Cfg.WorkDir + "/store-twin";
  LiveServer A;
  Twin B;
  std::vector<std::string> Keys(N);
  bool Started = true;

  // Set-up, SetupReps times: a first server populates a fresh store (flows +
  // one query per design), the measured server restarts on it, and the
  // restarted server is warmed by registering every design's content.
  // The untraced run calibrates every set-up and the timed phase (see
  // README, "Host calibration").
  HostCalibration Cal(!Cfg.Trace);
  auto Prepare = [&] {
    A.stop();
    freshDir(DirA);
    Cal.before();
  };
  auto Setup = [&] {
    {
      driver::Server P(serveOptions(DirA));
      for (size_t I = 0; I < N; ++I) {
        std::string R = P.handleLine(request(I, "flows", "", Designs[I].Source,
                                             Designs[I].Name));
        P.handleLine(request(I, "query", contentKeyOf(R), "", "", false,
                             &Refs[I].Queries[0]));
      }
    }
    Started = Started && A.start(serveOptions(DirA));
    Conn C(A.port());
    for (size_t I = 0; I < N; ++I) {
      std::string R;
      C.roundTrip(request(I, "check", "", Designs[I].Source, Designs[I].Name), R);
      Keys[I] = contentKeyOf(R);
    }
  };
  double SetupS = medianSetupSeconds(Out, SetupReps, Prepare, Setup,
                                     [&](double S) { return Cal.scaled(S); });
  if (!Started) {
    Out.note("error: server did not start");
    return false;
  }

  Tally Count(Out);
  CheckMemo Memo;
  std::vector<uint64_t> JsonContent(N, 0);
  // Each design's checked edge set, for validating query witnesses.
  std::vector<std::vector<uint64_t>> EdgesOf(N);
  auto Salt = [](size_t I, unsigned Kind, unsigned Q) {
    return (I * 16 + Kind * 4 + Q + 1) * 0x9E3779B97F4A7C15ull;
  };
  // Checks one response (kind 0 flows JSON, 1 flows v1b, 2 query, 3
  // check) through the memo.
  auto Check = [&](size_t I, unsigned Kind, unsigned Q, const std::string &Resp) {
    uint64_t Key = stableHash(Resp) ^ Salt(I, Kind, Q);
    int Known = Memo.find(Key);
    std::string Why;
    bool Ok;
    if (Known >= 0) {
      Ok = Known == 1;
      Why = "same wrong answer as before";
    } else {
      switch (Kind) {
      case 0:
        Ok = checkFlows(Resp, Refs[I], Why);
        break;
      case 1:
        Ok = checkV1b(Resp, Refs[I], JsonContent[I], Why);
        break;
      case 2:
        Ok = checkQuery(Resp, Refs[I], Refs[I].Queries[Q], EdgesOf[I], Why);
        break;
      default:
        Ok = checkCheck(Resp, Refs[I], Why);
      }
      Memo.insert(Key, Ok);
    }
    Count(Ok, Designs[I].Name, Why);
  };
  auto Line = [&](size_t I, unsigned Kind, unsigned Q) {
    uint64_t Id = (I * 16 + Kind * 4 + Q);
    static const char *const Cmd[] = {"flows", "flows", "query", "check"};
    return request(Id, Cmd[Kind], Keys[I], "", "", Kind == 1,
                   Kind == 2 ? &Refs[I].Queries[Q] : nullptr);
  };

  // Validation, untimed: every design's JSON flows answer (whose content
  // fingerprint the v1b answers must match), v1b frame, queries, check.
  std::string JsonBig, FrameBig;
  size_t Big = 0;
  for (size_t I = 0; I < N; ++I)
    if (Refs[I].Edges > Refs[Big].Edges)
      Big = I;
  {
    Conn C(A.port());
    for (size_t I = 0; I < N; ++I) {
      std::string R, Why;
      C.roundTrip(Line(I, 0, 0), R);
      checkFlows(R, Refs[I], Why, &EdgesOf[I]);
      JsonContent[I] = contentHash(R);
      Check(I, 0, 0, R);
      if (I == Big)
        JsonBig = R;
      C.roundTrip(Line(I, 1, 0), R);
      Check(I, 1, 0, R);
      if (I == Big)
        FrameBig = R;
      for (unsigned Q = 0; Q < Refs[I].Queries.size(); ++Q) {
        C.roundTrip(Line(I, 2, Q), R);
        Check(I, 2, Q, R);
      }
      C.roundTrip(Line(I, 3, 0), R);
      Check(I, 3, 0, R);
    }
  }
  {
    std::string Why;
    selfTest(Out, Cfg, checkFlows(dropOneEdge(JsonBig), Refs[Big], Why),
             checkV1b(corruptFrame(FrameBig), Refs[Big], JsonContent[Big], Why));
  }
  checkKemmerer(Count, Out, Refs);

  std::vector<double> Cdf = zipfCdf(N);
  std::vector<Rng> Streams;
  for (unsigned C = 0; C < Clients; ++C)
    Streams.emplace_back(Cfg.Seed * 1000 + C);
  auto Pick = [&](unsigned C, size_t &I, unsigned &Kind, unsigned &Q) {
    Rng &R = Streams[C];
    I = std::lower_bound(Cdf.begin(), Cdf.end(), R.unit()) - Cdf.begin();
    I = std::min(I, N - 1);
    double K = R.unit();
    Kind = K < 0.4 ? 0 : K < 0.6 ? 1 : K < 0.9 ? 2 : 3;
    Q = static_cast<unsigned>(R.below(Refs[I].Queries.size()));
  };
  std::vector<std::unique_ptr<Conn>> Conns;
  for (unsigned C = 0; C < Clients; ++C)
    Conns.push_back(std::make_unique<Conn>(A.port()));
  auto Untimed = [&](unsigned C, Phase &P) {
    size_t I;
    unsigned Kind, Q;
    Pick(C, I, Kind, Q);
    std::string L = Line(I, Kind, Q), R;
    double T0 = nowMs();
    bool Ok = Conns[C]->roundTrip(L, R);
    P.ReqMs.push_back(nowMs() - T0);
    P.Errors += !Ok || !statusOk(R);
    Check(I, Kind, Q, R);
    return Ok;
  };

  if (!Cfg.Trace) {
    Phase P;
    closedLoop(Cfg.Seconds, P, Untimed, &Cal);
    Conns.clear();
    reportEndToEnd(Out, P, SetupS, false);
    Out.note(Cal.summary());
    Out.note("store_mb = " + std::to_string(directoryBytes(DirA) / 1e6));
    return true;
  }

  // Traced run: the twin restarts on a copy of the populated store and
  // learns the same content keys; the replicas decode the same blobs.
  {
    std::error_code EC;
    std::filesystem::remove_all(DirB, EC);
    std::filesystem::copy(DirA, DirB, std::filesystem::copy_options::recursive, EC);
  }
  B.S = std::make_unique<driver::Server>(serveOptions(DirB));
  std::vector<WarmReplica> Rep(N);
  {
    driver::ArtifactStore Store(DirA);
    for (size_t I = 0; I < N; ++I) {
      B.S->handleLine(request(I, "check", "", Designs[I].Source, Designs[I].Name));
      uint64_t K = driver::sessionCacheKey(Designs[I].Source, driver::SessionOptions());
      Store.load("dsgn", K, Rep[I].Dsgn);
      Store.load("qidx", K, Rep[I].Qidx);
      ResourceMatrix Lo, Gl;
      driver::decodeDesignArtifact(Rep[I].Dsgn, Lo, Gl, Rep[I].Graph);
      Rep[I].Graph.ensureSortedViews();
      Rep[I].Engine.emplace(Rep[I].Graph);
    }
  }
  driver::SessionCache::Stats C0 = A.server().cache().stats();
  driver::ArtifactStore::Counters S0 = A.server().artifactStore()->counters();
  Tracks T;
  std::atomic<uint64_t> NextOp{0};
  Phase TP;
  closedLoop(Cfg.Seconds / 2, TP, [&](unsigned C, Phase &P) {
    size_t I;
    unsigned Kind, Q;
    Pick(C, I, Kind, Q);
    std::string L = Line(I, Kind, Q), R;
    uint64_t Op = ++NextOp;
    Wire Wt;
    double T0 = nowMs();
    bool Ok = Conns[C]->roundTrip(L, R, &Wt);
    double T1 = nowMs();
    P.ReqMs.push_back(T1 - T0);
    addRoundTrip(*T.Client[C], Op, T0, T1, Wt);
    SpanBuffer &Buf = *T.Replay[C];
    uint64_t Root = Buf.open("replay", Op, 0);
    bool Miss = false;
    uint64_t StoreHits = 0;
    B.handle(Buf, Op, Root, L, &Miss, &StoreHits);
    WarmReplica &W = Rep[I];
    uint64_t Id = 0;
    if (Miss || StoreHits) {
      ResourceMatrix Lo, Gl;
      Digraph G;
      double Bytes = 0;
      traced(Buf, "store.decode", Op, Root, Id, [&] {
        if (Miss) {
          driver::decodeDesignArtifact(W.Dsgn, Lo, Gl, G);
          Bytes += static_cast<double>(W.Dsgn.size());
        }
        if (Kind == 2 && StoreHits > (Miss ? 1u : 0u)) {
          driver::decodeQueryIndex(W.Qidx, W.Graph);
          Bytes += static_cast<double>(W.Qidx.size());
        }
        return 0;
      });
      Buf.count(Id, "store.bytes_read", Bytes);
    }
    driver::DesignResult D = shapeOf(Designs[I], Refs[I], &W.Graph);
    if (Kind == 2)
      replayProbe(Buf, Op, Root, *W.Engine, Refs[I].Queries[Q], D);
    replaySerialize(Buf, Op, Root, D,
                    Kind == 2   ? driver::BatchMode::Query
                    : Kind == 3 ? driver::BatchMode::Check
                                : driver::BatchMode::Flows,
                    Kind == 1);
    Buf.close(Root);
    P.Errors += !Ok || !statusOk(R);
    Check(I, Kind, Q, R);
    return Ok;
  });
  driver::SessionCache::Stats C1 = A.server().cache().stats();
  driver::ArtifactStore::Counters S1 = A.server().artifactStore()->counters();

  Phase UP;
  closedLoop(Cfg.Seconds / 2, UP, Untimed);
  Conns.clear();
  double Untraced = mean(UP.ReqMs);

  uint64_t Hits = C1.Hits - C0.Hits, Misses = C1.Misses - C0.Misses;
  uint64_t SH = S1.Hits - S0.Hits, SM = S1.Misses - S0.Misses;
  reportServeLayers(Out, Cfg, T, Untraced, mean(TP.ReqMs),
                    {{"cache.hit_ratio", Hits + Misses ? double(Hits) / double(Hits + Misses) : 0},
                     {"cache.evictions", double(C1.Evictions - C0.Evictions)},
                     {"store.hit_ratio", SH + SM ? double(SH) / double(SH + SM) : 0},
                     {"serve.errors", double(TP.Errors)},
                     {"store_mb", directoryBytes(DirA) / 1e6}});
  return true;
}

//===----------------------------------------------------------------------===//
// serve-edit
//===----------------------------------------------------------------------===//

/// Edits prepared (and answered by the oracle) per run. A run stops early,
/// with a note, if its clients use them all up.
constexpr size_t EditPool = 2700;

/// The replay of a serve-edit flows request: what a session-cache miss on
/// fresh content costs the server (AnalysisSession::ifa with the artifact
/// table and store wired in, then the response), as layer calls. Leaves
/// the flow-graph result in \p I for the follow-up query.
void replayEdit(SpanBuffer &Buf, uint64_t Op, uint64_t H, const Design &D,
                const RefDesign &R, ProcessArtifactTable &Table,
                driver::ArtifactStore &Store, std::optional<IFAResult> &I) {
  uint64_t Id = 0;
  DiagnosticEngine Diags;
  DesignFile F =
      traced(Buf, "parse", Op, H, Id, [&] { return parseDesign(D.Source, Diags); });
  Buf.count(Id, "parse.bytes", static_cast<double>(D.Source.size()));
  std::optional<ElaboratedProgram> Prog =
      traced(Buf, "sema", Op, H, Id, [&] { return elaborateDesign(F, Diags); });
  if (!Prog)
    return;
  Buf.count(Id, "sema.processes", static_cast<double>(Prog->Processes.size()));
  ProgramCFG G = traced(Buf, "cfg", Op, H, Id, [&] { return ProgramCFG::build(*Prog); });
  Buf.count(Id, "cfg.labels", static_cast<double>(G.numLabels()));
  ActiveSignalsResult Act;
  ReachingDefsResult RD;
  IncrementalStats St;
  IFAOptions IO;
  traced(Buf, "rd.incremental", Op, H, Id, [&] {
    return analyzeIncremental(*Prog, G, IO.RD, Table, Act, RD, &St);
  });
  Buf.count(Id, "rd.incremental.solved", double(St.ActiveSolved + St.RdSolved));
  Buf.count(Id, "rd.incremental.reused", double(St.ActiveReused + St.RdReused));
  ResourceMatrix Lo =
      traced(Buf, "localdeps", Op, H, Id, [&] { return computeLocalDeps(*Prog, G); });
  Buf.count(Id, "localdeps.rmlo_entries", static_cast<double>(Lo.size()));
  // The closure span also covers the separate extraction probe, its child,
  // so the closure's self time is composeInformationFlow minus extraction.
  uint64_t Cl = Buf.open("ifa.closure", Op, H);
  I = composeInformationFlow(*Prog, G, IO, std::move(Lo), std::move(Act),
                             std::move(RD));
  Buf.count(Cl, "ifa.rmgl_entries", static_cast<double>(I->RMgl.size()));
  Buf.count(Cl, "ifa.edges", static_cast<double>(I->Graph.numEdges()));
  traced(Buf, "ifa.extract", Op, Cl, Id,
         [&] { return extractFlowGraph(LabelIndexedRM(I->RMgl), *Prog); });
  Buf.close(Cl);
  std::string Blob;
  traced(Buf, "store.encode", Op, H, Id, [&] {
    Blob = driver::encodeDesignArtifact(*I);
    Store.store("dsgn", driver::sessionCacheKey(D.Source, {}), Blob);
    return 0;
  });
  Buf.count(Id, "store.bytes_written", static_cast<double>(Blob.size()));
  replaySerialize(Buf, Op, H, shapeOf(D, R, &I->Graph), driver::BatchMode::Flows,
                  false);
}

/// The replay of a follow-up query: the first query on a warm session
/// builds its query index and persists it, every query probes it.
void replayEditQuery(SpanBuffer &Buf, uint64_t Op, uint64_t H, const Design &D,
                     const RefDesign &R, const QueryRef &Q,
                     driver::ArtifactStore &Store, const IFAResult &I,
                     std::optional<query::FlowQueryEngine> &E) {
  uint64_t Id = 0;
  if (!E) {
    traced(Buf, "query.build", Op, H, Id, [&] {
      E.emplace(I.Graph);
      return 0;
    });
    std::string Blob;
    traced(Buf, "store.encode", Op, H, Id, [&] {
      Blob = driver::encodeQueryIndex(*E);
      Store.store("qidx", driver::sessionCacheKey(D.Source, {}), Blob);
      return 0;
    });
    Buf.count(Id, "store.bytes_written", static_cast<double>(Blob.size()));
  }
  driver::DesignResult DR = shapeOf(D, R, &I.Graph);
  replayProbe(Buf, Op, H, *E, Q, DR);
  replaySerialize(Buf, Op, H, DR, driver::BatchMode::Query, false);
}

bool runServeEdit(const Config &Cfg, RunResult &Out) {
  EditStream Edits(Cfg.Seed);
  const std::vector<Design> &Bases = Edits.bases();
  size_t NB = Bases.size();
  std::vector<RefDesign> Refs;
  std::string Error;
  if (!computeReferences(
          [&](size_t I) { return I < NB ? Bases[I] : Edits.edit(I - NB); },
          NB + EditPool, Cfg.Seed, Cfg.WorkDir, 4, Refs, Error)) {
    Out.note("error: " + Error);
    return false;
  }
  std::string DirA = Cfg.WorkDir + "/store", DirB = Cfg.WorkDir + "/store-twin",
              DirR = Cfg.WorkDir + "/store-replica";
  LiveServer A;
  Twin B;
  std::vector<std::string> BaseResp(Bases.size()), BaseQuery(Bases.size());
  bool Started = true;

  // Set-up, SetupReps times: start the server on a fresh store and warm it
  // with the base designs (flows + one query each).
  // The untraced run calibrates every set-up and the timed phase (see
  // README, "Host calibration").
  HostCalibration Cal(!Cfg.Trace);
  auto Prepare = [&] {
    A.stop();
    freshDir(DirA);
    Cal.before();
  };
  auto Setup = [&] {
    Started = Started && A.start(serveOptions(DirA));
    Conn C(A.port());
    for (size_t I = 0; I < Bases.size(); ++I) {
      C.roundTrip(request(I, "flows", "", Bases[I].Source, Bases[I].Name),
                  BaseResp[I]);
      C.roundTrip(request(I, "query", contentKeyOf(BaseResp[I]), "", "", false,
                          &Refs[I].Queries[0]),
                  BaseQuery[I]);
    }
  };
  double SetupS = medianSetupSeconds(Out, SetupReps, Prepare, Setup,
                                     [&](double S) { return Cal.scaled(S); });
  if (!Started) {
    Out.note("error: server did not start");
    return false;
  }
  Tally Count(Out);
  std::string Why;
  for (size_t I = 0; I < NB; ++I) {
    std::vector<uint64_t> Edges;
    Count(checkFlows(BaseResp[I], Refs[I], Why, &Edges), Bases[I].Name, Why);
    Count(checkQuery(BaseQuery[I], Refs[I], Refs[I].Queries[0], Edges, Why),
          Bases[I].Name, Why);
  }
  {
    Conn C(A.port());
    std::string Frame;
    C.roundTrip(request(0, "flows", contentKeyOf(BaseResp[0]), "", Bases[0].Name, true),
                Frame);
    uint64_t Content = contentHash(BaseResp[0]);
    Count(checkV1b(Frame, Refs[0], Content, Why), Bases[0].Name, Why);
    selfTest(Out, Cfg, checkFlows(dropOneEdge(BaseResp[0]), Refs[0], Why),
             checkV1b(corruptFrame(Frame), Refs[0], Content, Why));
  }
  checkKemmerer(Count, Out, Refs);

  std::atomic<size_t> Next{0};
  std::atomic<bool> Exhausted{false};
  std::vector<std::unique_ptr<Conn>> Conns;
  for (unsigned C = 0; C < Clients; ++C)
    Conns.push_back(std::make_unique<Conn>(A.port()));

  // Traced-run state: span buffers, and the replica's per-process artifact
  // table over its own store, warmed with the bases the way the server's
  // table is.
  std::unique_ptr<Tracks> Tr;
  ProcessArtifactTable Table;
  std::unique_ptr<driver::ArtifactStore> Store;
  std::atomic<uint64_t> NextOp{0};

  // One step: flows on a fresh edit (inline source), then the edit's
  // queries on the same content by key. With \p Traced, each request also
  // gets its attribution probes.
  auto Step = [&](unsigned C, Phase &P, bool Traced) {
    size_t S = Next++;
    if (S >= EditPool) {
      Exhausted = true;
      return false;
    }
    Design D = Edits.edit(S);
    const RefDesign &R = Refs[NB + S];
    // The step's request lines and responses; request K ran from T[2K] to
    // T[2K + 1]. A step's time is the sum of its round trips.
    std::vector<std::string> Lines{request(S, "flows", "", D.Source, D.Name)};
    std::vector<std::string> Resps(1);
    std::vector<Wire> Ws(1);
    std::vector<double> T{nowMs()};
    bool Ok = Conns[C]->roundTrip(Lines[0], Resps[0], &Ws[0]);
    T.push_back(nowMs());
    std::string Key = contentKeyOf(Resps[0]);
    for (size_t Q = 0; Ok && !Key.empty() && Q < R.Queries.size(); ++Q) {
      Lines.push_back(request(S, "query", Key, "", "", false, &R.Queries[Q]));
      Resps.emplace_back();
      Ws.emplace_back();
      T.push_back(nowMs());
      Ok = Conns[C]->roundTrip(Lines.back(), Resps.back(), &Ws.back());
      T.push_back(nowMs());
    }
    if (Traced) {
      std::optional<IFAResult> I;
      std::optional<query::FlowQueryEngine> E;
      for (size_t K = 0; K < Lines.size(); ++K) {
        uint64_t Op = ++NextOp;
        addRoundTrip(*Tr->Client[C], Op, T[2 * K], T[2 * K + 1], Ws[K]);
        SpanBuffer &Buf = *Tr->Replay[C];
        uint64_t Root = Buf.open("replay", Op, 0);
        B.handle(Buf, Op, Root, Lines[K]);
        if (K == 0)
          replayEdit(Buf, Op, Root, D, R, Table, *Store, I);
        else if (I)
          replayEditQuery(Buf, Op, Root, D, R, R.Queries[K - 1], *Store, *I, E);
        Buf.close(Root);
      }
    }
    double StepMs = 0;
    for (size_t K = 0; K < Resps.size(); ++K) {
      P.ReqMs.push_back(T[2 * K + 1] - T[2 * K]);
      StepMs += T[2 * K + 1] - T[2 * K];
      P.Errors += !statusOk(Resps[K]);
    }
    P.StepMs.push_back(StepMs);
    std::string Why;
    std::vector<uint64_t> Edges;
    Count(checkFlows(Resps[0], R, Why, &Edges), D.Name, Why);
    for (size_t Q = 0; Q < R.Queries.size(); ++Q)
      Count(Q + 1 < Resps.size() &&
                checkQuery(Resps[Q + 1], R, R.Queries[Q], Edges, Why),
            D.Name, Why);
    return Ok;
  };
  auto Finish = [&] {
    Conns.clear();
    if (Exhausted)
      Out.note("note: all " + std::to_string(EditPool) +
               " prepared edits were used before the time was up");
  };

  if (!Cfg.Trace) {
    Phase P;
    closedLoop(
        Cfg.Seconds, P, [&](unsigned C, Phase &Q) { return Step(C, Q, false); },
        &Cal);
    Finish();
    reportEndToEnd(Out, P, SetupS, true);
    Out.note(Cal.summary());
    Out.note("store_mb = " + std::to_string(directoryBytes(DirA) / 1e6));
    return true;
  }

  B.S = std::make_unique<driver::Server>(serveOptions(DirB));
  freshDir(DirB);
  freshDir(DirR);
  Store = std::make_unique<driver::ArtifactStore>(DirR);
  Table.setBacking(Store.get());
  for (size_t I = 0; I < NB; ++I) {
    B.S->handleLine(request(I, "flows", "", Bases[I].Source, Bases[I].Name));
    SpanBuffer Scratch(99);
    std::optional<IFAResult> Warm;
    replayEdit(Scratch, 0, 0, Bases[I], Refs[I], Table, *Store, Warm);
  }
  Tr = std::make_unique<Tracks>();
  driver::SessionCache::Stats C0 = A.server().cache().stats();
  driver::ArtifactStore::Counters S0 = A.server().artifactStore()->counters();
  Phase TP;
  closedLoop(Cfg.Seconds / 2, TP, [&](unsigned C, Phase &Q) { return Step(C, Q, true); });
  driver::SessionCache::Stats C1 = A.server().cache().stats();
  driver::ArtifactStore::Counters S1 = A.server().artifactStore()->counters();
  Phase UP;
  closedLoop(Cfg.Seconds / 2, UP, [&](unsigned C, Phase &Q) { return Step(C, Q, false); });
  Finish();

  LayerSummary L = summarize(Tr->all());
  uint64_t Hits = C1.Hits - C0.Hits, Misses = C1.Misses - C0.Misses;
  uint64_t SH = S1.Hits - S0.Hits, SM = S1.Misses - S0.Misses;
  double Reused = L.count("rd.incremental.reused"),
         Solved = L.count("rd.incremental.solved");
  reportServeLayers(Out, Cfg, *Tr, mean(UP.ReqMs), mean(TP.ReqMs),
                    {{"cache.hit_ratio", Hits + Misses ? double(Hits) / double(Hits + Misses) : 0},
                     {"cache.evictions", double(C1.Evictions - C0.Evictions)},
                     {"store.hit_ratio", SH + SM ? double(SH) / double(SH + SM) : 0},
                     {"rd.incremental.reuse_ratio",
                      Reused + Solved ? Reused / (Reused + Solved) : 0},
                     {"serve.errors", double(TP.Errors)},
                     {"store_mb", directoryBytes(DirA) / 1e6}});
  return true;
}

} // namespace

bool perfbench::runServe(const Config &Cfg, RunResult &Out) {
  return Cfg.Workload == "serve-edit" ? runServeEdit(Cfg, Out)
                                      : runServeWarm(Cfg, Out);
}
