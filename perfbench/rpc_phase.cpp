//===- perfbench/rpc_phase.cpp - RPC over sharded rings and sockets -------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiled CDR stubs over the `sharded` and `socket` transports: one
/// client thread, a two-worker server pool, one connection.  Each round
/// runs every mode on every transport, each on a fresh transport and pool
/// (so one unlucky thread placement is one sample, not the whole run):
///   pipelined  async client, 16 calls in flight (pipelined_rpc_per_s.*)
///   closed     synchronous calls back to back (rpc_per_s.*)
///   open       Poisson arrivals at a fixed absolute rate per transport;
///              each latency is timed from the scheduled arrival, and the
///              percentiles are exact, from the raw samples (open.*_us.*)
/// Closed- and open-loop figures depend on thread wake-up latency more
/// than on any code path, and are not steady enough between runs to gate
/// on (see README.md).  They are per-layer metrics, so only the traced run
/// has these two modes.
/// Every servant call checks a checksum the client embedded in the
/// payload, and the client checks that the servants saw every call.
///
//===----------------------------------------------------------------------===//

#include "b_cdr.h"
#include "bench.h"
#include "runtime/Sampler.h"
#include "runtime/transport/Transport.h"
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>

namespace pb {

namespace {

enum Kind { K_Ints, K_Rects, K_Dirents };
constexpr size_t DirentName = 116; // 256-byte dirents, as in marshal
constexpr unsigned Workers = 2;
constexpr unsigned Depth = 16;
const char *Transports[] = {"sharded", "socket"};
constexpr unsigned NumTransports = 2;

// Servant-side checks (servants run on pool worker threads).
std::atomic<uint64_t> ServantCalls{0}, ServantBad{0};

// The dispatch shim's timing and the injected-delay self-test.
std::atomic<bool> ShimTiming{false};
std::atomic<uint64_t> ShimNs{0}, ShimCalls{0}, InjectNs{0};

int shimDispatch(flick_server *S, flick_buf *Req, flick_buf *Rep) {
  uint64_t Inject = InjectNs.load(std::memory_order_relaxed);
  if (!ShimTiming.load(std::memory_order_relaxed) && !Inject)
    return C_Transfer_dispatch(S, Req, Rep);
  uint64_t T0 = nowNs();
  int Rc = C_Transfer_dispatch(S, Req, Rep);
  if (Inject)
    spinNs(Inject);
  ShimNs.fetch_add(nowNs() - T0, std::memory_order_relaxed);
  ShimCalls.fetch_add(1, std::memory_order_relaxed);
  return Rc;
}

/// Fletcher-style sum over 32-bit words (N a multiple of 4): order
/// sensitive, and cheap next to the RPC even for megabyte payloads.
uint32_t hash32(const void *P, size_t N) {
  const auto *B = static_cast<const uint8_t *>(P);
  uint64_t A = 0x9E3779B9u, S = 0;
  for (size_t I = 0; I + 4 <= N; I += 4) {
    uint32_t W;
    std::memcpy(&W, B + I, 4);
    A += W;
    S += A;
  }
  return static_cast<uint32_t>(S ^ (S >> 32) ^ A);
}

/// The checksum slot is the first 4-byte word of the payload; the hash
/// covers everything after it.
uint32_t direntsHash(const C_Dirent *D, uint32_t N) {
  uint64_t H = 1469598103934665603ull;
  for (uint32_t I = 0; I != N; ++I) {
    H = fnv1a(D[I].name, std::strlen(D[I].name), H);
    H = H * 31 + hash32(I ? &D[I].info.words[0] : &D[I].info.words[1],
                        I ? sizeof(D[I].info.words) : sizeof(D[I].info.words) - 4);
    H = fnv1a(D[I].info.tag, sizeof(D[I].info.tag), H);
  }
  return static_cast<uint32_t>(H);
}

} // namespace
} // namespace pb

void C_Transfer_send_ints_server(const C_IntSeq *D, CORBA_Environment *) {
  using namespace pb;
  bool Ok = D->_length >= 2 &&
            static_cast<uint32_t>(D->_buffer[0]) ==
                hash32(D->_buffer + 1, 4 * size_t(D->_length - 1));
  ServantBad.fetch_add(!Ok, std::memory_order_relaxed);
  ServantCalls.fetch_add(1, std::memory_order_relaxed);
}

void C_Transfer_send_rects_server(const C_RectSeq *D, CORBA_Environment *) {
  using namespace pb;
  bool Ok = D->_length >= 1 &&
            static_cast<uint32_t>(D->_buffer[0].min.x) ==
                hash32(&D->_buffer[0].min.y, 16 * size_t(D->_length) - 4);
  ServantBad.fetch_add(!Ok, std::memory_order_relaxed);
  ServantCalls.fetch_add(1, std::memory_order_relaxed);
}

void C_Transfer_send_dirents_server(const C_DirentSeq *D,
                                    CORBA_Environment *) {
  using namespace pb;
  bool Ok = D->_length >= 1 &&
            D->_buffer[0].info.words[0] == direntsHash(D->_buffer, D->_length);
  ServantBad.fetch_add(!Ok, std::memory_order_relaxed);
  ServantCalls.fetch_add(1, std::memory_order_relaxed);
}

namespace pb {

struct RpcPayload {
  Kind K = K_Ints;
  size_t Bytes = 0;
  std::vector<int32_t> Ints;
  std::vector<C_Rect> Rects;
  std::vector<std::string> Names;
  std::vector<C_Dirent> Dirs;
  C_IntSeq CI{};
  C_RectSeq CR{};
  C_DirentSeq CD{};
};

struct RpcInputs {
  std::vector<std::unique_ptr<RpcPayload>> Pool;
};

namespace {

void buildPayload(RpcPayload &P, Kind K, size_t Bytes, Rng &R) {
  P.K = K;
  P.Bytes = Bytes;
  if (K == K_Ints) {
    uint32_t N = static_cast<uint32_t>(std::max<size_t>(2, Bytes / 4));
    P.Ints.resize(N);
    for (int32_t &V : P.Ints)
      V = static_cast<int32_t>(R.next());
    P.Ints[0] = static_cast<int32_t>(hash32(P.Ints.data() + 1, 4 * size_t(N - 1)));
    P.CI = {N, N, P.Ints.data()};
  } else if (K == K_Rects) {
    uint32_t N = static_cast<uint32_t>(std::max<size_t>(1, Bytes / 16));
    P.Rects.resize(N);
    for (C_Rect &Rc : P.Rects)
      Rc = {{static_cast<int32_t>(R.next()), static_cast<int32_t>(R.next())},
            {static_cast<int32_t>(R.next()), static_cast<int32_t>(R.next())}};
    P.Rects[0].min.x =
        static_cast<int32_t>(hash32(&P.Rects[0].min.y, 16 * size_t(N) - 4));
    P.CR = {N, N, P.Rects.data()};
  } else {
    uint32_t N = static_cast<uint32_t>(std::max<size_t>(1, Bytes / 256));
    P.Names.resize(N);
    P.Dirs.resize(N);
    for (uint32_t I = 0; I != N; ++I) {
      P.Names[I].resize(DirentName);
      for (char &Ch : P.Names[I])
        Ch = static_cast<char>('a' + R.below(26));
      P.Dirs[I].name = P.Names[I].data();
      for (uint32_t &W : P.Dirs[I].info.words)
        W = static_cast<uint32_t>(R.next());
      for (uint8_t &B : P.Dirs[I].info.tag)
        B = static_cast<uint8_t>(R.next());
    }
    P.Dirs[0].info.words[0] = direntsHash(P.Dirs.data(), N);
    P.CD = {N, N, P.Dirs.data()};
  }
}

int encodeRequest(const RpcPayload &P, flick_buf *B, uint32_t Xid) {
  switch (P.K) {
  case K_Ints:
    return C_Transfer_send_ints_encode_request(B, Xid, &P.CI);
  case K_Rects:
    return C_Transfer_send_rects_encode_request(B, Xid, &P.CR);
  default:
    return C_Transfer_send_dirents_encode_request(B, Xid, &P.CD);
  }
}

int decodeReply(const RpcPayload &P, flick_buf *B) {
  CORBA_Environment Ev{};
  int Rc = P.K == K_Ints    ? C_Transfer_send_ints_decode_reply(B, &Ev)
           : P.K == K_Rects ? C_Transfer_send_rects_decode_reply(B, &Ev)
                            : C_Transfer_send_dirents_decode_reply(B, &Ev);
  return Rc == FLICK_OK && Ev._major == CORBA_NO_EXCEPTION ? FLICK_OK
                                                           : FLICK_ERR_DECODE;
}

/// One transport + worker pool + connected client.
struct Rig {
  std::unique_ptr<flick::Transport> Link;
  flick_server_pool Pool;
  flick_client Cli;
  bool Ok = false;
  explicit Rig(const char *Name) {
    WorkerPlacement OnWorkerCpus;
    Link = flick::makeTransport(Name);
    if (!Link ||
        flick_server_pool_start(&Pool, Link.get(), shimDispatch, Workers) !=
            FLICK_OK)
      return;
    flick_client_init(&Cli, &Link->connect());
    Ok = true;
  }
  ~Rig() {
    if (Ok) {
      flick_client_destroy(&Cli);
      flick_server_pool_stop(&Pool);
    }
  }
  Rig(const Rig &) = delete;
  Rig &operator=(const Rig &) = delete;
};

/// Per-transport accumulators across rounds.
struct TransportStats {
  std::vector<double> Closed, Piped, ClosedTr;
  /// Raw open-loop samples (us) from untraced rounds; traced rounds add
  /// span cost to every call, so their samples only feed busy_frac.
  std::vector<double> OpenLat, OpenLag, TracedLat, TracedLag;
  // Traced closed loop.
  uint64_t TrCalls = 0, TrCallNs = 0, EncNs = 0, InvokeNs = 0, DecNs = 0,
           DispatchNs = 0, DispatchCalls = 0, BusyNs = 0, QueueWaitNs = 0,
           Dequeues = 0, Steals = 0, Syscalls = 0;
  /// Client-side counters summed over the traced rounds.
  flick_metrics M;
  // Traced pipelined.
  uint64_t PipeCalls = 0, SubmitNs = 0, Stalls = 0;
  // Traced open loop.
  uint64_t OpenBusyNs = 0, OpenWallNs = 0;
};

struct Mode {
  RpcInputs &In;
  Results &R;
  Tracer &Tr;
  uint64_t WindowNs;
  size_t Next = 0;
  /// Every mode starts the seeded call order from its beginning, so the
  /// payload mix of a short window does not differ between modes.
  void restart() { Next = 0; }
  const RpcPayload &pick() { return *In.Pool[Next++ % In.Pool.size()]; }
};

/// Closed loop: returns calls per second, or -1 on transport failure.
double closedLoop(Mode &Md, const char *Name, TransportStats *Tr) {
  Md.restart();
  Rig Rg(Name);
  if (!Rg.Ok)
    return -1;
  uint64_t Served0 = ServantCalls.load();
  uint64_t Calls = 0, Bad = 0;
  uint64_t T0 = nowNs(), End = T0 + Md.WindowNs;
  Tracer &T = Md.Tr;
  while (nowNs() < End) {
    const RpcPayload &P = Md.pick();
    T.begin(L_Bench);
    flick_buf *B = flick_client_begin(&Rg.Cli);
    T.begin(L_Stubs);
    int Rc = encodeRequest(P, B, Rg.Cli.next_xid);
    uint64_t E = T.end();
    T.begin(L_Transport);
    if (!Rc)
      Rc = flick_client_invoke(&Rg.Cli);
    uint64_t I = T.end();
    T.begin(L_Stubs);
    if (!Rc)
      Rc = decodeReply(P, &Rg.Cli.rep);
    uint64_t D = T.end();
    uint64_t All = T.end();
    ++Calls;
    Bad += Rc != FLICK_OK;
    if (Tr) {
      Tr->EncNs += E;
      Tr->InvokeNs += I;
      Tr->DecNs += D;
      Tr->TrCallNs += All;
    }
  }
  double Secs = static_cast<double>(nowNs() - T0) * 1e-9;
  Md.R.ops(Calls);
  Md.R.check(Bad == 0, std::string("closed-loop call failed on ") + Name);
  Md.R.check(ServantCalls.load() - Served0 == Calls - Bad,
             std::string("servant missed calls on ") + Name);
  if (Tr)
    Tr->TrCalls += Calls;
  return Bad ? -1 : static_cast<double>(Calls) / Secs;
}

struct PipeState {
  const RpcPayload *Sent[Depth + 1] = {};
  uint64_t Completed = 0, Bad = 0;
  flick_async_client *A = nullptr;
};

void onPipeDone(flick_call *Call, void *Ctx) {
  auto *St = static_cast<PipeState *>(Ctx);
  if (Call->status != FLICK_OK || decodeReply(*St->Sent[0], &Call->rep))
    ++St->Bad;
  ++St->Completed;
  flick_async_release(St->A, Call);
}

/// Pipelined: async submits with Depth calls in flight.
double pipelined(Mode &Md, const char *Name, TransportStats *Tr) {
  Md.restart();
  Rig Rg(Name);
  if (!Rg.Ok)
    return -1;
  flick_async_opts Opts;
  Opts.window = Depth;
  flick_async_client A;
  if (flick_async_client_init(&A, Rg.Cli.chan, &Opts) != FLICK_OK)
    return -1;
  PipeState St;
  St.A = &A;
  uint64_t Served0 = ServantCalls.load();
  uint64_t Stalls0 = flick_gauges_global.window_stalls.load();
  uint64_t Submitted = 0, SubmitNs = 0;
  uint32_t Xid = 0;
  bool Failed = false;
  uint64_t T0 = nowNs(), End = T0 + Md.WindowNs;
  Tracer &T = Md.Tr;
  while (nowNs() < End) {
    const RpcPayload &P = Md.pick();
    St.Sent[0] = &P; // void replies decode the same for every payload
    T.begin(L_Stubs);
    int Rc = encodeRequest(P, flick_async_begin(&A), ++Xid);
    T.end();
    flick_call *Call = nullptr;
    T.begin(L_Async);
    if (!Rc)
      Rc = flick_async_submit(&A, &Call, onPipeDone, &St);
    SubmitNs += T.end();
    if (Rc) {
      Failed = true;
      break;
    }
    ++Submitted;
  }
  if (flick_async_drain(&A) != FLICK_OK)
    Failed = true;
  double Secs = static_cast<double>(nowNs() - T0) * 1e-9;
  flick_async_client_destroy(&A);
  Md.R.ops(Submitted);
  Md.R.check(!Failed && St.Bad == 0 && St.Completed == Submitted,
             std::string("pipelined call failed on ") + Name);
  Md.R.check(ServantCalls.load() - Served0 == Submitted,
             std::string("servant missed pipelined calls on ") + Name);
  if (Tr) {
    Tr->PipeCalls += Submitted;
    Tr->SubmitNs += SubmitNs;
    Tr->Stalls += flick_gauges_global.window_stalls.load() - Stalls0;
  }
  return Failed ? -1 : static_cast<double>(St.Completed) / Secs;
}

struct Arrival {
  uint64_t SchedNs = 0, DoneNs = 0;
  bool Ok = false;
  const RpcPayload *P = nullptr;
};

void onOpenDone(flick_call *Call, void *Ctx) {
  auto *Ar = static_cast<Arrival *>(Ctx);
  Ar->DoneNs = nowNs();
  Ar->Ok = Call->status == FLICK_OK && decodeReply(*Ar->P, &Call->rep) == FLICK_OK;
}

/// Open loop at \p Rate arrivals per second.  Between arrivals the client
/// waits on its oldest call, so replies are taken as they land; a wait
/// that runs past the next arrival shows as generator lag, and the
/// latency of the late call still counts from its scheduled time.
void openLoop(Mode &Md, const char *Name, double Rate, TransportStats &S,
              uint64_t Seed, bool Traced) {
  Md.restart();
  Rig Rg(Name);
  if (!Rg.Ok) {
    Md.R.check(false, std::string("cannot start ") + Name);
    return;
  }
  flick_async_opts Opts;
  Opts.window = Depth;
  flick_async_client A;
  if (flick_async_client_init(&A, Rg.Cli.chan, &Opts) != FLICK_OK) {
    Md.R.check(false, "async client init");
    return;
  }
  Rng Gen(Seed);
  std::vector<double> &Lat = Traced ? S.TracedLat : S.OpenLat;
  std::vector<double> &Lag = Traced ? S.TracedLag : S.OpenLag;
  std::deque<std::pair<flick_call *, Arrival>> Fifo;
  uint64_t Served0 = ServantCalls.load(), Submitted = 0, Bad = 0;
  uint64_t Busy0 = ShimNs.load();
  uint32_t Xid = 0;
  uint64_t T0 = nowNs();
  double Next = 0; // scheduled arrival, ns after T0
  auto Retire = [&] {
    while (!Fifo.empty() && Fifo.front().first->done) {
      Arrival &Ar = Fifo.front().second;
      Bad += !Ar.Ok;
      Lat.push_back(static_cast<double>(Ar.DoneNs - Ar.SchedNs) * 1e-3);
      flick_async_release(&A, Fifo.front().first);
      Fifo.pop_front();
    }
  };
  while (Next < static_cast<double>(Md.WindowNs)) {
    uint64_t Due = T0 + static_cast<uint64_t>(Next);
    while (nowNs() < Due) {
      if (Fifo.empty())
        continue;
      if (flick_async_wait(&A, Fifo.front().first) != FLICK_OK) {
        ++Bad;
        break;
      }
      Retire();
    }
    const RpcPayload &P = Md.pick();
    uint64_t Now = nowNs();
    Lag.push_back(static_cast<double>(Now - Due) * 1e-3);
    Fifo.emplace_back(nullptr, Arrival{Due, 0, false, &P});
    Arrival *Ar = &Fifo.back().second;
    flick_call *Call = nullptr;
    int Rc = encodeRequest(P, flick_async_begin(&A), ++Xid);
    if (!Rc)
      Rc = flick_async_submit(&A, &Call, onOpenDone, Ar);
    if (Rc) {
      Fifo.pop_back();
      ++Bad;
      break;
    }
    Fifo.back().first = Call;
    ++Submitted;
    Retire();
    Next += Gen.exponential(Rate) * 1e9;
  }
  if (flick_async_drain(&A) != FLICK_OK)
    ++Bad;
  Retire();
  uint64_t Wall = nowNs() - T0;
  flick_async_client_destroy(&A);
  Md.R.ops(Submitted);
  Md.R.check(Bad == 0 && Fifo.empty(), std::string("open-loop call failed on ") + Name);
  Md.R.check(ServantCalls.load() - Served0 == Submitted,
             std::string("servant missed open-loop calls on ") + Name);
  if (Traced) {
    S.OpenBusyNs += ShimNs.load() - Busy0;
    S.OpenWallNs += Wall;
  }
}

} // namespace

RpcInputs *rpcSetup(const RunConfig &C) {
  auto *In = new RpcInputs;
  Rng R(C.Seed ^ 0x52504331ull);
  double Lo = static_cast<double>(C.Prof.MinBytes);
  double Ratio = static_cast<double>(C.Prof.MaxBytes) / Lo;
  // Two payloads per (kind, size stratum), at fixed points of the stratum:
  // the seed draws content and call order, not the amount of work.  24
  // payloads of up to 1 MB keep the pool small while covering every size.
  for (int Rep = 0; Rep != 2; ++Rep)
    for (int S = 0; S != 4; ++S)
      for (int K = 0; K != 3; ++K) {
        auto P = std::make_unique<RpcPayload>();
        double Pos = (S + (Rep + 1) / 3.0) / 4.0;
        buildPayload(*P, static_cast<Kind>(K),
                     static_cast<size_t>(Lo * std::pow(Ratio, Pos)), R);
        In->Pool.push_back(std::move(P));
      }
  // Seeded call order over the pool.
  for (size_t I = In->Pool.size(); I > 1; --I)
    std::swap(In->Pool[I - 1], In->Pool[R.below(I)]);
  // Bringing each transport up (and down) is part of set-up.
  for (const char *T : Transports) {
    Rig Rg(T);
    if (!Rg.Ok) {
      delete In;
      return nullptr;
    }
  }
  return In;
}

void rpcFree(RpcInputs *In) { delete In; }

namespace {

class RpcPhase : public Phase {
public:
  RpcPhase(const RunConfig &C, RpcInputs &In, Results &R)
      : C(C), R(R), Md{In, R, Tr, 0, 0} {
    if (C.Inject == "dispatch") {
      // A share of the end-to-end time of one call with nothing else in
      // flight, added inside the dispatch shim.  Not a share of the
      // pipelined time per call: with calls overlapping, a slower
      // dispatch first eats idle worker time, and busier workers park
      // less, so small delays can even raise pipelined RPC/s.
      Md.WindowNs = 200000000;
      for (unsigned T = 0; T != NumTransports; ++T)
        Inject[T] = static_cast<uint64_t>(C.InjectFrac * 1e9 /
                                          closedLoop(Md, Transports[T], nullptr));
    }
  }

  /// Each transport runs pipelined and, in the traced run, closed and
  /// open loop, each on a fresh rig, for an equal share of the round.
  void round(bool Traced, double Seconds) override {
    unsigned Modes = C.Trace ? 3 : 1;
    Md.WindowNs = static_cast<uint64_t>(Seconds * 1e9 / (NumTransports * Modes));
    double Rates[NumTransports] = {C.Prof.OpenRateSharded, C.Prof.OpenRateSocket};
    for (unsigned T = 0; T != NumTransports; ++T) {
      TransportStats &St = S[T];
      InjectNs = Inject[T];
      Tr.On = Traced;
      ShimTiming = Traced;
      if (Traced)
        flick_gauges_enable(); // window_stalls
      double Rp = pipelined(Md, Transports[T], Traced ? &St : nullptr);
      if (Traced)
        flick_gauges_disable();
      if (!Traced)
        St.Piped.push_back(Rp);
      if (C.Trace) {
        if (Traced)
          closedTraced(St, T);
        else
          St.Closed.push_back(closedLoop(Md, Transports[T], nullptr));
        openLoop(Md, Transports[T], Rates[T], St, C.Seed * 1000 + Rounds * 10 + T,
                 Traced);
      }
      Tr.On = false;
      ShimTiming = false;
    }
    InjectNs = 0;
    ++Rounds;
  }

  void finish() override;

private:
  /// The closed loop with spans, the dispatch shim's timing, the pool's
  /// gauges and the client's counters on.
  void closedTraced(TransportStats &St, unsigned T) {
    flick_metrics M; // flick_metrics_enable zeroes it: one round only
    flick_metrics_enable(&M);
    flick_gauges_enable();
    uint64_t Shim0 = ShimNs.load(), ShimC0 = ShimCalls.load();
    St.ClosedTr.push_back(closedLoop(Md, Transports[T], &St));
    // closedLoop has stopped the pool, so every worker's bracket is in.
    St.DispatchNs += ShimNs.load() - Shim0;
    St.DispatchCalls += ShimCalls.load() - ShimC0;
    St.BusyNs += flick_gauges_global.worker_busy_ns.load();
    St.QueueWaitNs += flick_gauges_global.queue_wait_ns.load();
    St.Dequeues += flick_gauges_global.queue_dequeues.load();
    St.Steals += flick_gauges_global.steals.load();
    St.Syscalls += flick_gauges_global.sock_syscalls.load();
    flick_gauges_disable();
    flick_metrics_disable();
    flick_metrics_merge(&St.M, &M);
  }

  const RunConfig &C;
  Results &R;
  Tracer Tr;
  Mode Md;
  TransportStats S[NumTransports];
  uint64_t Inject[NumTransports] = {};
  unsigned Rounds = 0;
};

void RpcPhase::finish() {
  uint64_t BadPayloads = ServantBad.exchange(0);
  R.Failed += BadPayloads;
  if (BadPayloads)
    R.Failures.push_back(std::to_string(BadPayloads) +
                         " servant payload checksum mismatches");

  for (unsigned T = 0; T != NumTransports; ++T) {
    TransportStats &St = S[T];
    std::string Sfx = std::string(".") + Transports[T];
    R.e2e("pipelined_rpc_per_s" + Sfx, median(St.Piped), "1/s");
    R.Notes["rounds.pipelined_rpc_per_s" + Sfx] = joinNums(St.Piped);
    if (!C.Trace)
      continue;
    R.layer("rpc_per_s" + Sfx, median(St.Closed), "1/s");
    R.Notes["rounds.rpc_per_s" + Sfx] = joinNums(St.Closed);
    double Calls = static_cast<double>(std::max<uint64_t>(1, St.TrCalls));
    double EncUs = static_cast<double>(St.EncNs) * 1e-3 / Calls;
    double DecUs = static_cast<double>(St.DecNs) * 1e-3 / Calls;
    double InvUs = static_cast<double>(St.InvokeNs) * 1e-3 / Calls;
    double DispUs = St.DispatchCalls ? static_cast<double>(St.DispatchNs) * 1e-3 /
                                           static_cast<double>(St.DispatchCalls)
                                     : 0;
    double CallUs = static_cast<double>(St.TrCallNs) * 1e-3 / Calls;
    R.layer("stubs.encode_request_us" + Sfx, EncUs, "us");
    R.layer("stubs.decode_reply_us" + Sfx, DecUs, "us");
    R.layer("transport.roundtrip_us" + Sfx, InvUs - DispUs, "us");
    R.layer("server_pool.dispatch_us" + Sfx, DispUs, "us");
    // The client's spans (stubs, invoke) against the whole call: what
    // the benchmark's own loop adds between them.
    R.layer("closure.rpc.gap_frac" + Sfx, std::fabs((EncUs + InvUs + DecUs) / CallUs - 1),
            "ratio");
    // The shim's dispatch time against the pool's own busy gauge, which
    // brackets receive-to-reply around the same calls: an independent
    // check of the server-side split.  The gap is the reply send.
    R.layer("closure.dispatch.gap_frac" + Sfx,
            St.BusyNs ? std::fabs(static_cast<double>(St.DispatchNs) /
                                      static_cast<double>(St.BusyNs) -
                                  1)
                      : 0,
            "ratio");
    R.layer("server_pool.busy_frac" + Sfx,
            St.OpenWallNs ? static_cast<double>(St.OpenBusyNs) /
                                (Workers * static_cast<double>(St.OpenWallNs))
                          : 0,
            "ratio");
    // Only ShardedLink queues and steals, and only SocketLink makes
    // syscalls.
    if (std::string(Transports[T]) == "sharded") {
      R.layer("transport.queue_wait_us" + Sfx,
              St.Dequeues ? static_cast<double>(St.QueueWaitNs) * 1e-3 /
                                static_cast<double>(St.Dequeues)
                          : 0,
              "us");
      R.layer("transport.steals_per_rpc" + Sfx, static_cast<double>(St.Steals) / Calls,
              "count");
    } else {
      R.layer("transport.syscalls_per_rpc" + Sfx,
              static_cast<double>(St.Syscalls) / Calls, "count");
    }
    const flick_metrics &M = St.M;
    R.layer("transport.copies_per_rpc" + Sfx, static_cast<double>(M.copy_ops) / Calls, "count");
    R.layer("transport.bytes_copied_per_rpc" + Sfx,
            static_cast<double>(M.bytes_copied) / Calls, "bytes");
    double Pool = static_cast<double>(M.pool_hits + M.pool_misses);
    R.layer("runtime.buf.pool_hit_frac" + Sfx,
            Pool > 0 ? static_cast<double>(M.pool_hits) / Pool : 0, "ratio");
    double Pc = static_cast<double>(std::max<uint64_t>(1, St.PipeCalls));
    R.layer("async.submit_us" + Sfx, static_cast<double>(St.SubmitNs) * 1e-3 / Pc, "us");
    R.layer("async.window_stalls_per_call" + Sfx, static_cast<double>(St.Stalls) / Pc, "count");
    // Open loop: exact percentiles of the raw samples of the untraced
    // rounds, with the sample count and how late the generator ran.
    double Stalls = 0;
    for (double L : St.OpenLat)
      Stalls += L > 1000;
    R.layer("open.p50_us" + Sfx, percentile(St.OpenLat, 0.50), "us");
    R.layer("open.p99_us" + Sfx, percentile(St.OpenLat, 0.99), "us");
    R.layer("open.over_1ms_frac" + Sfx,
            St.OpenLat.empty() ? 0 : Stalls / static_cast<double>(St.OpenLat.size()),
            "ratio");
    R.layer("loadgen.lag_p99_us" + Sfx, percentile(St.OpenLag, 0.99), "us");
    R.layer("loadgen.samples" + Sfx, static_cast<double>(St.OpenLat.size()), "count");
    R.layer("trace.slowdown.rpc" + Sfx, median(St.Closed) / median(St.ClosedTr), "ratio");
  }
}

} // namespace

std::unique_ptr<Phase> rpcPhase(const RunConfig &C, RpcInputs &In, Results &R) {
  return std::make_unique<RpcPhase>(C, In, R);
}

} // namespace pb
