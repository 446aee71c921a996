//===- perfbench/bench.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every phase of the repository benchmark shares: the seeded
/// generator, the clock, the result sink (metrics, attempted/failed
/// operation counts), the workload profile, and the span tracer that the
/// traced run wraps around each call into a Flick layer.
///
/// Tracing is the benchmark's own: spans are opened and closed here,
/// around public entry points (parseCorbaIdl, Backend::generate, the
/// generated stubs, flick_client_invoke, ...), never inside src/.  A span
/// folds into per-layer accumulators the moment it closes, so a run of
/// millions of calls needs no span storage; a layer's self time is its
/// spans' durations minus the time covered by their child spans.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_PERFBENCH_BENCH_H
#define FLICK_PERFBENCH_BENCH_H

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the same seed gives the same stream on every platform
/// (unlike the standard distributions, whose algorithms are unspecified).
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Exponential with the given rate (Poisson inter-arrival gaps).
  double exponential(double Rate) { return -std::log1p(-unit()) / Rate; }
};

/// The input profile a workload applies to every layer.
struct Profile {
  /// Message payloads come from four size classes spanning [MinBytes,
  /// MaxBytes] at fixed sizes; the seed draws their content, so every seed
  /// does the same amount of work.
  size_t MinBytes = 0, MaxBytes = 0;
  /// The marshal phase's cells span [MarshalMinBytes, MarshalMaxBytes] the
  /// same way.  It has no transport, so the two profiles split 64 B-1 MB
  /// between them with no gap.
  size_t MarshalMinBytes = 0, MarshalMaxBytes = 0;
  /// Generated corpus shape (see corpus.cpp).
  bool LargeCorpus = false;
  /// Fixed open-loop arrival rates (RPC/s), independent of any measured
  /// capacity; also stated in BENCHMARK.json.
  double OpenRateSharded = 0, OpenRateSocket = 0;
};

/// Layers as the module names of the repository.
enum Layer : int {
  L_Bench, ///< the benchmark's own loop and glue (root spans)
  L_Frontends,
  L_Aoi,
  L_Presgen,
  L_Backends,
  L_Stubs,
  L_Interp,
  L_Spec,
  L_Transport,
  L_Async,
  L_NumLayers
};

inline const char *layerName(int L) {
  static const char *Names[L_NumLayers] = {
      "bench",  "frontends",      "aoi",       "presgen",
      "backends", "stubs",        "runtime.interp", "runtime.spec",
      "transport", "async"};
  return Names[L];
}

struct LayerAcc {
  uint64_t TotalNs = 0, SelfNs = 0;
};

/// Streaming span tracer for one thread.  begin/end pairs nest; when
/// disabled both are a single branch.
class Tracer {
public:
  bool On = false;
  std::array<LayerAcc, L_NumLayers> Acc{};

  void begin(int L) {
    if (!On)
      return;
    Frame &F = Stack[Depth++];
    F.Layer = L;
    F.ChildNs = 0;
    F.Start = nowNs();
  }
  /// Closes the innermost span; returns its duration (0 when off).
  uint64_t end() {
    if (!On)
      return 0;
    uint64_t T = nowNs();
    Frame &F = Stack[--Depth];
    uint64_t D = T - F.Start;
    LayerAcc &A = Acc[F.Layer];
    A.TotalNs += D;
    A.SelfNs += D - std::min(D, F.ChildNs);
    if (Depth)
      Stack[Depth - 1].ChildNs += D;
    return D;
  }

private:
  struct Frame {
    int Layer;
    uint64_t Start, ChildNs;
  };
  Frame Stack[16];
  int Depth = 0;
};

/// RAII span.
struct Span {
  Tracer &T;
  Span(Tracer &T, int L) : T(T) { T.begin(L); }
  ~Span() { T.end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
};

struct Metric {
  double Value;
  std::string Unit;
};

/// Where phases deposit results.
struct Results {
  std::map<std::string, Metric> EndToEnd, PerLayer;
  /// Free-form facts for the report (hashes, sample counts).
  std::map<std::string, std::string> Notes;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< first few failure descriptions

  void e2e(const std::string &N, double V, const char *U) {
    EndToEnd[N] = {V, U};
  }
  void layer(const std::string &N, double V, const char *U) {
    PerLayer[N] = {V, U};
  }
  /// Counts one checked operation; a false check is one failed operation.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Failures.size() < 8)
        Failures.push_back(What);
    }
  }
  void ops(uint64_t N) { Attempted += N; }
};

/// Everything a phase needs to know about the run.
struct RunConfig {
  Profile Prof;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Attribution self-test: which layer's call the benchmark's own shim
  /// slows down ("" = none), see README.md.
  std::string Inject;
  /// The injected delay as a share of the call it slows.
  double InjectFrac = 0.15;
  /// Per-phase share of Seconds.
  double CompileShare = 0.2, MarshalShare = 0.3, RpcShare = 0.5;
};

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

/// Space-separated numbers, for the per-round lists in the report.
inline std::string joinNums(const std::vector<double> &V) {
  std::string O;
  char B[32];
  for (double X : V) {
    std::snprintf(B, sizeof(B), "%.6g", X);
    O += (O.empty() ? "" : " ") + std::string(B);
  }
  return O;
}

/// Exact order-statistic percentile (nearest rank) of raw samples.
inline double percentile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  size_t K = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  K = std::min(V.size() - 1, K ? K - 1 : 0);
  std::nth_element(V.begin(), V.begin() + static_cast<long>(K), V.end());
  return V[K];
}

/// Busy-waits \p Ns nanoseconds (the injected-delay self-test).
inline void spinNs(uint64_t Ns) {
  uint64_t End = nowNs() + Ns;
  while (nowNs() < End) {
  }
}

/// FNV-1a, for output hashes and payload checksums.
inline uint64_t fnv1a(const void *P, size_t N, uint64_t H = 1469598103934665603ull) {
  const auto *B = static_cast<const uint8_t *>(P);
  for (size_t I = 0; I != N; ++I) {
    H ^= B[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// CPU placement.  The client (and the compile and marshal phases) run on
/// one allowed CPU, server workers on the others.  Left to the
/// scheduler, a ping-ponging client and worker are sometimes co-located
/// on one CPU and sometimes not, for the life of the process: closed-loop
/// RPC/s then differs 2x between otherwise identical runs.  No-op with
/// fewer than three allowed CPUs.
void pinClient();
/// While alive, threads the calling thread creates land on the worker CPUs.
class WorkerPlacement {
public:
  WorkerPlacement();
  ~WorkerPlacement();
  WorkerPlacement(const WorkerPlacement &) = delete;
  WorkerPlacement &operator=(const WorkerPlacement &) = delete;
};

/// A measured phase.  main runs the phases in short rounds, interleaved,
/// so that each samples the whole run: on a shared host the speed of the
/// same code drifts by tens of percent over seconds.
class Phase {
public:
  virtual ~Phase() = default;
  /// Measures for about \p Seconds; \p Traced turns spans and counters on.
  virtual void round(bool Traced, double Seconds) = 0;
  /// Deposits the phase's metrics in the Results it was made with.
  virtual void finish() = 0;
};

// Phases (one file each).  Setup builds inputs and is timed separately
// from the measured rounds, which only read them.
struct CompileInputs;
struct MarshalInputs;
struct RpcInputs;

CompileInputs *compileSetup(const RunConfig &C, const std::string &IdlDir);
std::unique_ptr<Phase> compilePhase(const RunConfig &C, CompileInputs &In,
                                    Results &R);
void compileFree(CompileInputs *In);

MarshalInputs *marshalSetup(const RunConfig &C);
std::unique_ptr<Phase> marshalPhase(const RunConfig &C, MarshalInputs &In,
                                    Results &R);
void marshalFree(MarshalInputs *In);

RpcInputs *rpcSetup(const RunConfig &C);
std::unique_ptr<Phase> rpcPhase(const RunConfig &C, RpcInputs &In, Results &R);
void rpcFree(RpcInputs *In);

} // namespace pb

#endif // FLICK_PERFBENCH_BENCH_H
