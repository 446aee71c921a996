//===- perfbench/main.cpp - The repository benchmark driver ---------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// flickbench --workload <small|large> --seed N --seconds S --trace 0|1
///            [--idl-dir DIR] [--inject dispatch|encode [--inject-frac F]]
///
/// Runs one workload through every layer of Flick in one process: the
/// compiler over a corpus, the marshal tiers without a transport, and RPC
/// over two transports.  Set-up (corpus, payloads, type-program
/// specialization, transport bring-up) is repeated and timed on its own.
/// Prints one JSON report line: metrics with units, operation counts,
/// failures, host and build.  run.py turns it into the benchmark result.
///
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "support/BuildInfo.h"
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <thread>

using namespace pb;

namespace {

cpu_set_t ClientCpus, WorkerCpus;
bool Pinned = false;

} // namespace

void pb::pinClient() {
  cpu_set_t All;
  CPU_ZERO(&All);
  if (sched_getaffinity(0, sizeof(All), &All) != 0 || CPU_COUNT(&All) < 3)
    return;
  CPU_ZERO(&ClientCpus);
  CPU_ZERO(&WorkerCpus);
  // The client takes the last allowed CPU: the first one usually also
  // takes the machine's housekeeping work.
  int Last = CPU_SETSIZE - 1;
  while (!CPU_ISSET(Last, &All))
    --Last;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &All))
      CPU_SET(C, C == Last ? &ClientCpus : &WorkerCpus);
  Pinned = sched_setaffinity(0, sizeof(ClientCpus), &ClientCpus) == 0;
}

pb::WorkerPlacement::WorkerPlacement() {
  if (Pinned)
    sched_setaffinity(0, sizeof(WorkerCpus), &WorkerCpus);
}

pb::WorkerPlacement::~WorkerPlacement() {
  if (Pinned)
    sched_setaffinity(0, sizeof(ClientCpus), &ClientCpus);
}

namespace {

/// Rounds per untraced run: enough that every phase samples the whole run.
constexpr unsigned RoundsPerRun = 8;
/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupReps = 25;

/// Host-speed reference: a fixed mix of pointer chasing, integer
/// arithmetic and copying that involves no Flick code, timed before every
/// phase of every round.  On a shared host the speed of all code drifts
/// together by tens of percent over minutes; end-to-end figures are
/// reported at the speed where this kernel takes RefNominalMs (see
/// README.md).
constexpr double RefNominalMs = 5.0;

double refKernelMs() {
  static std::vector<uint32_t> Chain, Src, Dst, Table;
  if (Chain.empty()) {
    Chain.resize(1 << 21); // 8 MB: beyond the private caches
    for (size_t I = 0; I != Chain.size(); ++I)
      Chain[I] = static_cast<uint32_t>((I * 2654435761u + 12345) % Chain.size());
    Src.assign(1 << 14, 7);
    Dst.assign(1 << 14, 0);
    Table.assign(1 << 14, 3); // 64 KB: within the private caches
  }
  // Memory-bound part: as the previous phase left the caches.
  uint64_t T0 = nowNs();
  uint32_t P = 0;
  uint64_t H = 1;
  for (int I = 0; I != 20000; ++I) {
    P = Chain[P];
    H = H * 6364136223846793005ull + P;
  }
  for (int I = 0; I != 64; ++I) {
    std::memcpy(Dst.data(), Src.data(), Src.size() * 4);
    Src[static_cast<size_t>(I)] += static_cast<uint32_t>(H);
  }
  uint64_t MemNs = nowNs() - T0;
  // Compute-bound part: the fastest of three passes, so one preemption
  // does not count as a slower host.
  uint64_t CpuNs = UINT64_MAX;
  for (int Pass = 0; Pass != 3; ++Pass) {
    uint64_t T1 = nowNs();
    for (uint32_t I = 0; I != 400000; ++I) {
      H = H * 6364136223846793005ull + Table[(H >> 40) & 0x3FFF];
      Table[I & 0x3FFF] += static_cast<uint32_t>(H >> 20);
    }
    CpuNs = std::min(CpuNs, nowNs() - T1);
  }
  volatile uint64_t Sink = H + Dst[5];
  (void)Sink;
  return static_cast<double>(MemNs + CpuNs) * 1e-6;
}

/// The two workloads apply one input profile to every layer.  Open-loop
/// rates are absolute and fixed (BENCHMARK.json states them too).
bool profileFor(const std::string &W, Profile &P) {
  if (W == "small") {
    P.MinBytes = 64;
    P.MaxBytes = 1024;
    P.MarshalMinBytes = 64;
    P.MarshalMaxBytes = 8 * 1024;
    P.LargeCorpus = false;
    P.OpenRateSharded = 50000;
    P.OpenRateSocket = 20000;
    return true;
  }
  if (W == "large") {
    P.MinBytes = 64 * 1024;
    P.MaxBytes = 1024 * 1024;
    P.MarshalMinBytes = 8 * 1024;
    P.MarshalMaxBytes = 1024 * 1024;
    P.LargeCorpus = true;
    P.OpenRateSharded = 500;
    P.OpenRateSocket = 500;
    return true;
  }
  return false;
}

std::string jsonStr(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      O += '\\';
      O += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      O += ' ';
    } else {
      O += C;
    }
  }
  return O + "\"";
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char B[40];
  std::snprintf(B, sizeof(B), "%.17g", V);
  return B;
}

std::string readLineWith(const char *Path, const char *Key) {
  std::ifstream In(Path);
  std::string L;
  while (std::getline(In, L))
    if (!Key || L.rfind(Key, 0) == 0) {
      size_t C = Key ? L.find(':') : std::string::npos;
      std::string V = C == std::string::npos ? L : L.substr(C + 1);
      size_t B = V.find_first_not_of(" \t");
      return B == std::string::npos ? "" : V.substr(B);
    }
  return "unknown";
}

/// Peak resident set of this process image.  VmHWM, not getrusage: the
/// latter also counts the parent's resident set at fork time.
double peakRssMb() {
  std::string Kb = readLineWith("/proc/self/status", "VmHWM");
  return std::strtod(Kb.c_str(), nullptr) / 1024.0;
}

std::string hostJson() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + jsonStr(readLineWith("/proc/cpuinfo", "model name")) +
         ", \"governor\": " +
         jsonStr(readLineWith("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
                              nullptr)) +
         "}";
}

std::string metricsJson(const std::map<std::string, Metric> &M) {
  std::string O = "{";
  for (const auto &[K, V] : M) {
    if (O.size() > 1)
      O += ", ";
    O += jsonStr(K) + ": {\"value\": " + jsonNum(V.Value) +
         ", \"unit\": " + jsonStr(V.Unit) + "}";
  }
  return O + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: flickbench --workload <small|large> --seed N --seconds S "
               "--trace 0|1 [--idl-dir DIR] [--inject dispatch|encode "
               "[--inject-frac F]]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  std::string Workload, IdlDir = "idl";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V.c_str(), &End);
    } else if (A == "--trace") {
      C.Trace = V == "1";
    } else if (A == "--idl-dir") {
      IdlDir = V;
    } else if (A == "--inject") {
      if (V != "dispatch" && V != "encode")
        return usage();
      C.Inject = V;
    } else if (A == "--inject-frac") {
      C.InjectFrac = std::strtod(V.c_str(), &End);
      if (!(C.InjectFrac > 0 && C.InjectFrac < 10))
        return usage();
    } else {
      return usage();
    }
    if (End && *End)
      return usage();
  }
  if (!profileFor(Workload, C.Prof) || !(C.Seconds > 0))
    return usage();

  pinClient();

  // Set-up, repeated: the median is setup_s; the last inputs are kept.
  Results R;
  std::vector<double> SetupS;
  CompileInputs *CI = nullptr;
  MarshalInputs *MI = nullptr;
  RpcInputs *RI = nullptr;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    if (CI) {
      compileFree(CI);
      marshalFree(MI);
      rpcFree(RI);
    }
    uint64_t T0 = nowNs();
    CI = compileSetup(C, IdlDir);
    MI = marshalSetup(C);
    RI = rpcSetup(C);
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    if (!CI || !MI || !RI) {
      std::fprintf(stderr, "flickbench: set-up failed\n");
      return 1;
    }
  }
  R.e2e("setup_s", median(SetupS), "s");

  // The phases run in rounds, interleaved, each round's time split by the
  // phase shares; the traced run alternates untraced and traced rounds.
  std::unique_ptr<Phase> Phases[] = {compilePhase(C, *CI, R),
                                     marshalPhase(C, *MI, R), rpcPhase(C, *RI, R)};
  double Shares[] = {C.CompileShare, C.MarshalShare, C.RpcShare};
  unsigned Rounds = C.Trace ? 2 * RoundsPerRun : RoundsPerRun;
  std::vector<double> HostRefMs;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    bool Traced = C.Trace && Round % 2 == 1;
    for (int P = 0; P != 3; ++P) {
      HostRefMs.push_back(refKernelMs());
      Phases[P]->round(Traced, C.Seconds * Shares[P] / Rounds);
    }
  }
  for (auto &P : Phases) {
    P->finish();
    P.reset();
  }
  compileFree(CI);
  marshalFree(MI);
  rpcFree(RI);

  // Host-speed normalization: every end-to-end time and rate is scaled to
  // the speed at which the reference kernel takes RefNominalMs.  Raw
  // values stay in the report.
  double RefMs = median(HostRefMs);
  for (auto &[Name, M] : R.EndToEnd) {
    bool Time = M.Unit == "s", Rate = M.Unit == "MB/s" || M.Unit == "1/s";
    if (!Time && !Rate)
      continue; // sizes and counts
    R.Notes["raw." + Name] = jsonNum(M.Value);
    M.Value *= Time ? RefNominalMs / RefMs : RefMs / RefNominalMs;
  }
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  R.Notes["host.ref_ms"] = std::to_string(RefMs);
  R.Notes["rounds.ref_ms"] = joinNums(HostRefMs);

  std::string Notes = "{", Fails = "[";
  for (const auto &[K, V] : R.Notes)
    Notes += (Notes.size() > 1 ? ", " : "") + jsonStr(K) + ": " + jsonStr(V);
  for (const std::string &F : R.Failures)
    Fails += (Fails.size() > 1 ? ", " : "") + jsonStr(F);
  Notes += "}";
  Fails += "]";
  std::printf("{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"inject\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"end_to_end\": %s, \"per_layer\": %s, \"notes\": %s, "
              "\"failures\": %s, \"host\": %s, \"build\": %s}\n",
              jsonStr(Workload).c_str(), static_cast<unsigned long long>(C.Seed),
              jsonNum(C.Seconds).c_str(), C.Trace ? 1 : 0, jsonStr(C.Inject).c_str(),
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), metricsJson(R.EndToEnd).c_str(),
              metricsJson(R.PerLayer).c_str(), Notes.c_str(), Fails.c_str(),
              hostJson().c_str(), flick_build_info_json().c_str());
  return 0;
}
