//===- bench/BenchUtil.h - shared benchmark utilities -----------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing loops, table printing, and the evaluation workload builders
/// (paper §4): integer arrays, rectangle-structure arrays, and directory
/// entries padded so each encodes to exactly 256 bytes of XDR data.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_BENCH_BENCHUTIL_H
#define FLICK_BENCH_BENCHUTIL_H

#include "runtime/Sampler.h"
#include "runtime/flick_runtime.h"
#include "support/BuildInfo.h"
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

namespace flickbench {

/// Result of one timing measurement: per-call seconds for the best round,
/// plus run-variance data so JSON exports can report measurement quality.
struct TimeStats {
  double Best = 0;   ///< best round, seconds per call (rate basis)
  double Mean = 0;   ///< mean over all rounds, seconds per call
  double StdDev = 0; ///< standard deviation of the per-round means
  size_t Iters = 0;  ///< calls per round
  int Rounds = 0;    ///< rounds measured
  // Copy accounting deltas over the measured region, per call; zero when
  // metrics collection is off (the default interactive configuration).
  double BytesCopiedPerCall = 0; ///< message-path bytes copied per call
  double CopyOpsPerCall = 0;     ///< bulk copy operations per call
};

/// Runs \p Fn repeatedly until ~MinMillis of wall time accumulates per
/// round, measures \p Rounds rounds, and returns the best/mean/stddev
/// seconds-per-call along with the iteration count.
inline TimeStats timeIt(const std::function<void()> &Fn,
                        double MinMillis = 30.0, int Rounds = 3) {
  using Clock = std::chrono::steady_clock;
  // Warm up and estimate.
  Fn();
  auto T0 = Clock::now();
  Fn();
  double Once = std::chrono::duration<double>(Clock::now() - T0).count();
  size_t Iters = Once > 0 ? static_cast<size_t>(MinMillis / 1e3 / Once) : 64;
  if (Iters < 3)
    Iters = 3;
  if (Iters > 2000000)
    Iters = 2000000;
  TimeStats T;
  T.Iters = Iters;
  T.Rounds = Rounds;
  T.Best = 1e100;
  uint64_t Copied0 = 0, Ops0 = 0;
  if (flick_metrics_active) {
    Copied0 = flick_metrics_active->bytes_copied;
    Ops0 = flick_metrics_active->copy_ops;
  }
  double Sum = 0, SumSq = 0;
  for (int Round = 0; Round != Rounds; ++Round) {
    auto S = Clock::now();
    for (size_t I = 0; I != Iters; ++I)
      Fn();
    double Secs =
        std::chrono::duration<double>(Clock::now() - S).count() /
        static_cast<double>(Iters);
    Sum += Secs;
    SumSq += Secs * Secs;
    if (Secs < T.Best)
      T.Best = Secs;
  }
  T.Mean = Sum / Rounds;
  double Var = SumSq / Rounds - T.Mean * T.Mean;
  T.StdDev = Var > 0 ? std::sqrt(Var) : 0;
  if (flick_metrics_active) {
    double Calls = static_cast<double>(Iters) * Rounds;
    T.BytesCopiedPerCall =
        static_cast<double>(flick_metrics_active->bytes_copied - Copied0) /
        Calls;
    T.CopyOpsPerCall =
        static_cast<double>(flick_metrics_active->copy_ops - Ops0) / Calls;
  }
  return T;
}

/// Pretty MB/s with adaptive precision.
inline std::string fmtRate(double BytesPerSec) {
  char Buf[64];
  double MB = BytesPerSec / 1e6;
  std::snprintf(Buf, sizeof(Buf), MB >= 100 ? "%8.0f" : "%8.2f", MB);
  return Buf;
}

inline std::string fmtBytes(size_t N) {
  char Buf[32];
  if (N >= (1u << 20) && N % (1u << 20) == 0)
    std::snprintf(Buf, sizeof(Buf), "%zuM", N >> 20);
  else if (N >= 1024 && N % 1024 == 0)
    std::snprintf(Buf, sizeof(Buf), "%zuK", N >> 10);
  else
    std::snprintf(Buf, sizeof(Buf), "%zuB", N);
  return Buf;
}

/// Message sizes used by Figure 3/4/5/6 for the int and rect workloads.
inline std::vector<size_t> arraySizes() {
  return {64,        256,       1024,      4096,     16384,
          65536,     262144,    1048576,   4194304};
}

/// Directory-entry workload sizes (256 B to 512 KB, paper §4).
inline std::vector<size_t> direntSizes() {
  return {256, 1024, 4096, 16384, 65536, 262144, 524288};
}

/// Name length that makes one XDR-encoded dirent exactly 256 bytes:
/// 4 (length word) + 116 (name, padded) + 120 (30 u32) + 16 (tag) = 256.
inline constexpr size_t DirentNameLen = 116;

/// Builds the directory-entry name pool (NUL-terminated, DirentNameLen).
inline std::vector<std::string> makeNames(size_t Count) {
  std::vector<std::string> Names;
  Names.reserve(Count);
  for (size_t I = 0; I != Count; ++I) {
    std::string N(DirentNameLen, 'f');
    std::snprintf(N.data(), N.size(), "file-%zu", I);
    N[std::string("file-").size() + 8] = 'x'; // keep full length
    for (char &C : N)
      if (C == '\0')
        C = 'p';
    Names.push_back(std::move(N));
  }
  return Names;
}

//===----------------------------------------------------------------------===//
// Machine-readable results (JSON)
//===----------------------------------------------------------------------===//

/// Formats a double as a JSON number (no inf/nan; fixed precision).
inline std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

/// Turns runtime metrics collection on for this process when JSON export
/// was requested via FLICK_BENCH_JSON, and returns the metrics block (or
/// nullptr).  Default interactive runs leave metrics disabled, so the
/// measured fast paths match a metrics-free build exactly.
/// Turns span tracing on when FLICK_BENCH_TRACE names an output path for
/// the Chrome trace-event JSON (written by JsonReport::write), or when
/// FLICK_BENCH_JSON is set at all: the per-endpoint latency anatomy in
/// the results document is populated at span close, so a JSON run needs
/// spans even when no trace file was asked for.  The Chrome trace export
/// itself stays gated on FLICK_BENCH_TRACE.  Ring size defaults to 65536
/// spans; FLICK_BENCH_TRACE_SPANS overrides it.
inline flick_tracer *benchTracerIfRequested() {
  static flick_tracer T;
  static std::vector<flick_span> Storage;
  const char *Path = std::getenv("FLICK_BENCH_TRACE");
  const char *Json = std::getenv("FLICK_BENCH_JSON");
  if ((!Path || !*Path) && (!Json || !*Json))
    return nullptr;
  if (Storage.empty()) {
    size_t N = 1 << 16;
    if (const char *S = std::getenv("FLICK_BENCH_TRACE_SPANS"))
      if (size_t V = std::strtoull(S, nullptr, 10))
        N = V;
    Storage.resize(N);
  }
  flick_trace_enable(&T, Storage.data(),
                     static_cast<uint32_t>(Storage.size()));
  return &T;
}

/// Starts the runtime flight recorder when FLICK_BENCH_SAMPLE names a
/// JSONL output path (written by JsonReport::write, which also stops the
/// sampler).  Optional knobs: FLICK_BENCH_SAMPLE_INTERVAL_US (default
/// 1000) and FLICK_BENCH_STALL_US (watchdog deadline; the post-mortem
/// dump goes to "<path>.postmortem.json").
inline bool benchSamplerIfRequested() {
  const char *Path = std::getenv("FLICK_BENCH_SAMPLE");
  if (!Path || !*Path)
    return false;
  if (flick_sampler_running())
    return true;
  flick_sampler_opts O;
  if (const char *S = std::getenv("FLICK_BENCH_SAMPLE_INTERVAL_US")) {
    double V = std::atof(S);
    if (V > 0)
      O.interval_us = V;
  }
  if (const char *S = std::getenv("FLICK_BENCH_STALL_US"))
    O.stall_deadline_us = std::atof(S);
  static std::string Postmortem;
  Postmortem = std::string(Path) + ".postmortem.json";
  O.postmortem_path = Postmortem.c_str();
  return flick_sampler_start(&O) == FLICK_OK;
}

/// Metrics collection turns on when any machine-readable export wants the
/// counters: FLICK_BENCH_JSON (the results document) or FLICK_METRICS_PROM
/// (Prometheus text exposition, written by JsonReport::write).  The block
/// is also registered with the flight recorder, which excerpts a few of
/// its fields into each sample via relaxed atomic reads.
inline flick_metrics *benchMetricsIfJson() {
  static flick_metrics M;
  benchTracerIfRequested();
  bool Sampling = benchSamplerIfRequested();
  const char *Path = std::getenv("FLICK_BENCH_JSON");
  const char *Prom = std::getenv("FLICK_METRICS_PROM");
  if ((!Path || !*Path) && (!Prom || !*Prom))
    return nullptr;
  flick_metrics_enable(&M);
  if (Sampling)
    flick_sampler_watch(&M);
  return &M;
}

/// Accumulates per-measurement rows and writes one JSON document per bench
/// binary when the FLICK_BENCH_JSON environment variable names an output
/// path.  Every fig/table binary emits through this, so plotting and CI
/// regression checks can consume results without scraping the tables.
class JsonReport {
public:
  static JsonReport &get() {
    static JsonReport R;
    return R;
  }

  /// One result row under construction; keys are emitted in call order.
  class Row {
  public:
    Row &str(const char *Key, const std::string &V) {
      field(Key, '"' + flick_json_escape(V) + '"');
      return *this;
    }
    Row &num(const char *Key, double V) {
      field(Key, jsonNum(V));
      return *this;
    }
    Row &num(const char *Key, size_t V) {
      field(Key, std::to_string(V));
      return *this;
    }
    /// Records the timing triple from one timeIt() measurement, plus the
    /// copy-accounting deltas timeIt snapshotted around the measured
    /// region (zeros when metrics collection was off).
    Row &time(const TimeStats &T) {
      num("secs_per_call", T.Best);
      num("secs_per_call_mean", T.Mean);
      num("stddev", T.StdDev);
      num("iters", T.Iters);
      num("rounds", static_cast<size_t>(T.Rounds));
      num("bytes_copied_per_call", T.BytesCopiedPerCall);
      num("copy_ops_per_call", T.CopyOpsPerCall);
      return *this;
    }

  private:
    friend class JsonReport;
    void field(const char *Key, const std::string &Rendered) {
      if (!Body.empty())
        Body += ", ";
      Body += "\"";
      Body += Key;
      Body += "\": " + Rendered;
    }
    std::string Body;
  };

  void add(const Row &R) { Rows.push_back("{" + R.Body + "}"); }

  /// Convenience: one throughput measurement.
  void addRate(const char *Workload, const char *Series, size_t Bytes,
               const TimeStats &T, double BytesPerSec) {
    Row R;
    R.str("workload", Workload)
        .str("series", Series)
        .num("payload_bytes", Bytes)
        .time(T)
        .num("rate_mb_per_s", BytesPerSec / 1e6);
    add(R);
  }

  /// Writes every requested machine-readable export: the results document
  /// {"bench", "build", "rows", optional "metrics", optional "flight"} to
  /// $FLICK_BENCH_JSON, the span ring (with flight-recorder counter events
  /// spliced in) as Chrome trace-event JSON to $FLICK_BENCH_TRACE, the
  /// flight-recorder JSONL time series to $FLICK_BENCH_SAMPLE, and the
  /// Prometheus text exposition to $FLICK_METRICS_PROM.  A running sampler
  /// is stopped first so the ring ends with a final sample.  The results
  /// file refuses to clobber an existing one ("x" exclusive mode): two
  /// benches pointed at one path is a harness bug, and silently keeping
  /// only the last writer's data corrupted comparisons before.  Returns
  /// false on any write failure; each export quietly does nothing when its
  /// variable is unset.
  bool write(const char *BenchName, const flick_metrics *M = nullptr) {
    if (flick_sampler_running())
      flick_sampler_stop();
    bool Ok = writeResults(BenchName, M);
    Ok &= writeSample();
    Ok &= writeProm(M);
    Ok &= writeTrace();
    Ok &= writeExemplars();
    return Ok;
  }

  bool writeResults(const char *BenchName, const flick_metrics *M) {
    const char *Path = std::getenv("FLICK_BENCH_JSON");
    if (!Path || !*Path)
      return true;
    std::FILE *F = std::fopen(Path, "wbx");
    if (!F) {
      std::fprintf(stderr,
                   "bench: cannot write '%s' (exists already? each bench "
                   "run needs a fresh FLICK_BENCH_JSON path)\n",
                   Path);
      return false;
    }
    std::fprintf(F, "{\n  \"bench\": \"%s\",\n  \"build\": %s,\n  \"rows\": [",
                 flick_json_escape(BenchName).c_str(),
                 flick_build_info_json().c_str());
    for (size_t I = 0; I != Rows.size(); ++I)
      std::fprintf(F, "%s\n    %s", I ? "," : "", Rows[I].c_str());
    std::fprintf(F, "%s]", Rows.empty() ? "" : "\n  ");
    if (M) {
      std::string Json = flick_metrics_to_json(M, "    ");
      std::fprintf(F, ",\n  \"metrics\": %s", Json.c_str());
      // The per-endpoint critical-path attribution also rides at top
      // level so checkers and dashboards reach it without digging into
      // the metrics block.
      std::string Anatomy = flick_metrics_anatomy_json(M, "    ");
      std::fprintf(F, ",\n  \"latency_anatomy\": %s", Anatomy.c_str());
    }
    // When the flight recorder ran, the time series rides along in the
    // results document so one artifact carries rates and their evolution.
    if (flick_sampler_count()) {
      std::string Flight = flick_sampler_to_json("    ");
      std::fprintf(F, ",\n  \"flight\": %s", Flight.c_str());
    }
    std::fprintf(F, "\n}\n");
    std::fclose(F);
    return true;
  }

  /// Writes the flight-recorder JSONL time series to $FLICK_BENCH_SAMPLE.
  bool writeSample() {
    const char *Path = std::getenv("FLICK_BENCH_SAMPLE");
    if (!Path || !*Path)
      return true;
    std::FILE *F = std::fopen(Path, "wb");
    if (!F) {
      std::fprintf(stderr, "bench: cannot write '%s'\n", Path);
      return false;
    }
    std::string Jsonl = flick_sampler_to_jsonl();
    std::fwrite(Jsonl.data(), 1, Jsonl.size(), F);
    std::fclose(F);
    return true;
  }

  /// Writes the Prometheus text exposition to $FLICK_METRICS_PROM.
  bool writeProm(const flick_metrics *M) {
    const char *Path = std::getenv("FLICK_METRICS_PROM");
    if (!Path || !*Path)
      return true;
    std::FILE *F = std::fopen(Path, "wb");
    if (!F) {
      std::fprintf(stderr, "bench: cannot write '%s'\n", Path);
      return false;
    }
    std::string Text = flick_metrics_to_prometheus(M, flick_trace_active);
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    return true;
  }

  /// Writes the Chrome trace for the active tracer to $FLICK_BENCH_TRACE,
  /// splicing in the flight recorder's counter events ("ph":"C") when it
  /// recorded any, rebased onto the tracer's timeline.
  bool writeTrace() {
    const char *Path = std::getenv("FLICK_BENCH_TRACE");
    if (!Path || !*Path || !flick_trace_active)
      return true;
    std::FILE *F = std::fopen(Path, "wb");
    if (!F) {
      std::fprintf(stderr, "bench: cannot write '%s'\n", Path);
      return false;
    }
    std::string Counters;
    if (flick_sampler_count())
      Counters = flick_sampler_chrome_counters(
          flick_sampler_epoch_offset_us(flick_trace_active));
    std::string Json = flick_trace_to_chrome_json(flick_trace_active, Counters);
    std::fwrite(Json.data(), 1, Json.size(), F);
    std::fclose(F);
    return true;
  }

  /// Writes the tail-exemplar post-mortems beside the results document:
  /// "<FLICK_BENCH_JSON>.exemplars.json" holds the per-endpoint
  /// slowest-RPC span trees, ".exemplars.trace.json" the same trees as a
  /// standalone Chrome trace document.  Quietly skipped when no tracer
  /// ran or the reservoir is empty.
  bool writeExemplars() {
    const char *Path = std::getenv("FLICK_BENCH_JSON");
    const flick_tracer *T = flick_trace_active;
    if (!Path || !*Path || !T)
      return true;
    bool Any = false;
    for (int E = 0; E != FLICK_MAX_ENDPOINTS && !Any; ++E)
      for (int S = 0; S != FLICK_EXEMPLAR_SLOTS && !Any; ++S)
        Any = T->exemplars.slots[E][S].n_spans != 0;
    if (!Any)
      return true;
    auto Dump = [](const std::string &P, const std::string &Doc) {
      std::FILE *F = std::fopen(P.c_str(), "wb");
      if (!F) {
        std::fprintf(stderr, "bench: cannot write '%s'\n", P.c_str());
        return false;
      }
      std::fwrite(Doc.data(), 1, Doc.size(), F);
      std::fclose(F);
      return true;
    };
    bool Ok = Dump(std::string(Path) + ".exemplars.json",
                   flick_exemplars_to_json(T));
    Ok &= Dump(std::string(Path) + ".exemplars.trace.json",
               flick_exemplars_to_chrome_json(T));
    return Ok;
  }

private:
  std::vector<std::string> Rows;
};

} // namespace flickbench

#endif // FLICK_BENCH_BENCHUTIL_H
