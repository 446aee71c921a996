//===- bench/micro_specialize.cpp - specializer cost/benefit sweep --------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what runtime marshal specialization costs and when it pays
/// off.  For each evaluation workload (int arrays, rect arrays, directory
/// entries) this sweeps:
///
///   compile_ns      : one cold specialization (stencil selection, run
///                     fusion, hole patching), cache-clear cost removed
///   cache_hit_ns    : resolving an already-compiled program (binary
///                     structural key build + table hit), the per-call
///                     cost of lazy resolution instead of load-time
///                     resolution
///   interp/spec ns  : per-call encode time for the tree-walking
///                     interpreter vs the specialized threaded program
///                     run through a held program handle
///   flag ns         : per-call encode time through
///                     flick_interp_encode(..., Specialize=true), which
///                     resolves the program on every call
///   break_even_calls: compile_ns / (interp_ns - spec_ns), the number of
///                     marshals after which specialization has paid for
///                     itself at that payload size
///
/// The headline claim this supports: specialization amortizes within a
/// handful of calls even for small payloads, so a dynamic-IDL runtime
/// should always specialize hot type programs.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "runtime/Interp.h"
#include "runtime/Specialize.h"
#include <cstddef>
#include <cstring>
#include <vector>

using namespace flickbench;
using flick::InterpType;
using flick::InterpWire;

namespace {

//===----------------------------------------------------------------------===//
// Presentation structs and type programs (no generated stubs: the point
// of the specializer is types that only exist at runtime)
//===----------------------------------------------------------------------===//

struct IntSeq {
  uint32_t Len;
  int32_t *Val;
};

struct Rect {
  int32_t MinX, MinY, MaxX, MaxY;
};
struct RectSeq {
  uint32_t Len;
  Rect *Val;
};

struct DirentInfo {
  uint32_t Words[30];
  uint8_t Tag[16];
};
struct Dirent {
  char *Name;
  DirentInfo Info;
};
struct DirentSeq {
  uint32_t Len;
  Dirent *Val;
};

const InterpType I32 = InterpType::scalar(0, 4);
const InterpType IntSeqTy = InterpType::counted(
    offsetof(IntSeq, Len), offsetof(IntSeq, Val), &I32, sizeof(int32_t));

const InterpType RectElem = InterpType::structOf({
    InterpType::scalar(offsetof(Rect, MinX), 4),
    InterpType::scalar(offsetof(Rect, MinY), 4),
    InterpType::scalar(offsetof(Rect, MaxX), 4),
    InterpType::scalar(offsetof(Rect, MaxY), 4),
});
const InterpType RectSeqTy = InterpType::counted(
    offsetof(RectSeq, Len), offsetof(RectSeq, Val), &RectElem, sizeof(Rect));

const InterpType DirentElem = InterpType::structOf({
    InterpType::cstring(offsetof(Dirent, Name)),
    InterpType::fixedArray(offsetof(Dirent, Info.Words), &I32, 30, 4),
    InterpType::bytes(offsetof(Dirent, Info.Tag), 16),
});
const InterpType DirentSeqTy =
    InterpType::counted(offsetof(DirentSeq, Len), offsetof(DirentSeq, Val),
                        &DirentElem, sizeof(Dirent));

constexpr InterpWire XdrWire{true, true};

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// One cold compile, isolated from the cache-clear cost that the timing
/// loop needs to force recompilation.
double compileNs(const InterpType &T) {
  TimeStats Clear = timeIt([] { flick::flick_spec_cache_clear(); }, 5.0);
  TimeStats Comp = timeIt(
      [&] {
        flick::flick_spec_cache_clear();
        flick::flick_specialize(T, XdrWire);
      },
      5.0);
  double Ns = (Comp.Best - Clear.Best) * 1e9;
  return Ns > 0 ? Ns : 0;
}

/// Warm-cache resolution: structural key build + hash + table hit.
double cacheHitNs(const InterpType &T) {
  flick::flick_specialize(T, XdrWire);
  TimeStats Hit = timeIt([&] { flick::flick_specialize(T, XdrWire); }, 5.0);
  return Hit.Best * 1e9;
}

struct SizeRow {
  size_t Payload;
  double InterpNs, SpecNs, FlagNs, BreakEven;
};

/// Times interp, specialized (held handle) and Specialize-flagged encode
/// for one payload and logs both the throughput rows (same schema as
/// fig3) and the break-even row.
template <typename Fn1, typename Fn2, typename Fn3>
SizeRow measure(const char *Workload, size_t Payload, double CompileNanos,
                flick_buf *Buf, Fn1 InterpEncode, Fn2 SpecEncode,
                Fn3 FlagEncode) {
  TimeStats TI = timeIt([&] {
    flick_buf_reset(Buf);
    InterpEncode();
  });
  TimeStats TS = timeIt([&] {
    flick_buf_reset(Buf);
    SpecEncode();
  });
  TimeStats TF = timeIt([&] {
    flick_buf_reset(Buf);
    FlagEncode();
  });
  SizeRow R;
  R.Payload = Payload;
  R.InterpNs = TI.Best * 1e9;
  R.SpecNs = TS.Best * 1e9;
  R.FlagNs = TF.Best * 1e9;
  double Saved = R.InterpNs - R.SpecNs;
  R.BreakEven = Saved > 0 ? CompileNanos / Saved : -1;
  JsonReport::get().addRate(Workload, "interp", Payload, TI,
                            static_cast<double>(Payload) / TI.Best);
  JsonReport::get().addRate(Workload, "interp-spec", Payload, TS,
                            static_cast<double>(Payload) / TS.Best);
  double Speedup = R.SpecNs > 0 ? R.InterpNs / R.SpecNs : 0;
  JsonReport::get().add(JsonReport::Row()
                            .str("workload", Workload)
                            .str("series", "break-even")
                            .num("payload_bytes", Payload)
                            .num("compile_ns", CompileNanos)
                            .num("interp_ns_per_call", R.InterpNs)
                            .num("spec_ns_per_call", R.SpecNs)
                            .num("flag_ns_per_call", R.FlagNs)
                            .num("speedup", Speedup)
                            .num("break_even_calls", R.BreakEven));
  return R;
}

void printTable(const char *Workload, double CompileNanos, double HitNanos,
                uint64_t StepsFused, const std::vector<SizeRow> &Rows) {
  std::printf("\n%s: compile %.0f ns, cache hit %.0f ns, %llu steps fused\n",
              Workload, CompileNanos, HitNanos,
              static_cast<unsigned long long>(StepsFused));
  std::printf("%8s %14s %14s %14s %9s %12s\n", "size", "interp/call",
              "spec/call", "flag/call", "speedup", "break-even");
  for (const SizeRow &R : Rows) {
    char BE[32];
    if (R.BreakEven < 0)
      std::snprintf(BE, sizeof(BE), "%12s", "never");
    else
      std::snprintf(BE, sizeof(BE), "%9.1f calls", R.BreakEven);
    std::printf("%8s %12.0fns %12.0fns %12.0fns %8.1fx %s\n",
                fmtBytes(R.Payload).c_str(), R.InterpNs, R.SpecNs, R.FlagNs,
                R.SpecNs > 0 ? R.InterpNs / R.SpecNs : 0, BE);
  }
}

/// Emits the per-workload compile-cost row shared by all payload sizes.
const flick::flick_spec_program *
compileRow(const char *Workload, const InterpType &T, double &CompileNanos,
           double &HitNanos) {
  CompileNanos = compileNs(T);
  HitNanos = cacheHitNs(T);
  const flick::flick_spec_program *P = flick::flick_specialize(T, XdrWire);
  if (!P) {
    std::fprintf(stderr, "micro_specialize: %s failed to specialize\n",
                 Workload);
    std::exit(1);
  }
  JsonReport::get().add(JsonReport::Row()
                            .str("workload", Workload)
                            .str("series", "spec-compile")
                            .num("compile_ns", CompileNanos)
                            .num("cache_hit_ns", HitNanos)
                            .num("steps_fused", P->StepsFused)
                            .num("enc_ops", P->Enc.size())
                            .num("dec_ops", P->Dec.size()));
  return P;
}

void benchInts() {
  double CompileNanos, HitNanos;
  const flick::flick_spec_program *P =
      compileRow("ints", IntSeqTy, CompileNanos, HitNanos);
  std::vector<SizeRow> Rows;
  flick_buf Buf;
  flick_buf_init(&Buf);
  for (size_t Bytes : std::vector<size_t>{64, 1024, 4096, 65536}) {
    uint32_t N = static_cast<uint32_t>(Bytes / 4);
    std::vector<int32_t> Data(N);
    for (uint32_t I = 0; I != N; ++I)
      Data[I] = static_cast<int32_t>(I * 2654435761u);
    IntSeq S{N, Data.data()};
    Rows.push_back(measure(
        "ints", Bytes, CompileNanos, &Buf,
        [&] { flick_interp_encode(&Buf, IntSeqTy, &S, XdrWire); },
        [&] { flick_spec_encode(&Buf, P, &S); },
        [&] { flick_interp_encode(&Buf, IntSeqTy, &S, XdrWire, true); }));
  }
  flick_buf_destroy(&Buf);
  printTable("ints", CompileNanos, HitNanos, P->StepsFused, Rows);
}

void benchRects() {
  double CompileNanos, HitNanos;
  const flick::flick_spec_program *P =
      compileRow("rects", RectSeqTy, CompileNanos, HitNanos);
  std::vector<SizeRow> Rows;
  flick_buf Buf;
  flick_buf_init(&Buf);
  for (size_t Bytes : std::vector<size_t>{64, 1024, 4096, 65536}) {
    uint32_t N = static_cast<uint32_t>(Bytes / sizeof(Rect));
    std::vector<Rect> Data(N);
    for (uint32_t I = 0; I != N; ++I) {
      int32_t V = static_cast<int32_t>(I);
      Data[I] = Rect{V, V + 1, V + 2, V + 3};
    }
    RectSeq S{N, Data.data()};
    Rows.push_back(measure(
        "rects", Bytes, CompileNanos, &Buf,
        [&] { flick_interp_encode(&Buf, RectSeqTy, &S, XdrWire); },
        [&] { flick_spec_encode(&Buf, P, &S); },
        [&] { flick_interp_encode(&Buf, RectSeqTy, &S, XdrWire, true); }));
  }
  flick_buf_destroy(&Buf);
  printTable("rects", CompileNanos, HitNanos, P->StepsFused, Rows);
}

void benchDirents() {
  double CompileNanos, HitNanos;
  const flick::flick_spec_program *P =
      compileRow("dirents", DirentSeqTy, CompileNanos, HitNanos);
  std::vector<SizeRow> Rows;
  flick_buf Buf;
  flick_buf_init(&Buf);
  for (size_t Bytes : std::vector<size_t>{256, 4096, 65536}) {
    uint32_t N = static_cast<uint32_t>(Bytes / 256);
    auto Names = makeNames(N);
    std::vector<Dirent> Data(N);
    for (uint32_t I = 0; I != N; ++I) {
      Data[I].Name = Names[I].data();
      for (int W = 0; W != 30; ++W)
        Data[I].Info.Words[W] = I * 31 + W;
      std::memset(Data[I].Info.Tag, 0x42, 16);
    }
    DirentSeq S{N, Data.data()};
    Rows.push_back(measure(
        "dirents", Bytes, CompileNanos, &Buf,
        [&] { flick_interp_encode(&Buf, DirentSeqTy, &S, XdrWire); },
        [&] { flick_spec_encode(&Buf, P, &S); },
        [&] { flick_interp_encode(&Buf, DirentSeqTy, &S, XdrWire, true); }));
  }
  flick_buf_destroy(&Buf);
  printTable("dirents", CompileNanos, HitNanos, P->StepsFused, Rows);
}

} // namespace

int main() {
  flick_metrics *M = benchMetricsIfJson();
  std::printf("=== Runtime specialization: compile cost vs break-even ===\n"
              "Stencil programs are compiled once per structural type; the\n"
              "break-even column is how many marshals amortize that cost.\n");
  benchInts();
  benchRects();
  benchDirents();
  return JsonReport::get().write("micro_specialize", M) ? 0 : 1;
}
