//===- bench/fig3_marshal_throughput.cpp - Paper Figure 3 -----------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 3: marshal throughput of generated stubs, independent of
/// transport.  Workloads per the paper: int arrays and rect-structure
/// arrays from 64 B to 4 MB, directory entries (256 B encoded each) from
/// 256 B to 512 KB.  Compilers compared:
///   flick-xdr  : this compiler, ONC/XDR stubs (bulk byte-swap on LE hosts)
///   flick-cdr  : this compiler, CORBA/IIOP stubs (bit-identical -> memcpy;
///                the SPARC/XDR situation of the paper)
///   naive      : rpcgen/PowerRPC-style stubs (per-datum out-of-line calls)
///   interp     : ILU/ORBeline-style type-program interpreter
/// The paper reports flick 2-5x faster for small and 5-17x for large
/// messages; the same ordering and growth with size should reproduce.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "b_cdr.h"
#include "b_flick.h"
#include "b_gather.h"
#include "b_naive.h"
#include "runtime/Interp.h"
#include "runtime/Specialize.h"
#include <cstring>
#include <vector>

using namespace flickbench;
using flick::InterpType;
using flick::InterpWire;

namespace {

//===----------------------------------------------------------------------===//
// Interpreter type programs for the F_ presentation types
//===----------------------------------------------------------------------===//

const InterpType IntElem = InterpType::scalar(0, 4);
const InterpType IntSeqTy = InterpType::counted(
    offsetof(F_intseq, intseq_len), offsetof(F_intseq, intseq_val),
    &IntElem, sizeof(int32_t));

const InterpType RectElem = InterpType::structOf({
    InterpType::scalar(offsetof(F_rect, min.x), 4),
    InterpType::scalar(offsetof(F_rect, min.y), 4),
    InterpType::scalar(offsetof(F_rect, max.x), 4),
    InterpType::scalar(offsetof(F_rect, max.y), 4),
});
const InterpType RectSeqTy = InterpType::counted(
    offsetof(F_rectseq, rectseq_len), offsetof(F_rectseq, rectseq_val),
    &RectElem, sizeof(F_rect));

const InterpType DirentElem = InterpType::structOf({
    InterpType::cstring(offsetof(F_dirent, name)),
    InterpType::fixedArray(offsetof(F_dirent, info.words), &IntElem, 30,
                           4),
    InterpType::bytes(offsetof(F_dirent, info.tag), 16),
});
const InterpType DirentSeqTy = InterpType::counted(
    offsetof(F_direntseq, direntseq_len),
    offsetof(F_direntseq, direntseq_val), &DirentElem, sizeof(F_dirent));

constexpr InterpWire XdrWire{true, true};

/// The specialized programs stand in for load-time compilation of a
/// dynamic IDL description: resolved once, reused per call.  Resolving
/// per call through the program cache adds a structural-key build and a
/// locked table lookup (tens of ns; see micro_specialize's flag/call).
const flick::flick_spec_program *specProgram(const InterpType &T) {
  const flick::flick_spec_program *P = flick::flick_specialize(T, XdrWire);
  if (!P) {
    std::fprintf(stderr, "fig3: type program failed to specialize\n");
    std::exit(1);
  }
  return P;
}

struct Row {
  size_t Payload;
  double FlickXdr, FlickCdr, FlickCdrGather, Naive, Interp, InterpSpec;
};

void printRows(const char *Title, const std::vector<Row> &Rows) {
  std::printf("\n%s\n", Title);
  std::printf("%8s %12s %12s %12s %12s %12s %12s %12s %12s\n", "size",
              "flick-xdr", "flick-cdr", "cdr-gather", "naive", "interp",
              "interp-spec", "spec/interp", "flick/naive");
  for (const Row &R : Rows) {
    std::printf("%8s %10sMB/s %10sMB/s %10sMB/s %10sMB/s %10sMB/s "
                "%10sMB/s %11.1fx %11.1fx\n",
                fmtBytes(R.Payload).c_str(), fmtRate(R.FlickXdr).c_str(),
                fmtRate(R.FlickCdr).c_str(),
                fmtRate(R.FlickCdrGather).c_str(), fmtRate(R.Naive).c_str(),
                fmtRate(R.Interp).c_str(), fmtRate(R.InterpSpec).c_str(),
                R.Interp > 0 ? R.InterpSpec / R.Interp : 0.0,
                R.Naive > 0 ? R.FlickCdr / R.Naive : 0.0);
  }
}

/// Times one encode function; returns payload bytes per second and logs
/// the measurement into the JSON report.
template <typename Fn>
double rate(const char *Workload, const char *Series, size_t PayloadBytes,
            flick_buf *Buf, Fn Encode) {
  TimeStats T = timeIt([&] {
    flick_buf_reset(Buf);
    Encode();
  });
  double BytesPerSec = static_cast<double>(PayloadBytes) / T.Best;
  JsonReport::get().addRate(Workload, Series, PayloadBytes, T, BytesPerSec);
  return BytesPerSec;
}

void benchInts() {
  std::vector<Row> Rows;
  flick_buf Buf;
  flick_buf_init(&Buf);
  for (size_t Bytes : arraySizes()) {
    uint32_t N = static_cast<uint32_t>(Bytes / 4);
    std::vector<int32_t> Data(N);
    for (uint32_t I = 0; I != N; ++I)
      Data[I] = static_cast<int32_t>(I * 2654435761u);
    F_intseq FS{N, Data.data()};
    N_intseq NS{N, Data.data()};
    C_IntSeq CS{N, N, Data.data()};
    G_IntSeq GS{N, N, Data.data()};
    Row R{};
    R.Payload = Bytes;
    R.FlickXdr = rate("ints", "flick-xdr", Bytes, &Buf, [&] {
      F_send_ints_1_encode_request(&Buf, 1, &FS);
    });
    R.FlickCdr = rate("ints", "flick-cdr", Bytes, &Buf, [&] {
      C_Transfer_send_ints_encode_request(&Buf, 1, &CS);
    });
    R.FlickCdrGather = rate("ints", "flick-cdr-gather", Bytes, &Buf, [&] {
      G_Transfer_send_ints_encode_request(&Buf, 1, &GS);
    });
    R.Naive = rate("ints", "naive", Bytes, &Buf, [&] {
      N_send_ints_1_encode_request(&Buf, 1, &NS);
    });
    R.Interp = rate("ints", "interp", Bytes, &Buf, [&] {
      flick_interp_encode(&Buf, IntSeqTy, &FS, XdrWire);
    });
    const flick::flick_spec_program *P = specProgram(IntSeqTy);
    R.InterpSpec = rate("ints", "interp-spec", Bytes, &Buf, [&] {
      flick_spec_encode(&Buf, P, &FS);
    });
    Rows.push_back(R);
  }
  flick_buf_destroy(&Buf);
  printRows("Figure 3a: marshal throughput, arrays of integers", Rows);
}

void benchRects() {
  std::vector<Row> Rows;
  flick_buf Buf;
  flick_buf_init(&Buf);
  for (size_t Bytes : arraySizes()) {
    uint32_t N = static_cast<uint32_t>(Bytes / sizeof(F_rect));
    if (N == 0)
      N = 1;
    std::vector<F_rect> Data(N);
    for (uint32_t I = 0; I != N; ++I)
      Data[I] = F_rect{{int32_t(I), int32_t(I + 1)},
                       {int32_t(I + 2), int32_t(I + 3)}};
    size_t Payload = N * sizeof(F_rect);
    F_rectseq FS{N, Data.data()};
    N_rectseq NS{N, reinterpret_cast<N_rect *>(Data.data())};
    C_RectSeq CS{N, N, reinterpret_cast<C_Rect *>(Data.data())};
    G_RectSeq GS{N, N, reinterpret_cast<G_Rect *>(Data.data())};
    Row R{};
    R.Payload = Payload;
    R.FlickXdr = rate("rects", "flick-xdr", Payload, &Buf, [&] {
      F_send_rects_1_encode_request(&Buf, 1, &FS);
    });
    R.FlickCdr = rate("rects", "flick-cdr", Payload, &Buf, [&] {
      C_Transfer_send_rects_encode_request(&Buf, 1, &CS);
    });
    R.FlickCdrGather = rate("rects", "flick-cdr-gather", Payload, &Buf, [&] {
      G_Transfer_send_rects_encode_request(&Buf, 1, &GS);
    });
    R.Naive = rate("rects", "naive", Payload, &Buf, [&] {
      N_send_rects_1_encode_request(&Buf, 1, &NS);
    });
    R.Interp = rate("rects", "interp", Payload, &Buf, [&] {
      flick_interp_encode(&Buf, RectSeqTy, &FS, XdrWire);
    });
    const flick::flick_spec_program *P = specProgram(RectSeqTy);
    R.InterpSpec = rate("rects", "interp-spec", Payload, &Buf, [&] {
      flick_spec_encode(&Buf, P, &FS);
    });
    Rows.push_back(R);
  }
  flick_buf_destroy(&Buf);
  printRows("Figure 3b: marshal throughput, arrays of rect structures",
            Rows);
}

void benchDirents() {
  std::vector<Row> Rows;
  flick_buf Buf;
  flick_buf_init(&Buf);
  for (size_t Bytes : direntSizes()) {
    uint32_t N = static_cast<uint32_t>(Bytes / 256);
    if (N == 0)
      N = 1;
    auto Names = makeNames(N);
    std::vector<F_dirent> FD(N);
    std::vector<N_dirent> ND(N);
    std::vector<C_Dirent> CD(N);
    std::vector<G_Dirent> GD(N);
    for (uint32_t I = 0; I != N; ++I) {
      char *Name = Names[I].data();
      FD[I].name = Name;
      ND[I].name = Name;
      CD[I].name = Name;
      GD[I].name = Name;
      for (int W = 0; W != 30; ++W) {
        uint32_t V = I * 31 + W;
        FD[I].info.words[W] = V;
        ND[I].info.words[W] = V;
        CD[I].info.words[W] = V;
        GD[I].info.words[W] = V;
      }
      std::memset(FD[I].info.tag, 0x42, 16);
      std::memset(ND[I].info.tag, 0x42, 16);
      std::memset(CD[I].info.tag, 0x42, 16);
      std::memset(GD[I].info.tag, 0x42, 16);
    }
    size_t Payload = size_t(N) * 256; // encoded bytes per the paper
    F_direntseq FS{N, FD.data()};
    N_direntseq NS{N, ND.data()};
    (void)NS;
    C_DirentSeq CS{N, N, CD.data()};
    G_DirentSeq GS{N, N, GD.data()};
    Row R{};
    R.Payload = Payload;
    R.FlickXdr = rate("dirents", "flick-xdr", Payload, &Buf, [&] {
      F_send_dirents_1_encode_request(&Buf, 1, &FS);
    });
    R.FlickCdr = rate("dirents", "flick-cdr", Payload, &Buf, [&] {
      C_Transfer_send_dirents_encode_request(&Buf, 1, &CS);
    });
    // Dirents carry strings, so the gather pass leaves them alone: this
    // series documents that gathered stubs cost nothing off the bulk path.
    R.FlickCdrGather =
        rate("dirents", "flick-cdr-gather", Payload, &Buf, [&] {
          G_Transfer_send_dirents_encode_request(&Buf, 1, &GS);
        });
    R.Naive = rate("dirents", "naive", Payload, &Buf, [&] {
      N_send_dirents_1_encode_request(&Buf, 1, &NS);
    });
    R.Interp = rate("dirents", "interp", Payload, &Buf, [&] {
      flick_interp_encode(&Buf, DirentSeqTy, &FS, XdrWire);
    });
    const flick::flick_spec_program *P = specProgram(DirentSeqTy);
    R.InterpSpec = rate("dirents", "interp-spec", Payload, &Buf, [&] {
      flick_spec_encode(&Buf, P, &FS);
    });
    Rows.push_back(R);
  }
  flick_buf_destroy(&Buf);
  printRows("Figure 3c: marshal throughput, directory entries (256B each)",
            Rows);
}

} // namespace

int main() {
  flick_metrics *M = benchMetricsIfJson();
  std::printf("=== Figure 3 reproduction: marshal throughput ===\n"
              "Paper: Flick stubs marshal 2-5x faster (small) and 5-17x\n"
              "faster (large) than rpcgen/PowerRPC/ILU-style stubs.\n");
  benchInts();
  benchRects();
  benchDirents();
  return JsonReport::get().write("fig3_marshal_throughput", M) ? 0 : 1;
}
