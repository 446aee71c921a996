//===- perfbench/marshal_phase.cpp - Encode/decode without transport ------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's three payloads (int arrays, rect arrays, 256-byte dirents),
/// four sizes each from the profile's marshal range, encoded and decoded by six tiers with no
/// transport in between:
///   xdr, cdr        compiled stubs (F_ and C_ prefixes): the product
///   spec-xdr/-cdr   flick_interp_encode/decode with Specialize (stencils)
///   naive, interp   rpcgen-style stubs and the plain interpreter: the
///                   in-run controls the speedup ratios divide by
/// Decode is timed beside encode so a change that speeds one side at the
/// other's expense shows.  Tiers and cells are interleaved round by round
/// and each reported rate is a median over rounds.
///
//===----------------------------------------------------------------------===//

#include "b_cdr.h"
#include "b_flick.h"
#include "b_naive.h"
#include "bench.h"
#include "runtime/Interp.h"
#include "runtime/Specialize.h"
#include <cstring>
#include <memory>

// The naive request decoders live beside its dispatcher, which wants
// servants; the marshal phase never dispatches.
int N_send_ints_1_svc(const N_intseq *) { return FLICK_OK; }
int N_send_rects_1_svc(const N_rectseq *) { return FLICK_OK; }
int N_send_dirents_1_svc(const N_direntseq *) { return FLICK_OK; }

namespace pb {

using flick::InterpType;
using flick::InterpWire;

namespace {

enum Kind { K_Ints, K_Rects, K_Dirents, K_NumKinds };
const char *KindNames[] = {"ints", "rects", "dirents"};

enum Tier { T_Xdr, T_Cdr, T_SpecXdr, T_SpecCdr, T_Naive, T_Interp, T_NumTiers };
constexpr unsigned SubBatches = 4;
const char *TierNames[] = {"xdr", "cdr", "spec-xdr", "spec-cdr", "naive", "interp"};

constexpr InterpWire XdrWire{true, true};
constexpr InterpWire CdrWire{false, false};

/// Dirent names are 116 characters, so each entry encodes to 256 bytes in
/// XDR (4-byte length + 116 + 120 words + 16 tag), as in the paper.
constexpr size_t DirentName = 116;
constexpr size_t DirentWire = 256;

// Type programs for the interpreter and specializer, for both host layouts
// (the rpcgen F_/N_ structs and the CORBA C_ structs).
const InterpType IntElem = InterpType::scalar(0, 4);
const InterpType RectElem = InterpType::structOf({
    InterpType::scalar(0, 4), InterpType::scalar(4, 4),
    InterpType::scalar(8, 4), InterpType::scalar(12, 4)});
const InterpType FDirent = InterpType::structOf({
    InterpType::cstring(offsetof(F_dirent, name)),
    InterpType::fixedArray(offsetof(F_dirent, info.words), &IntElem, 30, 4),
    InterpType::bytes(offsetof(F_dirent, info.tag), 16)});
const InterpType CDirent = InterpType::structOf({
    InterpType::cstring(offsetof(C_Dirent, name)),
    InterpType::fixedArray(offsetof(C_Dirent, info.words), &IntElem, 30, 4),
    InterpType::bytes(offsetof(C_Dirent, info.tag), 16)});
const InterpType FTypes[K_NumKinds] = {
    InterpType::counted(offsetof(F_intseq, intseq_len),
                        offsetof(F_intseq, intseq_val), &IntElem, 4),
    InterpType::counted(offsetof(F_rectseq, rectseq_len),
                        offsetof(F_rectseq, rectseq_val), &RectElem,
                        sizeof(F_rect)),
    InterpType::counted(offsetof(F_direntseq, direntseq_len),
                        offsetof(F_direntseq, direntseq_val), &FDirent,
                        sizeof(F_dirent))};
const InterpType CTypes[K_NumKinds] = {
    InterpType::counted(offsetof(C_IntSeq, _length),
                        offsetof(C_IntSeq, _buffer), &IntElem, 4),
    InterpType::counted(offsetof(C_RectSeq, _length),
                        offsetof(C_RectSeq, _buffer), &RectElem,
                        sizeof(C_Rect)),
    InterpType::counted(offsetof(C_DirentSeq, _length),
                        offsetof(C_DirentSeq, _buffer), &CDirent,
                        sizeof(C_Dirent))};

/// Byte offset of the CDR body behind a GIOP 1.0 request header, read the
/// way the generated dispatcher reads it (fixed part, operation name,
/// principal, then 8-byte alignment).
size_t giopBodyOffset(const flick_buf &B) {
  if (B.len < 36)
    return 0;
  size_t Off = 36 + flick_dec_u32le(B.data + 32);
  Off = (Off + 3) & ~size_t(3);
  Off += 4;
  return (Off + 7) & ~size_t(7);
}

} // namespace

/// One payload in both host layouts.
struct MarshalCell {
  Kind K = K_Ints;
  uint32_t Count = 0;
  size_t Bytes = 0; ///< payload bytes (XDR body size), the MB/s numerator
  std::vector<int32_t> Ints;
  std::vector<F_rect> FRects;
  std::vector<N_rect> NRects;
  std::vector<C_Rect> CRects;
  std::vector<std::string> Names;
  std::vector<F_dirent> FDirs;
  std::vector<N_dirent> NDirs;
  std::vector<C_Dirent> CDirs;
  F_intseq FI{};
  F_rectseq FR{};
  F_direntseq FD{};
  N_intseq NI{};
  N_rectseq NR{};
  N_direntseq ND{};
  C_IntSeq CI{};
  C_RectSeq CR{};
  C_DirentSeq CD{};
  const void *fval() const {
    return K == K_Ints ? static_cast<const void *>(&FI)
           : K == K_Rects ? static_cast<const void *>(&FR)
                          : static_cast<const void *>(&FD);
  }
  const void *cval() const {
    return K == K_Ints ? static_cast<const void *>(&CI)
           : K == K_Rects ? static_cast<const void *>(&CR)
                          : static_cast<const void *>(&CD);
  }
};

struct MarshalInputs {
  std::vector<std::unique_ptr<MarshalCell>> Cells;
  double SpecCompileUs = 0; ///< median per-program specialization time
};

namespace {

void buildCell(MarshalCell &C, Kind K, size_t Bytes, Rng &R) {
  C.K = K;
  switch (K) {
  case K_Ints:
    C.Count = static_cast<uint32_t>(std::max<size_t>(1, Bytes / 4));
    C.Ints.resize(C.Count);
    for (int32_t &V : C.Ints)
      V = static_cast<int32_t>(R.next());
    C.FI = {C.Count, C.Ints.data()};
    C.NI = {C.Count, C.Ints.data()};
    C.CI = {C.Count, C.Count, C.Ints.data()};
    C.Bytes = 4 + 4 * size_t(C.Count);
    break;
  case K_Rects:
    C.Count = static_cast<uint32_t>(std::max<size_t>(1, Bytes / 16));
    C.FRects.resize(C.Count);
    C.NRects.resize(C.Count);
    C.CRects.resize(C.Count);
    for (uint32_t I = 0; I != C.Count; ++I) {
      int32_t V[4];
      for (int32_t &X : V)
        X = static_cast<int32_t>(R.next());
      C.FRects[I] = {{V[0], V[1]}, {V[2], V[3]}};
      C.NRects[I] = {{V[0], V[1]}, {V[2], V[3]}};
      C.CRects[I] = {{V[0], V[1]}, {V[2], V[3]}};
    }
    C.FR = {C.Count, C.FRects.data()};
    C.NR = {C.Count, C.NRects.data()};
    C.CR = {C.Count, C.Count, C.CRects.data()};
    C.Bytes = 4 + 16 * size_t(C.Count);
    break;
  default:
    C.Count = static_cast<uint32_t>(std::max<size_t>(1, Bytes / DirentWire));
    C.Names.resize(C.Count);
    C.FDirs.resize(C.Count);
    C.NDirs.resize(C.Count);
    C.CDirs.resize(C.Count);
    for (uint32_t I = 0; I != C.Count; ++I) {
      std::string &N = C.Names[I];
      N.resize(DirentName);
      for (char &Ch : N)
        Ch = static_cast<char>('a' + R.below(26));
      F_dirent &F = C.FDirs[I];
      F.name = N.data();
      for (uint32_t &W : F.info.words)
        W = static_cast<uint32_t>(R.next());
      for (uint8_t &B : F.info.tag)
        B = static_cast<uint8_t>(R.next());
      N_dirent &Nd = C.NDirs[I];
      Nd.name = N.data();
      std::memcpy(Nd.info.words, F.info.words, sizeof(F.info.words));
      std::memcpy(Nd.info.tag, F.info.tag, sizeof(F.info.tag));
      C_Dirent &Cd = C.CDirs[I];
      Cd.name = N.data();
      std::memcpy(Cd.info.words, F.info.words, sizeof(F.info.words));
      std::memcpy(Cd.info.tag, F.info.tag, sizeof(F.info.tag));
    }
    C.FD = {C.Count, C.FDirs.data()};
    C.ND = {C.Count, C.NDirs.data()};
    C.CD = {C.Count, C.Count, C.CDirs.data()};
    C.Bytes = 4 + DirentWire * size_t(C.Count);
    break;
  }
}

int encodeTier(Tier T, const MarshalCell &C, flick_buf *B) {
  switch (T) {
  case T_Xdr:
    return C.K == K_Ints    ? F_send_ints_1_encode_request(B, 1, &C.FI)
           : C.K == K_Rects ? F_send_rects_1_encode_request(B, 1, &C.FR)
                            : F_send_dirents_1_encode_request(B, 1, &C.FD);
  case T_Cdr:
    return C.K == K_Ints ? C_Transfer_send_ints_encode_request(B, 1, &C.CI)
           : C.K == K_Rects
               ? C_Transfer_send_rects_encode_request(B, 1, &C.CR)
               : C_Transfer_send_dirents_encode_request(B, 1, &C.CD);
  case T_Naive:
    return C.K == K_Ints    ? N_send_ints_1_encode_request(B, 1, &C.NI)
           : C.K == K_Rects ? N_send_rects_1_encode_request(B, 1, &C.NR)
                            : N_send_dirents_1_encode_request(B, 1, &C.ND);
  case T_SpecXdr:
    return flick::flick_interp_encode(B, FTypes[C.K], C.fval(), XdrWire, true);
  case T_SpecCdr:
    return flick::flick_interp_encode(B, CTypes[C.K], C.cval(), CdrWire, true);
  default:
    return flick::flick_interp_encode(B, FTypes[C.K], C.fval(), XdrWire, false);
  }
}

/// Decoded values land here; large enough for any of the host structs.
union DecodedVal {
  F_intseq FI;
  F_rectseq FR;
  F_direntseq FD;
  N_intseq NI;
  N_rectseq NR;
  N_direntseq ND;
  C_IntSeq CI;
  C_RectSeq CR;
  C_DirentSeq CD;
};

int decodeTier(Tier T, const MarshalCell &C, flick_buf *B, flick_arena *Ar,
               DecodedVal *V) {
  switch (T) {
  case T_Xdr:
    return C.K == K_Ints    ? F_send_ints_1_decode_request(B, Ar, &V->FI)
           : C.K == K_Rects ? F_send_rects_1_decode_request(B, Ar, &V->FR)
                            : F_send_dirents_1_decode_request(B, Ar, &V->FD);
  case T_Cdr:
    return C.K == K_Ints
               ? C_Transfer_send_ints_decode_request(B, Ar, &V->CI)
           : C.K == K_Rects
               ? C_Transfer_send_rects_decode_request(B, Ar, &V->CR)
               : C_Transfer_send_dirents_decode_request(B, Ar, &V->CD);
  case T_Naive:
    return C.K == K_Ints    ? N_send_ints_1_decode_request(B, Ar, &V->NI)
           : C.K == K_Rects ? N_send_rects_1_decode_request(B, Ar, &V->NR)
                            : N_send_dirents_1_decode_request(B, Ar, &V->ND);
  case T_SpecXdr:
    return flick::flick_interp_decode(B, FTypes[C.K], V, XdrWire, Ar, true);
  case T_SpecCdr:
    return flick::flick_interp_decode(B, CTypes[C.K], V, CdrWire, Ar, true);
  default:
    return flick::flick_interp_decode(B, FTypes[C.K], V, XdrWire, Ar, false);
  }
}

bool isCdr(Tier T) { return T == T_Cdr || T == T_SpecCdr; }

/// The naive (rpcgen-style) decoders malloc what they return and the
/// caller frees it, as with xdr_free; the timed loop pays for both.
void freeNaive(Kind K, DecodedVal &V) {
  if (K == K_Ints) {
    std::free(V.NI.intseq_val);
  } else if (K == K_Rects) {
    std::free(V.NR.rectseq_val);
  } else {
    for (uint32_t I = 0; I != V.ND.direntseq_len; ++I)
      std::free(V.ND.direntseq_val[I].name);
    std::free(V.ND.direntseq_val);
  }
}

/// decode(encode(x)) == x.
bool sameValue(Tier T, const MarshalCell &C, const DecodedVal &V) {
  if (isCdr(T)) {
    uint32_t N = C.K == K_Ints ? V.CI._length
                 : C.K == K_Rects ? V.CR._length
                                  : V.CD._length;
    if (N != C.Count)
      return false;
    if (C.K == K_Ints)
      return std::memcmp(V.CI._buffer, C.Ints.data(), 4 * size_t(N)) == 0;
    if (C.K == K_Rects)
      return std::memcmp(V.CR._buffer, C.CRects.data(), 16 * size_t(N)) == 0;
    for (uint32_t I = 0; I != N; ++I) {
      const C_Dirent &D = V.CD._buffer[I];
      if (C.Names[I] != D.name ||
          std::memcmp(&D.info, &C.CDirs[I].info, sizeof(D.info)) != 0)
        return false;
    }
    return true;
  }
  // F_ and N_ share one layout (rpcgen presentation).
  uint32_t N = C.K == K_Ints ? V.FI.intseq_len
               : C.K == K_Rects ? V.FR.rectseq_len
                                : V.FD.direntseq_len;
  if (N != C.Count)
    return false;
  if (C.K == K_Ints)
    return std::memcmp(V.FI.intseq_val, C.Ints.data(), 4 * size_t(N)) == 0;
  if (C.K == K_Rects)
    return std::memcmp(V.FR.rectseq_val, C.FRects.data(), 16 * size_t(N)) == 0;
  for (uint32_t I = 0; I != N; ++I) {
    const F_dirent &D = V.FD.direntseq_val[I];
    if (C.Names[I] != D.name ||
        std::memcmp(&D.info, &C.FDirs[I].info, sizeof(D.info)) != 0)
      return false;
  }
  return true;
}

/// Busy loop of calibrated length, for injected per-call delays shorter
/// than a clock read.  lfence makes each step wait for everything before
/// it, so the delay adds to the call instead of overlapping with it.
uint64_t SpinItersPerUs = 0;
void spinIters(uint64_t N) {
  for (uint64_t I = 0; I != N; ++I)
    __builtin_ia32_lfence();
}
void calibrateSpin() {
  if (SpinItersPerUs)
    return;
  uint64_t N = 1 << 22;
  uint64_t T0 = nowNs();
  spinIters(N);
  uint64_t D = std::max<uint64_t>(1, nowNs() - T0);
  SpinItersPerUs = std::max<uint64_t>(1, N * 1000 / D);
}

struct TierState {
  flick_buf Buf;       ///< encode target
  flick_buf Wire;      ///< encoded copy that decode batches read
  size_t BodyOff = 0;  ///< header bytes in front of the payload
  flick_arena Ar;
  DecodedVal Val;
  TierState() {
    flick_buf_init(&Buf);
    flick_buf_init(&Wire);
  }
  ~TierState() {
    flick_buf_destroy(&Buf);
    flick_buf_destroy(&Wire);
    flick_arena_destroy(&Ar);
  }
  TierState(const TierState &) = delete;
  TierState &operator=(const TierState &) = delete;
};

struct Batch {
  uint64_t Calls = 0, Ns = 0;
};

/// Runs \p Call in doubling chunks until \p TargetNs has elapsed.
template <typename Fn> Batch runBatch(uint64_t TargetNs, Fn &&Call) {
  Batch B;
  uint64_t T0 = nowNs(), Chunk = 1;
  for (;;) {
    for (uint64_t I = 0; I != Chunk; ++I)
      Call();
    B.Calls += Chunk;
    B.Ns = nowNs() - T0;
    if (B.Ns >= TargetNs)
      return B;
    Chunk = std::min<uint64_t>(Chunk * 2, 1 << 16);
  }
}

} // namespace

MarshalInputs *marshalSetup(const RunConfig &C) {
  auto *In = new MarshalInputs;
  Rng R(C.Seed ^ 0x3A25A1ull);
  double Lo = static_cast<double>(C.Prof.MarshalMinBytes);
  double Ratio = static_cast<double>(C.Prof.MarshalMaxBytes) / Lo;
  // One cell per kind and size stratum, at the stratum's geometric middle:
  // the seed draws the content, not the amount of work.
  for (int K = 0; K != K_NumKinds; ++K)
    for (int S = 0; S != 4; ++S) {
      size_t Bytes = static_cast<size_t>(Lo * std::pow(Ratio, (S + 0.5) / 4.0));
      if (K == K_Dirents)
        Bytes = std::max(Bytes, DirentWire);
      auto Cell = std::make_unique<MarshalCell>();
      buildCell(*Cell, static_cast<Kind>(K), Bytes, R);
      In->Cells.push_back(std::move(Cell));
    }
  // Specialization is load-time work for a dynamic-IDL host: compile every
  // type program on a cold cache (the run's calls then hit the cache).
  flick::flick_spec_cache_clear();
  uint64_t T0 = nowNs();
  unsigned Programs = 0;
  for (int K = 0; K != K_NumKinds; ++K) {
    Programs += flick::flick_specialize(FTypes[K], XdrWire) != nullptr;
    Programs += flick::flick_specialize(CTypes[K], CdrWire) != nullptr;
  }
  In->SpecCompileUs =
      static_cast<double>(nowNs() - T0) * 1e-3 / std::max(1u, Programs);
  return In;
}

void marshalFree(MarshalInputs *In) { delete In; }

namespace {

class MarshalPhase : public Phase {
public:
  MarshalPhase(const RunConfig &C, MarshalInputs &In, Results &R)
      : C(C), In(In), R(R), NC(In.Cells.size()), EncRate(NC * T_NumTiers),
        DecRate(NC * T_NumTiers), TrEnc(NC * T_NumTiers) {
    // Reference encodings and the byte-equality checks: compiled XDR body
    // == interp == spec (XDR); naive message == compiled XDR message;
    // interp == spec (CDR-LE).  Compiled CDR against interp CDR-LE is
    // reported as a count (see README.md: the IIOP back end's layout
    // differs).
    if (InjectEncode)
      calibrateSpin();
    for (size_t I = 0; I != NC * T_NumTiers; ++I)
      St.push_back(std::make_unique<TierState>());
    for (size_t Ci = 0; Ci != NC; ++Ci) {
      const MarshalCell &Cell = *In.Cells[Ci];
      for (int T = 0; T != T_NumTiers; ++T) {
        TierState &S = State(Ci, T);
        int Rc = encodeTier(static_cast<Tier>(T), Cell, &S.Wire);
        R.check(Rc == FLICK_OK, std::string("encode ") + TierNames[T] + " " +
                                    KindNames[Cell.K]);
      }
      const flick_buf &X = State(Ci, T_Xdr).Wire, &Ip = State(Ci, T_Interp).Wire,
                      &Sx = State(Ci, T_SpecXdr).Wire, &Nv = State(Ci, T_Naive).Wire,
                      &Cd = State(Ci, T_Cdr).Wire, &Sc = State(Ci, T_SpecCdr).Wire;
      size_t XOff = X.len >= Ip.len ? X.len - Ip.len : 0;
      State(Ci, T_Xdr).BodyOff = State(Ci, T_Naive).BodyOff = XOff;
      State(Ci, T_Cdr).BodyOff = giopBodyOffset(Cd);
      auto Same = [](const flick_buf &A, size_t AOff, const flick_buf &B) {
        return A.len - AOff == B.len &&
               std::memcmp(A.data + AOff, B.data, B.len) == 0;
      };
      std::string K = KindNames[Cell.K];
      R.check(Same(X, XOff, Ip), "xdr stub bytes != interp bytes, " + K);
      R.check(Same(Ip, 0, Sx), "interp bytes != spec bytes (xdr), " + K);
      R.check(Same(Nv, 0, X), "naive bytes != xdr stub bytes, " + K);
      R.check(Ip.len == Cell.Bytes, "xdr body size, " + K);
      flick_buf CdrInterp;
      flick_buf_init(&CdrInterp);
      flick::flick_interp_encode(&CdrInterp, CTypes[Cell.K], Cell.cval(), CdrWire);
      R.check(Same(CdrInterp, 0, Sc), "interp bytes != spec bytes (cdr), " + K);
      size_t COff = State(Ci, T_Cdr).BodyOff;
      CdrLayoutMismatch += !Same(Cd, std::min(COff, Cd.len), CdrInterp);
      flick_buf_destroy(&CdrInterp);
    }
  }

  /// One pass over every cell and tier; every batch gets an equal share.
  void round(bool Traced, double Seconds) override {
    // The naive and interp controls (the last two tiers) feed only the
    // traced run's ratios.
    unsigned Tiers = C.Trace ? T_NumTiers : T_Naive;
    uint64_t TargetNs = static_cast<uint64_t>(
        Seconds * 1e9 / static_cast<double>(NC * Tiers * 2 * SubBatches));
    Tr.On = Traced;
    flick_metrics RoundM; // flick_metrics_enable zeroes it: one round only
    if (Traced)
      flick_metrics_enable(&RoundM);
    for (size_t Ci = 0; Ci != NC; ++Ci) {
      const MarshalCell &Cell = *In.Cells[Ci];
      for (int T = 0; T != static_cast<int>(Tiers); ++T) {
        TierState &S = State(Ci, T);
        Tier Ti = static_cast<Tier>(T);
        int Layer = T == T_SpecXdr || T == T_SpecCdr ? L_Spec
                    : T == T_Interp                   ? L_Interp
                                                      : L_Stubs;
        // Several short batches: interference from the rest of the host
        // only ever slows a batch, so the fastest ones are the steadiest.
        for (unsigned Sub = 0; Sub != SubBatches; ++Sub) {
          // Injected delay in spin steps per call; the fraction left over
          // carries to the next call, so short calls get their share too.
          double Delay = 0, Owed = 0;
          if (InjectEncode && (Ti == T_Xdr || Ti == T_Cdr)) {
            Batch Cal = runBatch(TargetNs / 4, [&] {
              flick_buf_reset(&S.Buf);
              encodeTier(Ti, Cell, &S.Buf);
            });
            Delay = C.InjectFrac * static_cast<double>(Cal.Ns * SpinItersPerUs) /
                    (1000.0 * static_cast<double>(Cal.Calls));
          }
          int Bad = 0;
          uint64_t Span0 = Tr.Acc[Layer].TotalNs;
          Batch E = runBatch(TargetNs, [&] {
            flick_buf_reset(&S.Buf);
            Tr.begin(Layer);
            Bad |= encodeTier(Ti, Cell, &S.Buf);
            Owed += Delay;
            uint64_t Steps = static_cast<uint64_t>(Owed);
            Owed -= static_cast<double>(Steps);
            spinIters(Steps);
            Tr.end();
          });
          uint64_t EncSpan = Tr.Acc[Layer].TotalNs - Span0;
          R.ops(E.Calls);
          R.check(Bad == 0 && S.Buf.len == S.Wire.len &&
                      std::memcmp(S.Buf.data, S.Wire.data, S.Buf.len) == 0,
                  std::string("re-encode ") + TierNames[T] + " " +
                      KindNames[Cell.K]);
          Bad = 0;
          Span0 = Tr.Acc[Layer].TotalNs;
          bool Naive = Ti == T_Naive, Live = false;
          Batch D = runBatch(TargetNs, [&] {
            S.Wire.pos = S.BodyOff;
            flick_arena_reset(&S.Ar);
            Tr.begin(Layer);
            if (Live)
              freeNaive(Cell.K, S.Val);
            int Rc = decodeTier(Ti, Cell, &S.Wire, &S.Ar, &S.Val);
            Live = Naive && Rc == FLICK_OK;
            Bad |= Rc;
            Tr.end();
          });
          uint64_t DecSpan = Tr.Acc[Layer].TotalNs - Span0;
          R.ops(D.Calls);
          R.check(Bad == 0 && sameValue(Ti, Cell, S.Val),
                  std::string("decode(encode(x)) != x, ") + TierNames[T] + " " +
                      KindNames[Cell.K]);
          if (Live)
            freeNaive(Cell.K, S.Val);
          double B = static_cast<double>(Cell.Bytes);
          double ERate = B * static_cast<double>(E.Calls) * 1e3 / static_cast<double>(E.Ns);
          double DRate = B * static_cast<double>(D.Calls) * 1e3 / static_cast<double>(D.Ns);
          size_t Idx = Ci * T_NumTiers + T;
          if (Traced) {
            TrEnc[Idx].push_back(ERate);
            TierNs[T][0] += EncSpan;
            TierNs[T][1] += DecSpan;
            TierBytes[T][0] += Cell.Bytes * E.Calls;
            TierBytes[T][1] += Cell.Bytes * D.Calls;
            TracedCalls += E.Calls + D.Calls;
            TracedWallNs += E.Ns + D.Ns;
            TracedSpanNs += EncSpan + DecSpan;
          } else {
            EncRate[Idx].push_back(ERate);
            DecRate[Idx].push_back(DRate);
          }
        }
      }
    }
    if (Traced) {
      flick_metrics_disable();
      flick_metrics_merge(&M, &RoundM);
    }
    Tr.On = false;
  }

  void finish() override;

private:
  TierState &State(size_t Cell, int T) { return *St[Cell * T_NumTiers + T]; }

  const RunConfig &C;
  MarshalInputs &In;
  Results &R;
  size_t NC;
  bool InjectEncode = C.Inject == "encode";
  std::vector<std::unique_ptr<TierState>> St;
  uint64_t CdrLayoutMismatch = 0;
  flick_metrics M; ///< counters summed over the traced rounds
  Tracer Tr;
  // Per (cell, tier): one MB/s sample per round, encode and decode.
  std::vector<std::vector<double>> EncRate, DecRate, TrEnc;
  uint64_t TierNs[T_NumTiers][2] = {}, TierBytes[T_NumTiers][2] = {};
  uint64_t TracedCalls = 0, TracedWallNs = 0, TracedSpanNs = 0;
};

void MarshalPhase::finish() {
  // Per cell the fastest batch of the run, then the geomean over cells.
  auto Geo = [&](std::initializer_list<int> Tiers,
                 const std::vector<std::vector<double>> &V) {
    std::vector<double> Cells;
    for (int T : Tiers)
      for (size_t Ci = 0; Ci != NC; ++Ci) {
        const std::vector<double> &X = V[Ci * T_NumTiers + T];
        Cells.push_back(*std::max_element(X.begin(), X.end()));
      }
    return geomean(Cells);
  };
  R.e2e("encode_mb_per_s", Geo({T_Xdr, T_Cdr}, EncRate), "MB/s");
  R.e2e("decode_mb_per_s", Geo({T_Xdr, T_Cdr}, DecRate), "MB/s");
  R.e2e("dyn_encode_mb_per_s", Geo({T_SpecXdr, T_SpecCdr}, EncRate), "MB/s");
  R.e2e("dyn_decode_mb_per_s", Geo({T_SpecXdr, T_SpecCdr}, DecRate), "MB/s");
  R.Notes["marshal.cells"] = std::to_string(NC);
  auto PerRound = [&](std::initializer_list<int> Tiers,
                      const std::vector<std::vector<double>> &V) {
    std::vector<double> Out;
    for (size_t Rd = 0; Rd != V[0].size(); ++Rd) {
      std::vector<double> Cells;
      for (int T : Tiers)
        for (size_t Ci = 0; Ci != NC; ++Ci)
          Cells.push_back(V[Ci * T_NumTiers + T][Rd]);
      Out.push_back(geomean(Cells));
    }
    return joinNums(Out);
  };
  R.Notes["rounds.encode_mb_per_s"] = PerRound({T_Xdr, T_Cdr}, EncRate);
  R.Notes["rounds.decode_mb_per_s"] = PerRound({T_Xdr, T_Cdr}, DecRate);
  R.Notes["rounds.dyn_encode_mb_per_s"] = PerRound({T_SpecXdr, T_SpecCdr}, EncRate);
  R.Notes["rounds.dyn_decode_mb_per_s"] = PerRound({T_SpecXdr, T_SpecCdr}, DecRate);
  R.Notes["marshal.cdr_layout_mismatch_cells"] = std::to_string(CdrLayoutMismatch);
  if (!C.Trace)
    return;

  auto NsPerKb = [&](int T, int Dir) {
    return TierBytes[T][Dir]
               ? static_cast<double>(TierNs[T][Dir]) * 1024.0 /
                     static_cast<double>(TierBytes[T][Dir])
               : 0.0;
  };
  R.layer("stubs.encode_ns_per_kb.xdr", NsPerKb(T_Xdr, 0), "ns/KB");
  R.layer("stubs.encode_ns_per_kb.cdr", NsPerKb(T_Cdr, 0), "ns/KB");
  R.layer("stubs.decode_ns_per_kb.xdr", NsPerKb(T_Xdr, 1), "ns/KB");
  R.layer("stubs.decode_ns_per_kb.cdr", NsPerKb(T_Cdr, 1), "ns/KB");
  R.layer("runtime.spec.encode_ns_per_kb",
          0.5 * (NsPerKb(T_SpecXdr, 0) + NsPerKb(T_SpecCdr, 0)), "ns/KB");
  R.layer("runtime.spec.decode_ns_per_kb",
          0.5 * (NsPerKb(T_SpecXdr, 1) + NsPerKb(T_SpecCdr, 1)), "ns/KB");
  R.layer("runtime.interp.encode_ns_per_kb", NsPerKb(T_Interp, 0), "ns/KB");
  R.layer("stubs.naive.encode_ns_per_kb", NsPerKb(T_Naive, 0), "ns/KB");
  std::vector<double> VsNaive, VsInterp;
  for (size_t Ci = 0; Ci != NC; ++Ci) {
    auto Med = [&](int T) { return median(EncRate[Ci * T_NumTiers + T]); };
    VsNaive.push_back(Med(T_Xdr) / Med(T_Naive));
    VsInterp.push_back(Med(T_SpecXdr) / Med(T_Interp));
  }
  R.layer("stubs.speedup_vs_naive", geomean(VsNaive), "ratio");
  R.layer("runtime.spec.speedup_vs_interp", geomean(VsInterp), "ratio");
  R.layer("runtime.spec.compile_us", In.SpecCompileUs, "us");
  double Calls = static_cast<double>(std::max<uint64_t>(1, TracedCalls));
  R.layer("runtime.buf.copies_per_call", static_cast<double>(M.copy_ops) / Calls, "count");
  // Buffers are reused from batch to batch, so this is 0 unless a change
  // makes the stubs grow them; a note, not a metric.
  R.Notes["runtime.buf.grow_per_call"] = std::to_string(static_cast<double>(M.buf_grows) / Calls);
  double Lookups = static_cast<double>(M.spec_cache_hits + M.spec_programs);
  R.layer("runtime.spec.cache_hit_frac",
          Lookups > 0 ? static_cast<double>(M.spec_cache_hits) / Lookups : 0, "ratio");
  R.layer("runtime.interp.dispatches_per_call",
          static_cast<double>(M.interp_dispatches) / Calls, "count");
  R.layer("closure.marshal.gap_frac",
          std::fabs(static_cast<double>(TracedSpanNs) / static_cast<double>(TracedWallNs) - 1),
          "ratio");
  std::vector<double> Over;
  for (size_t I = 0; I != NC * T_NumTiers; ++I)
    if (!TrEnc[I].empty())
      Over.push_back(median(EncRate[I]) / median(TrEnc[I]));
  R.layer("trace.slowdown.marshal", geomean(Over), "ratio");
}

} // namespace

std::unique_ptr<Phase> marshalPhase(const RunConfig &C, MarshalInputs &In,
                                    Results &R) {
  return std::make_unique<MarshalPhase>(C, In, R);
}

} // namespace pb
