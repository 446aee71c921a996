//===- runtime/Specialize.cpp - Runtime marshal specializer ---------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Compilation pipeline, mirroring the MarshalPlan passes at runtime:
//
//   lower    : InterpType tree -> step list (one step per primitive),
//              recursing bottom-up so aggregate bodies are fused before
//              their parent decides between a bulk kernel and a loop.
//   fuse     : adjacent bit-identical steps collapse into memcpy runs,
//              endianness-mismatched uniform-width steps into swap runs
//              (the memcpy-collapse pass of backends/Passes.cpp, rerun on
//              the type program).
//   emit     : steps -> flat patched-op arrays, inserting one front-
//              loaded reservation (encode) / bounds check (decode) per
//              fixed-size region instead of per-field checks (the
//              bounds-hoisting pass).
//
// Programs land in a process-wide cache keyed by the canonical binary
// structural key of (type tree, wire convention).  A lookup writes the key
// into a reused thread-local buffer and probes the table with a view of
// it, so a cache hit neither formats nor allocates.  Unspecializable trees
// cache a null so repeated lookups stay cheap and fall back to the
// interpreter.
//
//===----------------------------------------------------------------------===//

#include "runtime/Specialize.h"
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

using namespace flick;

namespace {

bool hostIsLE() {
  const uint16_t One = 1;
  return *reinterpret_cast<const uint8_t *>(&One) == 1;
}

/// True when a HostW-byte scalar's wire bytes differ from its host bytes
/// only by byte order (so a swap run reproduces them).
bool scalarNeedsSwap(const InterpWire &W, unsigned HostW) {
  return HostW > 1 && (W.BigEndian ? hostIsLE() : !hostIsLE());
}

unsigned wireWidth(const InterpWire &W, unsigned Width) {
  return W.XdrWidening && Width < 4 ? 4 : Width;
}

//===----------------------------------------------------------------------===//
// Step IR
//===----------------------------------------------------------------------===//

/// One pre-fusion step.  Offsets are absolute within the current
/// presented base (struct nesting is flattened away during lowering; only
/// array/sequence elements rebind the base).
struct Step {
  enum class K {
    Put,          ///< scalar: Off, HostW -> WireW
    Memcpy,       ///< bit-identical run: Bytes at Off
    Swap,         ///< byte-swap run: Bytes at Off, element Width
    Align,        ///< XDR 4-byte alignment
    CString,      ///< char* at Off
    CountedDense, ///< len at Off, buf at BufOff, dense element of Stride
    LoopFixed,    ///< Count elements at Off, Stride apart
    LoopCounted,  ///< len at Off, buf at BufOff, Stride apart
  };
  K Kind;
  uint64_t Off = 0;
  uint64_t Bytes = 0;
  unsigned HostW = 0;
  unsigned WireW = 0;
  unsigned Width = 0; ///< swap element width; CountedDense: 0 = memcpy
  uint64_t Count = 0;
  uint64_t BufOff = 0;
  uint64_t Stride = 0;
  uint64_t Covers = 0; ///< interp node visits this step stands in for
  std::vector<Step> Body;
};

//===----------------------------------------------------------------------===//
// Fusion (memcpy collapse / swap runs)
//===----------------------------------------------------------------------===//

/// A step viewed as a fusable bulk atom: kind 0 is bit-identical, kind 1
/// is a swap of Width-byte elements.
struct Atom {
  int Kind;
  unsigned Width;
  uint64_t Off, Bytes, Covers;
};

bool atomOf(const Step &S, const InterpWire &W, Atom &A) {
  switch (S.Kind) {
  case Step::K::Put:
    if (S.HostW != S.WireW)
      return false; // widened scalars never fuse
    if (!scalarNeedsSwap(W, S.HostW)) {
      A = {0, 0, S.Off, S.HostW, S.Covers};
      return true;
    }
    if (S.HostW == 2 || S.HostW == 4 || S.HostW == 8) {
      A = {1, S.HostW, S.Off, S.HostW, S.Covers};
      return true;
    }
    return false;
  case Step::K::Memcpy:
    A = {0, 0, S.Off, S.Bytes, S.Covers};
    return true;
  case Step::K::Swap:
    A = {1, S.Width, S.Off, S.Bytes, S.Covers};
    return true;
  default:
    return false;
  }
}

Step runStep(const Atom &A) {
  Step S{};
  S.Kind = A.Kind == 0 ? Step::K::Memcpy : Step::K::Swap;
  S.Off = A.Off;
  S.Bytes = A.Bytes;
  S.Width = A.Width;
  S.Covers = A.Covers;
  return S;
}

/// Collapses host-contiguous same-kind atoms into single runs.  A lone
/// eligible scalar keeps its (cheaper) scalar kernel.
void fuse(std::vector<Step> &Steps, const InterpWire &W, uint64_t &Fused) {
  std::vector<Step> Out;
  Out.reserve(Steps.size());
  Atom Cur{};
  Step CurStep{};
  bool Open = false, CurIsRun = false;
  auto Flush = [&] {
    if (!Open)
      return;
    Out.push_back(CurIsRun ? runStep(Cur) : CurStep);
    Open = false;
  };
  for (Step &S : Steps) {
    Atom A;
    if (atomOf(S, W, A)) {
      if (Open && Cur.Kind == A.Kind && Cur.Width == A.Width &&
          A.Off == Cur.Off + Cur.Bytes) {
        Cur.Bytes += A.Bytes;
        Cur.Covers += A.Covers;
        CurIsRun = true;
        ++Fused;
        continue;
      }
      Flush();
      Open = true;
      Cur = A;
      CurIsRun = S.Kind != Step::K::Put;
      CurStep = std::move(S);
      continue;
    }
    Flush();
    Out.push_back(std::move(S));
  }
  Flush();
  Steps = std::move(Out);
}

/// True (with the swap width) when a fused aggregate body is one run
/// covering exactly [0, Stride) -- i.e. the element's wire image is its
/// host image (modulo byte order), so the whole aggregate is dense.
bool denseRun(const std::vector<Step> &Body, uint64_t Stride,
              const InterpWire &W, unsigned &SwapW, uint64_t &Covers) {
  if (Body.size() != 1)
    return false;
  Atom A;
  if (!atomOf(Body[0], W, A))
    return false;
  if (A.Off != 0 || A.Bytes != Stride)
    return false;
  SwapW = A.Kind == 0 ? 0 : A.Width;
  Covers = A.Covers;
  return true;
}

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

bool lower(const InterpType &T, uint64_t Base, const InterpWire &W,
           std::vector<Step> &Out, uint64_t &Fused) {
  switch (T.K) {
  case InterpType::Kind::Scalar: {
    if (T.Width != 1 && T.Width != 2 && T.Width != 4 && T.Width != 8)
      return false;
    Step S{};
    S.Kind = Step::K::Put;
    S.Off = Base + T.Offset;
    S.HostW = T.Width;
    S.WireW = wireWidth(W, T.Width);
    S.Covers = 1;
    Out.push_back(std::move(S));
    return true;
  }
  case InterpType::Kind::Bytes: {
    Step S{};
    S.Kind = Step::K::Memcpy;
    S.Off = Base + T.Offset;
    S.Bytes = T.Count;
    S.Covers = 1;
    Out.push_back(std::move(S));
    if (W.XdrWidening) {
      Out.push_back(Step{});
      Out.back().Kind = Step::K::Align;
    }
    return true;
  }
  case InterpType::Kind::CString: {
    Step S{};
    S.Kind = Step::K::CString;
    S.Off = Base + T.Offset;
    S.Covers = 1;
    Out.push_back(std::move(S));
    return true;
  }
  case InterpType::Kind::Struct: {
    size_t First = Out.size();
    for (const InterpType &F : T.Fields)
      if (!lower(F, Base, W, Out, Fused))
        return false;
    // The struct node's own interpreter visit rides on its first step.
    if (Out.size() > First)
      Out[First].Covers += 1;
    return true;
  }
  case InterpType::Kind::FixedArray: {
    if (!T.Elem)
      return false;
    if (T.Count == 0)
      return true; // nothing on the wire
    std::vector<Step> Body;
    if (!lower(*T.Elem, 0, W, Body, Fused))
      return false;
    fuse(Body, W, Fused);
    unsigned SwapW;
    uint64_t ElemCovers;
    if (denseRun(Body, T.HostStride, W, SwapW, ElemCovers)) {
      Step S{};
      S.Kind = SwapW == 0 ? Step::K::Memcpy : Step::K::Swap;
      S.Off = Base + T.Offset;
      S.Bytes = T.Count * T.HostStride;
      S.Width = SwapW;
      S.Covers = 1 + T.Count * ElemCovers;
      Out.push_back(std::move(S));
      Fused += T.Count + 1; // per-element runs plus the loop overhead
      return true;
    }
    Step S{};
    S.Kind = Step::K::LoopFixed;
    S.Off = Base + T.Offset;
    S.Count = T.Count;
    S.Stride = T.HostStride;
    S.Covers = 1;
    S.Body = std::move(Body);
    Out.push_back(std::move(S));
    return true;
  }
  case InterpType::Kind::Counted: {
    if (!T.Elem)
      return false;
    std::vector<Step> Body;
    if (!lower(*T.Elem, 0, W, Body, Fused))
      return false;
    fuse(Body, W, Fused);
    unsigned SwapW;
    uint64_t ElemCovers;
    if (denseRun(Body, T.HostStride, W, SwapW, ElemCovers)) {
      Step S{};
      S.Kind = Step::K::CountedDense;
      S.Off = Base + T.LenOffset;
      S.BufOff = Base + T.BufOffset;
      S.Stride = T.HostStride;
      S.Width = SwapW;
      S.Covers = ElemCovers; // per element; the kernel scales by length
      Out.push_back(std::move(S));
      Fused += 2; // the loop ops the per-element program would have run
      return true;
    }
    Step S{};
    S.Kind = Step::K::LoopCounted;
    S.Off = Base + T.LenOffset;
    S.BufOff = Base + T.BufOffset;
    S.Stride = T.HostStride;
    S.Covers = 1;
    S.Body = std::move(Body);
    Out.push_back(std::move(S));
    return true;
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Emission (with bounds hoisting)
//===----------------------------------------------------------------------===//

bool fit32(uint64_t V) { return V <= 0xffffffffull; }

/// Fixed steps produce a statically known number of wire bytes, so a
/// whole run of them shares one reservation/check.
bool isFixed(const Step &S) {
  return S.Kind == Step::K::Put || S.Kind == Step::K::Memcpy ||
         S.Kind == Step::K::Swap;
}

uint64_t wireBytes(const Step &S) {
  return S.Kind == Step::K::Put ? S.WireW : S.Bytes;
}

/// The stencil selectors of one marshal direction.  Encode and decode
/// programs have the same shape op for op; only the kernels differ.
struct EncodeDir {
  using Op = flick_spec_enc_op;
  using Fn = flick_spec_enc_fn;
  static constexpr auto guard = flick_stencil_enc_reserve;
  static constexpr auto scalar = flick_stencil_enc_scalar;
  static constexpr auto copy = flick_stencil_enc_memcpy;
  static constexpr auto swap = flick_stencil_enc_swap;
  static constexpr auto align4 = flick_stencil_enc_align4;
  static constexpr auto cstring = flick_stencil_enc_cstring;
  static constexpr auto countedDense = flick_stencil_enc_counted_dense;
  static constexpr auto loopFixed = flick_stencil_enc_loop_fixed;
  static constexpr auto loopCounted = flick_stencil_enc_loop_counted;
  static constexpr auto loopEnd = flick_stencil_enc_loop_end;
};

struct DecodeDir {
  using Op = flick_spec_dec_op;
  using Fn = flick_spec_dec_fn;
  static constexpr auto guard = flick_stencil_dec_check;
  static constexpr auto scalar = flick_stencil_dec_scalar;
  static constexpr auto copy = flick_stencil_dec_memcpy;
  static constexpr auto swap = flick_stencil_dec_swap;
  static constexpr auto align4 = flick_stencil_dec_align4;
  static constexpr auto cstring = flick_stencil_dec_cstring;
  static constexpr auto countedDense = flick_stencil_dec_counted_dense;
  static constexpr auto loopFixed = flick_stencil_dec_loop_fixed;
  static constexpr auto loopCounted = flick_stencil_dec_loop_counted;
  static constexpr auto loopEnd = flick_stencil_dec_loop_end;
};

/// Emits \p Steps as \p Dir's op array: one guard (encode reservation,
/// decode bounds check) per run of fixed steps, loops bracketed by their
/// head and end ops.
template <typename Dir>
bool emitOps(const std::vector<Step> &Steps, const InterpWire &W,
             std::vector<typename Dir::Op> &Ops, unsigned Depth) {
  auto Push = [&Ops](typename Dir::Fn Fn, uint64_t A = 0, uint64_t B = 0,
                     uint64_t C = 0, uint64_t D = 0, uint64_t Covers = 0) {
    if (!Fn || !fit32(A) || !fit32(B) || !fit32(C) || !fit32(D) ||
        !fit32(Covers))
      return false;
    typename Dir::Op Op;
    Op.Fn = Fn;
    Op.A = static_cast<uint32_t>(A);
    Op.B = static_cast<uint32_t>(B);
    Op.C = static_cast<uint32_t>(C);
    Op.D = static_cast<uint32_t>(D);
    Op.Covers = static_cast<uint32_t>(Covers);
    Ops.push_back(Op);
    return true;
  };
  for (size_t I = 0; I != Steps.size();) {
    const Step &S = Steps[I];
    if (isFixed(S)) {
      uint64_t Total = 0;
      size_t J = I;
      for (; J != Steps.size() && isFixed(Steps[J]); ++J)
        Total += wireBytes(Steps[J]);
      if (Total && !Push(Dir::guard(), Total))
        return false;
      for (; I != J; ++I) {
        const Step &F = Steps[I];
        bool Ok;
        switch (F.Kind) {
        case Step::K::Put:
          Ok = Push(Dir::scalar(F.HostW, F.WireW, W.BigEndian), F.Off, 0, 0,
                    0, F.Covers);
          break;
        case Step::K::Memcpy:
          Ok = Push(Dir::copy(), F.Off, F.Bytes, 0, 0, F.Covers);
          break;
        default:
          Ok = Push(Dir::swap(F.Width), F.Off, F.Bytes / F.Width, 0, 0,
                    F.Covers);
          break;
        }
        if (!Ok)
          return false;
      }
      continue;
    }
    switch (S.Kind) {
    case Step::K::Align:
      if (!Push(Dir::align4()))
        return false;
      break;
    case Step::K::CString:
      if (!Push(Dir::cstring(W.BigEndian, W.XdrWidening), S.Off, 0, 0, 0,
                S.Covers))
        return false;
      break;
    case Step::K::CountedDense:
      if (!Push(Dir::countedDense(W.BigEndian, S.Width), S.Off, S.BufOff,
                S.Stride, 0, S.Covers))
        return false;
      break;
    case Step::K::LoopFixed:
    case Step::K::LoopCounted: {
      if (Depth + 1 > FLICK_SPEC_MAX_DEPTH)
        return false;
      bool Counted = S.Kind == Step::K::LoopCounted;
      size_t Head = Ops.size();
      if (!(Counted ? Push(Dir::loopCounted(W.BigEndian), S.Off, S.BufOff,
                           S.Stride, 0, S.Covers)
                    : Push(Dir::loopFixed(), S.Off, S.Count, S.Stride, 0,
                           S.Covers)))
        return false;
      size_t BodyStart = Ops.size();
      if (!emitOps<Dir>(S.Body, W, Ops, Depth + 1))
        return false;
      if (!Push(Dir::loopEnd(), 0, 0, 0, Ops.size() - BodyStart))
        return false;
      if (Counted) {
        // The counted head skips its body when the length is zero.
        uint64_t Skip = Ops.size() - Head;
        if (!fit32(Skip))
          return false;
        Ops[Head].D = static_cast<uint32_t>(Skip);
      }
      break;
    }
    default:
      return false;
    }
    ++I;
  }
  return true;
}

/// Runaway backstop: a real type program is a few dozen ops.
enum { FLICK_SPEC_MAX_OPS = 1 << 16 };

std::unique_ptr<flick_spec_program> compileProgram(const InterpType &T,
                                                   const InterpWire &W) {
  std::vector<Step> Steps;
  uint64_t Fused = 0;
  if (!lower(T, 0, W, Steps, Fused))
    return nullptr;
  fuse(Steps, W, Fused);
  auto P = std::make_unique<flick_spec_program>();
  if (!emitOps<EncodeDir>(Steps, W, P->Enc, 0) ||
      !emitOps<DecodeDir>(Steps, W, P->Dec, 0))
    return nullptr;
  P->Enc.push_back({flick_stencil_enc_end()});
  P->Dec.push_back({flick_stencil_dec_end()});
  if (P->Enc.size() > FLICK_SPEC_MAX_OPS ||
      P->Dec.size() > FLICK_SPEC_MAX_OPS)
    return nullptr;
  P->StepsFused = Fused;
  return P;
}

//===----------------------------------------------------------------------===//
// Structural key and program cache
//===----------------------------------------------------------------------===//

/// Appends \p T's key to \p Buf at \p Len: a kind tag byte, then the
/// kind's fields at fixed width (host byte order).  Struct fields are
/// preceded by their count and an element type by a presence byte, so the
/// encoding is prefix-free: two trees write the same bytes exactly when
/// they are structurally identical.  Buf only ever grows, so a reused
/// buffer writes a key without allocating once it is warm.
void keyNode(const InterpType &T, std::string &Buf, size_t &Len) {
  constexpr size_t MaxNodeBytes = 1 + 3 * sizeof(size_t) + 1;
  if (Buf.size() < Len + MaxNodeBytes)
    Buf.resize(2 * (Len + MaxNodeBytes));
  char *P = Buf.data() + Len;
  auto Put = [&P](auto V) {
    std::memcpy(P, &V, sizeof(V));
    P += sizeof(V);
  };
  Put(static_cast<uint8_t>(T.K));
  switch (T.K) {
  case InterpType::Kind::Scalar:
    Put(T.Offset);
    Put(T.Width);
    Put(static_cast<uint8_t>(T.IsFloat));
    break;
  case InterpType::Kind::Bytes:
    Put(T.Offset);
    Put(T.Count);
    break;
  case InterpType::Kind::CString:
    Put(T.Offset);
    break;
  case InterpType::Kind::Struct:
    Put(T.Fields.size());
    break;
  case InterpType::Kind::FixedArray:
    Put(T.Offset);
    Put(T.Count);
    Put(T.HostStride);
    Put(static_cast<uint8_t>(T.Elem != nullptr));
    break;
  case InterpType::Kind::Counted:
    Put(T.LenOffset);
    Put(T.BufOffset);
    Put(T.HostStride);
    Put(static_cast<uint8_t>(T.Elem != nullptr));
    break;
  }
  Len = static_cast<size_t>(P - Buf.data());
  if (T.K == InterpType::Kind::Struct) {
    for (const InterpType &F : T.Fields)
      keyNode(F, Buf, Len);
  } else if (T.Elem && (T.K == InterpType::Kind::FixedArray ||
                        T.K == InterpType::Kind::Counted)) {
    keyNode(*T.Elem, Buf, Len);
  }
}

/// Builds the structural key of (\p T, \p W) into \p Buf: one byte for
/// the wire convention, then the tree.  The returned view points into Buf.
std::string_view buildKey(const InterpType &T, const InterpWire &W,
                          std::string &Buf) {
  if (Buf.empty())
    Buf.resize(1);
  Buf[0] = static_cast<char>(W.BigEndian | (W.XdrWidening << 1));
  size_t Len = 1;
  keyNode(T, Buf, Len);
  return {Buf.data(), Len};
}

uint64_t fnv1a(std::string_view Key) {
  uint64_t H = 1469598103934665603ull; // FNV-1a 64
  for (char Ch : Key) {
    H ^= static_cast<uint8_t>(Ch);
    H *= 1099511628211ull;
  }
  return H;
}

/// Hashes stored std::string keys and std::string_view probes alike, so a
/// lookup never materializes a std::string.
struct KeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view Key) const {
    return std::hash<std::string_view>{}(Key);
  }
};

struct SpecCache {
  std::mutex Mu;
  std::unordered_map<std::string, std::unique_ptr<flick_spec_program>,
                     KeyHash, std::equal_to<>>
      Map;
};

SpecCache &cache() {
  static SpecCache C;
  return C;
}

} // namespace

std::string flick::flick_spec_structural_key(const InterpType &T,
                                             const InterpWire &W) {
  std::string Buf;
  return std::string(buildKey(T, W, Buf));
}

uint64_t flick::flick_spec_structural_hash(const InterpType &T,
                                           const InterpWire &W) {
  std::string Buf;
  return fnv1a(buildKey(T, W, Buf));
}

const flick_spec_program *flick::flick_specialize(const InterpType &T,
                                                  const InterpWire &W) {
  thread_local std::string Buf;
  std::string_view Key = buildKey(T, W, Buf);
  SpecCache &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  auto It = C.Map.find(Key);
  if (It != C.Map.end()) {
    flick_metric_add(&flick_metrics::spec_cache_hits, 1);
    return It->second.get(); // null for cached specialization refusals
  }
  auto T0 = std::chrono::steady_clock::now();
  std::unique_ptr<flick_spec_program> P = compileProgram(T, W);
  uint64_t Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  flick_metric_add(&flick_metrics::spec_compile_ns, Ns);
  if (P) {
    P->Hash = fnv1a(Key);
    flick_metric_add(&flick_metrics::spec_programs, 1);
    flick_metric_add(&flick_metrics::spec_steps_fused, P->StepsFused);
  }
  const flick_spec_program *Raw = P.get();
  C.Map.emplace(Key, std::move(P));
  return Raw;
}

size_t flick::flick_spec_cache_size() {
  SpecCache &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  return C.Map.size();
}

void flick::flick_spec_cache_clear() {
  SpecCache &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  C.Map.clear();
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

int flick::flick_spec_encode(flick_buf *Buf, const flick_spec_program *P,
                             const void *Val) {
  flick_spec_enc_ctx C;
  C.Buf = Buf;
  C.V = static_cast<const uint8_t *>(Val);
  size_t Len0 = Buf->len;
  for (const flick_spec_enc_op *Op = P->Enc.data(); Op;)
    Op = Op->Fn(Op, C);
  if (flick_metrics_active) {
    flick_metrics_active->bytes_copied += Buf->len - Len0;
    ++flick_metrics_active->copy_ops;
    flick_metrics_active->spec_dispatches_avoided +=
        C.Covers > C.Steps ? C.Covers - C.Steps : 0;
  }
  return C.Err;
}

int flick::flick_spec_decode(flick_buf *Buf, const flick_spec_program *P,
                             void *Val, flick_arena *Ar) {
  flick_spec_dec_ctx C;
  C.Buf = Buf;
  C.V = static_cast<uint8_t *>(Val);
  C.Ar = Ar;
  size_t Pos0 = Buf->pos;
  for (const flick_spec_dec_op *Op = P->Dec.data(); Op;)
    Op = Op->Fn(Op, C);
  if (flick_metrics_active) {
    flick_metrics_active->bytes_copied += Buf->pos - Pos0;
    ++flick_metrics_active->copy_ops;
    flick_metrics_active->spec_dispatches_avoided +=
        C.Covers > C.Steps ? C.Covers - C.Steps : 0;
  }
  return C.Err;
}
