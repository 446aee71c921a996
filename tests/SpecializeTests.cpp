//===- tests/SpecializeTests.cpp - runtime specializer tests --------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sidekick contract for the runtime specializer: specialized
/// programs must produce byte-identical wire output to the interpreter
/// across the fig3 presentation types (ints, rects, counted sequences,
/// cstrings, nested structs) on both wire conventions, decode exactly
/// what the interpreter decodes, fail cleanly on truncation, and share
/// one compiled program per structural key -- and only per structural
/// key, including under concurrent first use.  (Equivalence against the
/// compiled stubs is asserted in the integration binary, which owns
/// generated headers.)
///
//===----------------------------------------------------------------------===//

#include "runtime/Specialize.h"
#include <atomic>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

using namespace flick;

namespace {

constexpr InterpWire Xdr{true, true};
constexpr InterpWire CdrLE{false, false};

std::vector<uint8_t> bufBytes(const flick_buf *B) {
  return std::vector<uint8_t>(B->data, B->data + B->len);
}

/// Encodes \p Val through the interpreter and through a specialized
/// program and asserts the wire bytes match; returns the wire image.
std::vector<uint8_t> encodeBothWays(const InterpType &T, const void *Val,
                                    const InterpWire &W) {
  flick_buf IB, SB;
  flick_buf_init(&IB);
  flick_buf_init(&SB);
  EXPECT_EQ(flick_interp_encode(&IB, T, Val, W), FLICK_OK);
  const flick_spec_program *P = flick_specialize(T, W);
  EXPECT_NE(P, nullptr);
  if (P)
    EXPECT_EQ(flick_spec_encode(&SB, P, Val), FLICK_OK);
  std::vector<uint8_t> Interp = bufBytes(&IB), Spec = bufBytes(&SB);
  EXPECT_EQ(Interp, Spec);
  flick_buf_destroy(&IB);
  flick_buf_destroy(&SB);
  return Interp;
}

/// Decodes \p Wire through a specialized program into \p Out, then
/// re-encodes Out through the interpreter and asserts the bytes survive
/// the round trip -- a full-fidelity check that works for pointer-bearing
/// presentations too.
void decodeAndReencode(const InterpType &T, const InterpWire &W,
                       const std::vector<uint8_t> &Wire, void *Out,
                       flick_arena *Ar) {
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_buf_ensure(&B, Wire.size()), FLICK_OK);
  std::memcpy(flick_buf_grab(&B, Wire.size()), Wire.data(), Wire.size());
  const flick_spec_program *P = flick_specialize(T, W);
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(flick_spec_decode(&B, P, Out, Ar), FLICK_OK);
  EXPECT_EQ(B.pos, B.len) << "specialized decode must consume everything";
  flick_buf Re;
  flick_buf_init(&Re);
  ASSERT_EQ(flick_interp_encode(&Re, T, Out, W), FLICK_OK);
  EXPECT_EQ(bufBytes(&Re), Wire);
  flick_buf_destroy(&Re);
  flick_buf_destroy(&B);
}

/// Truncating a valid message anywhere must produce a clean decode error.
void expectTruncationSafe(const InterpType &T, const InterpWire &W,
                          const std::vector<uint8_t> &Wire, void *Out,
                          size_t OutSize) {
  const flick_spec_program *P = flick_specialize(T, W);
  ASSERT_NE(P, nullptr);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    flick_buf B;
    flick_buf_init(&B);
    ASSERT_EQ(flick_buf_ensure(&B, Cut ? Cut : 1), FLICK_OK);
    std::memcpy(flick_buf_grab(&B, Cut), Wire.data(), Cut);
    flick_arena Ar{};
    std::memset(Out, 0, OutSize);
    EXPECT_NE(flick_spec_decode(&B, P, Out, &Ar), FLICK_OK)
        << "cut at " << Cut;
    flick_arena_destroy(&Ar);
    flick_buf_destroy(&B);
  }
}

//===----------------------------------------------------------------------===//
// Presentation types (mirroring bench.idl's fig3 workloads)
//===----------------------------------------------------------------------===//

struct TScalars {
  int32_t I;
  double D;
  uint8_t B;
  int64_t LL;
  uint16_t H;
};

const InterpType ScalarsTy = InterpType::structOf({
    InterpType::scalar(offsetof(TScalars, I), 4),
    InterpType::scalar(offsetof(TScalars, D), 8, true),
    InterpType::scalar(offsetof(TScalars, B), 1),
    InterpType::scalar(offsetof(TScalars, LL), 8),
    InterpType::scalar(offsetof(TScalars, H), 2),
});

struct TRect {
  int32_t X, Y, W, H;
};

const InterpType RectTy = InterpType::structOf({
    InterpType::scalar(offsetof(TRect, X), 4),
    InterpType::scalar(offsetof(TRect, Y), 4),
    InterpType::scalar(offsetof(TRect, W), 4),
    InterpType::scalar(offsetof(TRect, H), 4),
});

struct TRectSeq {
  uint32_t Len;
  TRect *Val;
};

const InterpType RectSeqTy =
    InterpType::counted(offsetof(TRectSeq, Len), offsetof(TRectSeq, Val),
                        &RectTy, sizeof(TRect));

struct TIntSeq {
  uint32_t Len;
  int32_t *Val;
};

const InterpType IntElem = InterpType::scalar(0, 4);
const InterpType IntSeqTy =
    InterpType::counted(offsetof(TIntSeq, Len), offsetof(TIntSeq, Val),
                        &IntElem, sizeof(int32_t));

struct TInfo {
  uint32_t Words[8];
  uint8_t Tag[16];
};

struct TDirent {
  char *Name;
  TInfo Info;
};

struct TDirentSeq {
  uint32_t Len;
  TDirent *Val;
};

const InterpType DirentTy = InterpType::structOf({
    InterpType::cstring(offsetof(TDirent, Name)),
    InterpType::fixedArray(offsetof(TDirent, Info.Words), &IntElem, 8, 4),
    InterpType::bytes(offsetof(TDirent, Info.Tag), 16),
});

const InterpType DirentSeqTy =
    InterpType::counted(offsetof(TDirentSeq, Len),
                        offsetof(TDirentSeq, Val), &DirentTy,
                        sizeof(TDirent));

//===----------------------------------------------------------------------===//
// Golden-bytes equivalence matrix
//===----------------------------------------------------------------------===//

class SpecWireTest : public ::testing::TestWithParam<bool> {
protected:
  InterpWire wire() const { return GetParam() ? Xdr : CdrLE; }
};

TEST_P(SpecWireTest, ScalarStructMatchesAndRoundTrips) {
  TScalars In{-77, 2.5, 200, -5000000000LL, 40000};
  std::vector<uint8_t> Wire = encodeBothWays(ScalarsTy, &In, wire());
  TScalars Out{};
  decodeAndReencode(ScalarsTy, wire(), Wire, &Out, nullptr);
  EXPECT_EQ(Out.I, In.I);
  EXPECT_EQ(Out.D, In.D);
  EXPECT_EQ(Out.B, In.B);
  EXPECT_EQ(Out.LL, In.LL);
  EXPECT_EQ(Out.H, In.H);
}

TEST_P(SpecWireTest, RectMatches) {
  TRect R{-1, 2, 300000, INT32_MIN};
  std::vector<uint8_t> Wire = encodeBothWays(RectTy, &R, wire());
  TRect Out{};
  decodeAndReencode(RectTy, wire(), Wire, &Out, nullptr);
  EXPECT_EQ(std::memcmp(&Out, &R, sizeof(R)), 0);
}

TEST_P(SpecWireTest, IntSequenceMatchesAcrossSizes) {
  for (uint32_t N : {0u, 1u, 3u, 64u, 1000u}) {
    std::vector<int32_t> Ints(N);
    for (uint32_t I = 0; I != N; ++I)
      Ints[I] = static_cast<int32_t>(I * 2654435761u);
    TIntSeq S{N, Ints.data()};
    std::vector<uint8_t> Wire = encodeBothWays(IntSeqTy, &S, wire());
    TIntSeq Out{};
    flick_arena Ar{};
    decodeAndReencode(IntSeqTy, wire(), Wire, &Out, &Ar);
    ASSERT_EQ(Out.Len, N);
    if (N)
      EXPECT_EQ(std::memcmp(Out.Val, Ints.data(), N * 4), 0);
    flick_arena_destroy(&Ar);
  }
}

TEST_P(SpecWireTest, RectSequenceMatches) {
  std::vector<TRect> Rects(37);
  for (size_t I = 0; I != Rects.size(); ++I)
    Rects[I] = {int32_t(I), int32_t(-2 * I), int32_t(I * I), 7};
  TRectSeq S{uint32_t(Rects.size()), Rects.data()};
  std::vector<uint8_t> Wire = encodeBothWays(RectSeqTy, &S, wire());
  TRectSeq Out{};
  flick_arena Ar{};
  decodeAndReencode(RectSeqTy, wire(), Wire, &Out, &Ar);
  ASSERT_EQ(Out.Len, Rects.size());
  EXPECT_EQ(std::memcmp(Out.Val, Rects.data(),
                        Rects.size() * sizeof(TRect)),
            0);
  flick_arena_destroy(&Ar);
}

TEST_P(SpecWireTest, DirentsWithStringsMatch) {
  char N0[] = "some-file", N1[] = "", N2[] = "abc"; // forces XDR padding
  TDirent D[3]{};
  D[0].Name = N0;
  D[1].Name = N1;
  D[2].Name = N2;
  for (int I = 0; I != 8; ++I) {
    D[0].Info.Words[I] = 1000 + I;
    D[2].Info.Words[I] = 0xDEADBEEF;
  }
  std::memcpy(D[0].Info.Tag, "0123456789abcdef", 16);
  TDirentSeq S{3, D};
  std::vector<uint8_t> Wire = encodeBothWays(DirentSeqTy, &S, wire());
  TDirentSeq Out{};
  flick_arena Ar{};
  decodeAndReencode(DirentSeqTy, wire(), Wire, &Out, &Ar);
  ASSERT_EQ(Out.Len, 3u);
  EXPECT_STREQ(Out.Val[0].Name, N0);
  EXPECT_STREQ(Out.Val[1].Name, N1);
  EXPECT_STREQ(Out.Val[2].Name, N2);
  EXPECT_EQ(std::memcmp(&Out.Val[0].Info, &D[0].Info, sizeof(TInfo)), 0);
  flick_arena_destroy(&Ar);
}

TEST_P(SpecWireTest, TruncationIsRejectedEverywhere) {
  char N0[] = "victim";
  TDirent D[2]{};
  D[0].Name = N0;
  D[1].Name = N0;
  TDirentSeq S{2, D};
  std::vector<uint8_t> Wire = encodeBothWays(DirentSeqTy, &S, wire());
  TDirentSeq Out{};
  expectTruncationSafe(DirentSeqTy, wire(), Wire, &Out, sizeof(Out));
}

INSTANTIATE_TEST_SUITE_P(Wires, SpecWireTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Xdr" : "CdrLE";
                         });

//===----------------------------------------------------------------------===//
// Specialize-flagged entry points
//===----------------------------------------------------------------------===//

TEST(SpecEntryPoints, SpecializeFlagProducesIdenticalBytes) {
  std::vector<int32_t> Ints(128, 42);
  TIntSeq S{128, Ints.data()};
  flick_buf Plain, Spec;
  flick_buf_init(&Plain);
  flick_buf_init(&Spec);
  ASSERT_EQ(flick_interp_encode(&Plain, IntSeqTy, &S, Xdr, false),
            FLICK_OK);
  ASSERT_EQ(flick_interp_encode(&Spec, IntSeqTy, &S, Xdr, true), FLICK_OK);
  EXPECT_EQ(bufBytes(&Plain), bufBytes(&Spec));
  TIntSeq Out{};
  flick_arena Ar{};
  ASSERT_EQ(flick_interp_decode(&Spec, IntSeqTy, &Out, Xdr, &Ar, true),
            FLICK_OK);
  ASSERT_EQ(Out.Len, 128u);
  EXPECT_EQ(std::memcmp(Out.Val, Ints.data(), 128 * 4), 0);
  flick_arena_destroy(&Ar);
  flick_buf_destroy(&Plain);
  flick_buf_destroy(&Spec);
}

TEST(SpecEntryPoints, UnspecializableTypeFallsBackTransparently) {
  // Width 3 has no stencil: flick_specialize must refuse (and cache the
  // refusal), while the specialize=true entry still encodes correctly.
  const InterpType OddTy = InterpType::scalar(0, 3);
  EXPECT_EQ(flick_specialize(OddTy, Xdr), nullptr);
  EXPECT_EQ(flick_specialize(OddTy, Xdr), nullptr); // cached refusal
  uint8_t V[4] = {1, 2, 3, 0};
  flick_buf Plain, Spec;
  flick_buf_init(&Plain);
  flick_buf_init(&Spec);
  ASSERT_EQ(flick_interp_encode(&Plain, OddTy, V, Xdr, false), FLICK_OK);
  ASSERT_EQ(flick_interp_encode(&Spec, OddTy, V, Xdr, true), FLICK_OK);
  EXPECT_EQ(bufBytes(&Plain), bufBytes(&Spec));
  flick_buf_destroy(&Plain);
  flick_buf_destroy(&Spec);
}

//===----------------------------------------------------------------------===//
// Program cache and structural hashing
//===----------------------------------------------------------------------===//

TEST(SpecCache, StructurallyIdenticalTreesShareOneProgram) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  // Two independently built but structurally identical trees.
  const InterpType ElemA = InterpType::scalar(0, 4);
  const InterpType TreeA = InterpType::counted(0, 8, &ElemA, 4);
  const InterpType ElemB = InterpType::scalar(0, 4);
  const InterpType TreeB = InterpType::counted(0, 8, &ElemB, 4);
  EXPECT_EQ(flick_spec_structural_key(TreeA, Xdr),
            flick_spec_structural_key(TreeB, Xdr));
  EXPECT_EQ(flick_spec_structural_hash(TreeA, Xdr),
            flick_spec_structural_hash(TreeB, Xdr));
  const flick_spec_program *PA = flick_specialize(TreeA, Xdr);
  const flick_spec_program *PB = flick_specialize(TreeB, Xdr);
  ASSERT_NE(PA, nullptr);
  EXPECT_EQ(PA, PB) << "same structural hash must mean one compile";
  EXPECT_EQ(M.spec_programs, 1u);
  EXPECT_EQ(M.spec_cache_hits, 1u);
  EXPECT_GT(M.spec_compile_ns, 0u);
  flick_metrics_disable();
}

TEST(SpecCache, DistinctTreesAndWiresCompileSeparately) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  const InterpType Elem = InterpType::scalar(0, 4);
  const InterpType TreeA = InterpType::counted(0, 8, &Elem, 4);
  const InterpType TreeB = InterpType::counted(0, 8, &Elem, 8); // stride!
  EXPECT_NE(flick_spec_structural_hash(TreeA, Xdr),
            flick_spec_structural_hash(TreeB, Xdr));
  const flick_spec_program *PA = flick_specialize(TreeA, Xdr);
  const flick_spec_program *PB = flick_specialize(TreeB, Xdr);
  const flick_spec_program *PC = flick_specialize(TreeA, CdrLE);
  ASSERT_NE(PA, nullptr);
  ASSERT_NE(PB, nullptr);
  ASSERT_NE(PC, nullptr);
  EXPECT_NE(PA, PB);
  EXPECT_NE(PA, PC) << "wire convention is part of the cache key";
  EXPECT_EQ(M.spec_programs, 3u);
  EXPECT_EQ(M.spec_cache_hits, 0u);
  EXPECT_EQ(flick_spec_cache_size(), 3u);
  flick_metrics_disable();
}

/// One host value every key-distinctness variant below can read: scalar,
/// byte and fixed-array variants use offsets from 24 up; counted variants
/// read a length at 0 or 4 and an element pointer at 8 or 16.
struct TBlob {
  uint32_t Len0, Len4;
  const int32_t *Buf8, *Buf16;
  uint8_t Raw[40];
};

const InterpType Int4 = InterpType::scalar(0, 4);

struct KeyPair {
  const char *What;
  InterpType A, B;
};

/// Tree pairs that differ in exactly one field.
std::vector<KeyPair> keyPairs() {
  auto S = [](size_t Off) { return InterpType::scalar(Off, 4); };
  using IT = InterpType;
  return {
      {"scalar offset", S(24), S(28)},
      {"scalar width", IT::scalar(24, 4), IT::scalar(24, 8)},
      {"scalar IsFloat", IT::scalar(24, 4), IT::scalar(24, 4, true)},
      {"bytes count", IT::bytes(24, 8), IT::bytes(24, 12)},
      {"fixed-array count", IT::fixedArray(24, &Int4, 4, 4),
       IT::fixedArray(24, &Int4, 5, 4)},
      {"fixed-array stride", IT::fixedArray(24, &Int4, 4, 4),
       IT::fixedArray(24, &Int4, 4, 8)},
      {"counted len offset", IT::counted(0, 8, &Int4, 4),
       IT::counted(4, 8, &Int4, 4)},
      {"counted buf offset", IT::counted(0, 8, &Int4, 4),
       IT::counted(0, 16, &Int4, 4)},
      {"counted stride", IT::counted(0, 8, &Int4, 4),
       IT::counted(0, 8, &Int4, 8)},
      {"null vs non-null Elem",
       IT::structOf({S(24), IT::fixedArray(28, nullptr, 0, 4)}),
       IT::structOf({S(24), IT::fixedArray(28, &Int4, 0, 4)})},
      {"struct field count", IT::structOf({S(24), S(28)}),
       IT::structOf({S(24), S(28), S(32)})},
      {"nested vs flattened",
       IT::structOf({IT::structOf({S(24), S(28)}), S(32)}),
       IT::structOf({S(24), S(28), S(32)})},
      {"struct nesting boundary",
       IT::structOf({IT::structOf({S(24)}), S(28)}),
       IT::structOf({IT::structOf({S(24), S(28)})})},
  };
}

/// Asserts that every path through the specializer -- the program handle
/// when \p T specializes, and the Specialize-flagged entry points either
/// way -- produces the interpreter's bytes for \p Val.
void expectSpecMatchesInterp(const InterpType &T, const InterpWire &W,
                             const void *Val) {
  flick_buf IB, FB;
  flick_buf_init(&IB);
  flick_buf_init(&FB);
  ASSERT_EQ(flick_interp_encode(&IB, T, Val, W), FLICK_OK);
  ASSERT_EQ(flick_interp_encode(&FB, T, Val, W, true), FLICK_OK);
  std::vector<uint8_t> Wire = bufBytes(&IB);
  EXPECT_EQ(bufBytes(&FB), Wire);
  if (flick_specialize(T, W)) {
    encodeBothWays(T, Val, W);
    TBlob Out{};
    flick_arena Ar{};
    decodeAndReencode(T, W, Wire, &Out, &Ar);
    flick_arena_destroy(&Ar);
  }
  flick_buf_destroy(&IB);
  flick_buf_destroy(&FB);
}

TEST(SpecCache, TreesDifferingInOneFieldGetDistinctKeysAndPrograms) {
  flick_spec_cache_clear();
  const int32_t Elems[6] = {1, -2, 3, -4, 5, -6};
  TBlob Val{3, 3, Elems, Elems, {}};
  for (size_t I = 0; I != sizeof(Val.Raw); ++I)
    Val.Raw[I] = static_cast<uint8_t>(0x11 * I + 7);
  for (const KeyPair &KP : keyPairs()) {
    for (const InterpWire &W : {Xdr, CdrLE}) {
      SCOPED_TRACE(std::string(KP.What) +
                   (W.XdrWidening ? " (XDR)" : " (CDR-LE)"));
      EXPECT_NE(flick_spec_structural_key(KP.A, W),
                flick_spec_structural_key(KP.B, W));
      EXPECT_NE(flick_spec_structural_hash(KP.A, W),
                flick_spec_structural_hash(KP.B, W));
      EXPECT_NE(flick_specialize(KP.A, W), flick_specialize(KP.B, W));
      expectSpecMatchesInterp(KP.A, W, &Val);
      expectSpecMatchesInterp(KP.B, W, &Val);
    }
  }
  // Without a presence byte these two would write the same bytes: a null
  // element followed by a sibling array must not read as that sibling
  // nested as the element.  Both are refusals, so only keys can differ.
  const InterpType Inner = InterpType::fixedArray(28, nullptr, 0, 4);
  const InterpType NullThenSibling = InterpType::structOf(
      {InterpType::fixedArray(24, nullptr, 0, 4),
       InterpType::fixedArray(28, &Int4, 0, 4)});
  const InterpType NestedSibling = InterpType::structOf(
      {InterpType::fixedArray(24, &Inner, 0, 4), Int4});
  EXPECT_NE(flick_spec_structural_key(NullThenSibling, Xdr),
            flick_spec_structural_key(NestedSibling, Xdr));
}

TEST(SpecCache, ClearedCacheRecompilesOnNextLookup) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  ASSERT_NE(flick_specialize(RectSeqTy, Xdr), nullptr);
  ASSERT_NE(flick_specialize(RectSeqTy, Xdr), nullptr);
  EXPECT_EQ(M.spec_programs, 1u);
  EXPECT_EQ(M.spec_cache_hits, 1u);
  flick_spec_cache_clear();
  EXPECT_EQ(flick_spec_cache_size(), 0u);
  ASSERT_NE(flick_specialize(RectSeqTy, Xdr), nullptr);
  EXPECT_EQ(M.spec_programs, 2u) << "a cleared cache must not serve hits";
  EXPECT_EQ(M.spec_cache_hits, 1u);
  EXPECT_EQ(flick_spec_cache_size(), 1u);
  flick_metrics_disable();
  std::vector<TRect> Rects(3, TRect{5, -6, 7, -8});
  TRectSeq S{uint32_t(Rects.size()), Rects.data()};
  encodeBothWays(RectSeqTy, &S, Xdr);
}

TEST(SpecCache, ConcurrentLookupAndCompile) {
  TScalars Scalars{-77, 2.5, 200, -5000000000LL, 40000};
  TRect Rect{-1, 2, 300000, INT32_MIN};
  std::vector<TRect> Rects(9, Rect);
  TRectSeq RectSeq{uint32_t(Rects.size()), Rects.data()};
  std::vector<int32_t> Ints(100, -3);
  TIntSeq IntSeq{uint32_t(Ints.size()), Ints.data()};
  char Name[] = "concurrent";
  TDirent Dirents[2]{};
  Dirents[0].Name = Name;
  Dirents[1].Name = Name;
  Dirents[1].Info.Words[3] = 0xDEADBEEF;
  TDirentSeq DirentSeq{2, Dirents};
  struct Job {
    const InterpType &T;
    InterpWire W;
    const void *Val;
    std::vector<uint8_t> Want;
  };
  std::vector<Job> Jobs = {
      {ScalarsTy, Xdr, &Scalars, {}},
      {RectTy, CdrLE, &Rect, {}},
      {RectSeqTy, Xdr, &RectSeq, {}},
      {IntSeqTy, CdrLE, &IntSeq, {}},
      {DirentSeqTy, Xdr, &DirentSeq, {}},
      {DirentTy, CdrLE, &Dirents[1], {}},
  };
  for (Job &J : Jobs) {
    flick_buf B;
    flick_buf_init(&B);
    ASSERT_EQ(flick_interp_encode(&B, J.T, J.Val, J.W), FLICK_OK);
    J.Want = bufBytes(&B);
    flick_buf_destroy(&B);
  }

  flick_spec_cache_clear();
  constexpr unsigned Threads = 4, Rounds = 200;
  std::atomic<unsigned> Ready{0}, Mismatches{0};
  std::atomic<uint64_t> Programs{0}, Hits{0};
  std::vector<std::thread> Pool;
  for (unsigned Tid = 0; Tid != Threads; ++Tid)
    Pool.emplace_back([&, Tid] {
      flick_metrics M;
      flick_metrics_enable(&M);
      // Start together, two threads per starting type, so first use of
      // one type races between threads, compiles of different types race
      // each other, and hits race with programs just inserted.
      ++Ready;
      while (Ready.load() != Threads) {
      }
      for (unsigned R = 0; R != Rounds; ++R)
        for (size_t I = 0; I != Jobs.size(); ++I) {
          const Job &J = Jobs[(I + Tid / 2 * 3) % Jobs.size()];
          flick_buf B, Re;
          flick_buf_init(&B);
          flick_buf_init(&Re);
          union {
            TScalars S;
            TRect R;
            TRectSeq RS;
            TIntSeq IS;
            TDirentSeq DS;
            TDirent D;
          } Out{};
          flick_arena Ar{};
          bool Ok =
              flick_interp_encode(&B, J.T, J.Val, J.W, true) == FLICK_OK &&
              bufBytes(&B) == J.Want &&
              flick_interp_decode(&B, J.T, &Out, J.W, &Ar, true) ==
                  FLICK_OK &&
              B.pos == B.len &&
              flick_interp_encode(&Re, J.T, &Out, J.W) == FLICK_OK &&
              bufBytes(&Re) == J.Want;
          Mismatches += !Ok;
          flick_arena_destroy(&Ar);
          flick_buf_destroy(&Re);
          flick_buf_destroy(&B);
        }
      Programs += M.spec_programs;
      Hits += M.spec_cache_hits;
      flick_metrics_disable();
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(flick_spec_cache_size(), Jobs.size());
  EXPECT_EQ(Programs.load(), Jobs.size()) << "each type compiles once";
  EXPECT_EQ(Programs.load() + Hits.load(),
            uint64_t(Threads) * Rounds * Jobs.size() * 2);
}

//===----------------------------------------------------------------------===//
// Counters: dispatch avoidance and per-call copy accounting
//===----------------------------------------------------------------------===//

TEST(SpecCounters, DispatchAvoidanceIsMeasured) {
  std::vector<int32_t> Ints(1000, 7);
  TIntSeq S{1000, Ints.data()};
  flick_metrics M;
  flick_metrics_enable(&M);
  flick_buf B;
  flick_buf_init(&B);
  ASSERT_EQ(flick_interp_encode(&B, IntSeqTy, &S, Xdr, false), FLICK_OK);
  uint64_t InterpDispatches = M.interp_dispatches;
  EXPECT_EQ(InterpDispatches, 1001u); // the counted node + 1000 elements
  flick_buf_reset(&B);
  ASSERT_EQ(flick_interp_encode(&B, IntSeqTy, &S, Xdr, true), FLICK_OK);
  EXPECT_EQ(M.interp_dispatches, InterpDispatches)
      << "the specialized path must not run interpreter dispatches";
  // The whole sequence runs in O(1) kernels, so nearly every one of the
  // 1001 interpreter dispatches is avoided.
  EXPECT_GE(M.spec_dispatches_avoided, 990u);
  flick_buf_destroy(&B);
  flick_metrics_disable();
}

TEST(SpecCounters, CopyAccountingIsPerCallInBothModes) {
  std::vector<int32_t> Ints(256, 3);
  TIntSeq S{256, Ints.data()};
  for (bool Specialize : {false, true}) {
    flick_metrics M;
    flick_metrics_enable(&M);
    flick_buf B;
    flick_buf_init(&B);
    ASSERT_EQ(flick_interp_encode(&B, IntSeqTy, &S, Xdr, Specialize),
              FLICK_OK);
    EXPECT_EQ(M.copy_ops, 1u) << "one bulk copy per encode call";
    EXPECT_EQ(M.bytes_copied, B.len);
    flick_buf_destroy(&B);
    flick_metrics_disable();
  }
}

TEST(SpecCounters, StepsFusedAreReported) {
  flick_spec_cache_clear();
  flick_metrics M;
  flick_metrics_enable(&M);
  // Four adjacent u32 fields fuse into one run (3 merges), and the
  // sequence collapses to a single counted-dense kernel.
  const flick_spec_program *P = flick_specialize(RectSeqTy, CdrLE);
  ASSERT_NE(P, nullptr);
  EXPECT_GE(P->StepsFused, 3u);
  EXPECT_EQ(M.spec_steps_fused, P->StepsFused);
  EXPECT_NE(P->Hash, 0u);
  flick_metrics_disable();
}

} // namespace
