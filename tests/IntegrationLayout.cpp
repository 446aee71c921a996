//===- tests/IntegrationLayout.cpp - one wire layout across optimizations -===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An optimization may change how bytes reach the wire, never which
/// bytes.  idl/nested.idl holds a fixed struct nested in another whose
/// host layout differs from its wire layout at an interior offset while
/// sizeof matches the wire stride.  The stubs built three ways -- default,
/// --no-memcpy (NM_) and --gather-min-bytes=1 (GM_) -- must encode the same
/// request bytes, and every dispatch must decode every encoding.  Host
/// values sit in 0xAA-filled storage, so a block copy of the host image
/// would put that padding on the wire.
///
//===----------------------------------------------------------------------===//

#include "ItHarness.h"
#include "it_layout.h"
#include "it_layout_gm.h"
#include "it_layout_nm.h"
#include <array>
#include <cstring>
#include <gtest/gtest.h>
#include <ostream>
#include <vector>

using namespace flick;

namespace {

/// The field values of one Elem, independent of the stub prefix.
struct Fields {
  int32_t A;
  uint8_t B, C, D, E, F;
  bool operator==(const Fields &O) const {
    return A == O.A && B == O.B && C == O.C && D == O.D && E == O.E &&
           F == O.F;
  }
};

void PrintTo(const Fields &F, std::ostream *OS) {
  *OS << "{a=" << F.A << " b=" << int(F.B) << " c=" << int(F.C)
      << " d=" << int(F.D) << " e=" << int(F.E) << " f=" << int(F.F) << "}";
}

template <typename ElemT> Fields fieldsOf(const ElemT &V) {
  return {V.s.a, V.s.b, V.c, V.d, V.e, V.f};
}

/// What one dispatch decoded: the sequence, the pair, the single struct.
std::vector<Fields> Got;

template <typename SeqT, typename ElemT>
void record(const SeqT *V, const ElemT *P, const ElemT *One) {
  Got.clear();
  for (uint32_t I = 0; I != V->_length; ++I)
    Got.push_back(fieldsOf(V->_buffer[I]));
  Got.push_back(fieldsOf(P[0]));
  Got.push_back(fieldsOf(P[1]));
  Got.push_back(fieldsOf(*One));
}

} // namespace

void Layout_put_server(const ElemSeq *v, const Elem *p, const Elem *one,
                       CORBA_Environment *) {
  record(v, p, one);
}
void NM_Layout_put_server(const NM_ElemSeq *v, const NM_Elem *p,
                          const NM_Elem *one, CORBA_Environment *) {
  record(v, p, one);
}
void GM_Layout_put_server(const GM_ElemSeq *v, const GM_Elem *p,
                          const GM_Elem *one, CORBA_Environment *) {
  record(v, p, one);
}

namespace {

constexpr size_t SeqLen = 3;

/// Distinct values per field and element: element I of the sequence, then
/// the pair, then the single struct.
Fields valueAt(size_t I) {
  auto N = static_cast<uint8_t>(I * 16);
  return {int32_t(0x01020304 + I), uint8_t(N + 2), uint8_t(N + 3),
          uint8_t(N + 4), uint8_t(N + 5), uint8_t(N + 6)};
}

std::vector<Fields> expected() {
  std::vector<Fields> Want;
  for (size_t I = 0; I != SeqLen + 3; ++I)
    Want.push_back(valueAt(I));
  return Want;
}

/// Fills \p V over 0xAA-filled storage, so every host padding byte is 0xAA.
template <typename ElemT> void fill(ElemT &V, size_t I) {
  std::memset(&V, 0xAA, sizeof V);
  Fields F = valueAt(I);
  V.s.a = F.A;
  V.s.b = F.B;
  V.c = F.C;
  V.d = F.D;
  V.e = F.E;
  V.f = F.F;
}

/// The request one stub set encodes for the probe values, flattened as a
/// transport would send it (borrowed segments spliced in).  The buffer
/// starts zeroed: element strides pad past the last member, and the pad
/// bytes are whatever the buffer held.
template <typename SeqT, typename ElemT, typename EncFn>
std::vector<uint8_t> encodeWith(EncFn Encode) {
  std::array<ElemT, SeqLen> Buf;
  ElemT Pair[2], One;
  for (size_t I = 0; I != SeqLen; ++I)
    fill(Buf[I], I);
  fill(Pair[0], SeqLen);
  fill(Pair[1], SeqLen + 1);
  fill(One, SeqLen + 2);
  SeqT Seq;
  std::memset(&Seq, 0, sizeof Seq);
  Seq._length = Seq._maximum = SeqLen;
  Seq._buffer = Buf.data();

  flick_buf B;
  flick_buf_init(&B);
  EXPECT_EQ(flick_buf_ensure(&B, 4096), FLICK_OK);
  std::memset(B.data, 0, B.cap);
  EXPECT_EQ(Encode(&B, 9, &Seq, Pair, &One), FLICK_OK);
  flick_iov Iov[2 * FLICK_BUF_MAX_REFS + 1];
  size_t N = flick_buf_iovec(&B, Iov);
  std::vector<uint8_t> Out;
  for (size_t I = 0; I != N; ++I)
    Out.insert(Out.end(), Iov[I].base, Iov[I].base + Iov[I].len);
  flick_buf_destroy(&B);
  return Out;
}

std::vector<std::vector<uint8_t>> allEncodings() {
  return {encodeWith<ElemSeq, Elem>(Layout_put_encode_request),
          encodeWith<NM_ElemSeq, NM_Elem>(NM_Layout_put_encode_request),
          encodeWith<GM_ElemSeq, GM_Elem>(GM_Layout_put_encode_request)};
}

TEST(LayoutProbe, MemcpyNoMemcpyAndGatherEncodeIdentically) {
  std::vector<std::vector<uint8_t>> Enc = allEncodings();
  EXPECT_EQ(Enc[0], Enc[1]) << "block copy changed the wire bytes";
  EXPECT_EQ(Enc[2], Enc[1]) << "gather changed the wire bytes";
  // The first sequence element starts after the 48-byte header and the
  // 8-byte length chunk; `c` follows `b` with no Inner tail padding.
  ASSERT_GE(Enc[1].size(), 56u + 9u);
  const uint8_t Want[9] = {0x04, 0x03, 0x02, 0x01, 0x02,
                           0x03, 0x04, 0x05, 0x06};
  EXPECT_EQ(std::memcmp(Enc[1].data() + 56, Want, sizeof Want), 0);
}

TEST(LayoutProbe, EachDispatchDecodesEveryEncoding) {
  const flick_dispatch_fn Dispatch[] = {Layout_dispatch, NM_Layout_dispatch,
                                        GM_Layout_dispatch};
  std::vector<std::vector<uint8_t>> Enc = allEncodings();
  for (size_t D = 0; D != 3; ++D) {
    ItRig Rig(Dispatch[D]);
    for (size_t E = 0; E != Enc.size(); ++E) {
      flick_buf Req, Rep;
      flick_buf_init(&Req);
      flick_buf_init(&Rep);
      ASSERT_EQ(flick_buf_ensure(&Req, Enc[E].size()), FLICK_OK);
      std::memcpy(flick_buf_grab(&Req, Enc[E].size()), Enc[E].data(),
                  Enc[E].size());
      Got.clear();
      EXPECT_EQ(Dispatch[D](Rig.server(), &Req, &Rep), FLICK_OK);
      EXPECT_EQ(Got, expected())
          << "dispatch " << D << " decoding encoder " << E;
      flick_buf_destroy(&Req);
      flick_buf_destroy(&Rep);
    }
  }
}

} // namespace
