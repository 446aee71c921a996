//===- backends/IiopBackend.cpp - CORBA IIOP / GIOP message framing ------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "backends/Backend.h"
#include "support/StringExtras.h"
#include <cassert>

using namespace flick;

//===----------------------------------------------------------------------===//
// CORBA IIOP (GIOP 1.0 over little-endian CDR)
//===----------------------------------------------------------------------===//

namespace {

/// "GIOP" as the little-endian word the demux compares against.
constexpr uint32_t GiopMagicLE = 0x504F4947u;

/// The operation name as it travels: length-counted including the NUL,
/// padded to a word boundary with NULs.
std::string paddedOpName(const std::string &Name) {
  std::string Bytes = Name;
  Bytes.push_back('\0');
  while (Bytes.size() % 4 != 0)
    Bytes.push_back('\0');
  return Bytes;
}

std::vector<uint32_t> opNameWords(const std::string &Name) {
  std::string Bytes = paddedOpName(Name);
  std::vector<uint32_t> Words;
  for (size_t I = 0; I < Bytes.size(); I += 4) {
    uint32_t W = static_cast<uint8_t>(Bytes[I]) |
                 static_cast<uint32_t>(static_cast<uint8_t>(Bytes[I + 1]))
                     << 8 |
                 static_cast<uint32_t>(static_cast<uint8_t>(Bytes[I + 2]))
                     << 16 |
                 static_cast<uint32_t>(static_cast<uint8_t>(Bytes[I + 3]))
                     << 24;
    Words.push_back(W);
  }
  return Words;
}

/// Emits the 12-byte GIOP header into an open chunk.
void putGiopHeader(StubGen &G, uint8_t MsgType) {
  CastBuilder &B = G.builder();
  G.putBytes("GIOP");
  G.putU8(B.num(1)); // version 1
  G.putU8(B.num(0)); // .0
  G.putU8(B.num(1)); // flags: little-endian
  G.putU8(B.num(MsgType));
  G.putU32(B.num(0)); // message size, patched afterwards
}

/// Patches the GIOP message-size field recorded by markPosition().  With
/// the gather pass armed the body length is the *logical* length
/// (flick_buf_total: owned + borrowed bytes); without it the historical
/// `len` expression is kept so default output stays byte-identical.
void patchGiopSize(StubGen &G) {
  CastBuilder &B = G.builder();
  CastExpr *Base = B.add(B.arrow(G.bufExpr(), "data"),
                         B.add(B.id(G.lastMark()), B.num(8)));
  CastExpr *Len = G.options().GatherMinBytes > 0
                      ? B.call("flick_buf_total", {G.bufExpr()})
                      : B.arrow(G.bufExpr(), "len");
  CastExpr *Size = B.castTo(
      B.prim("uint32_t"),
      B.sub(B.sub(Len, B.id(G.lastMark())), B.num(12)));
  G.stmt(B.exprStmt(B.call("flick_enc_u32le", {Base, Size})));
}

} // namespace

void IiopBackend::emitRequestHeader(StubGen &G, const PresCInterface &If,
                                    const PresCOperation &Op) {
  CastBuilder &B = G.builder();
  G.markPosition();
  std::string Name = paddedOpName(Op.IdlName);
  // GIOP header + request header; the operation name is a compile-time
  // constant, so the whole thing is one fixed chunk.
  uint64_t Bytes = 12 + 4 /*svc ctx*/ + 4 /*request id*/ +
                   4 /*response_expected*/ + 4 /*key len*/ + 4 /*key*/ +
                   4 /*name len*/ + Name.size() + 4 /*principal len*/;
  G.openChunk((Bytes + 7) / 8 * 8);
  putGiopHeader(G, /*MsgType=*/0);
  G.putU32(B.num(0));                       // service context count
  G.putU32(B.id("_xid"));                   // request id
  G.putU32(B.num(Op.Oneway ? 0 : 1));       // response_expected (widened)
  G.putU32(B.num(4));                       // object key length
  G.putBytes("OBJ1");                       // object key
  G.putU32(B.unum(Op.IdlName.size() + 1));  // name length incl. NUL
  G.putBytes(Name);
  G.putU32(B.num(0)); // principal length
  G.closeChunk();
  G.alignTo(8);
}

void IiopBackend::emitRequestFinish(StubGen &G, const PresCInterface &If,
                                    const PresCOperation &Op) {
  patchGiopSize(G);
}

void IiopBackend::emitReplyHeader(StubGen &G, const PresCInterface &If,
                                  CastExpr *Status) {
  CastBuilder &B = G.builder();
  G.markPosition();
  G.openChunk(24);
  putGiopHeader(G, /*MsgType=*/1);
  G.putU32(B.num(0));     // service context count
  G.putU32(B.id("_xid")); // request id
  G.putU32(Status);       // GIOP reply_status == FLICK_REPLY_*
  G.closeChunk();
}

void IiopBackend::emitReplyFinish(StubGen &G, const PresCInterface &If) {
  patchGiopSize(G);
}

void IiopBackend::emitReplyHeaderDecode(StubGen &G,
                                        const PresCInterface &If) {
  CastBuilder &B = G.builder();
  G.openChunk(24);
  G.stmt(B.ifStmt(B.ne(G.getU32(), B.unum(GiopMagicLE)),
                  B.ret(B.id("FLICK_ERR_DECODE"))));
  G.getU8(); // version major
  G.getU8(); // version minor
  G.getU8(); // flags
  G.stmt(B.ifStmt(B.ne(G.getU8(), B.num(1)),
                  B.ret(B.id("FLICK_ERR_DECODE")))); // Reply
  G.getU32();                                        // message size
  G.getU32();                                        // service contexts
  G.getU32();                                        // request id
  G.stmt(B.varDecl(B.prim("uint32_t"), "_status", G.getU32()));
  G.closeChunk();
}

void IiopBackend::emitRequestHeaderDecode(StubGen &G,
                                          const PresCInterface &If) {
  CastBuilder &B = G.builder();
  // Fixed prefix: GIOP header through the object key.
  G.openChunk(32);
  G.stmt(B.ifStmt(B.ne(G.getU32(), B.unum(GiopMagicLE)),
                  B.ret(B.id("FLICK_ERR_DECODE"))));
  G.getU8();
  G.getU8();
  G.getU8();
  G.stmt(B.ifStmt(B.ne(G.getU8(), B.num(0)),
                  B.ret(B.id("FLICK_ERR_DECODE")))); // Request
  G.getU32();                                        // message size
  G.getU32();                                        // service contexts
  G.stmt(B.varDecl(B.prim("uint32_t"), "_xid", G.getU32()));
  G.getU32(); // response_expected (widened)
  G.stmt(B.ifStmt(B.ne(G.getU32(), B.num(4)),
                  B.ret(B.id("FLICK_ERR_DECODE")))); // key length
  G.getU32();                                        // key bytes
  G.closeChunk();
  // Operation name: length word, then the padded bytes.
  G.openChunk(4);
  G.stmt(B.varDecl(B.prim("uint32_t"), "_nlen", G.getU32()));
  G.closeChunk();
  G.stmt(B.ifStmt(
      B.bin("||", B.bin("<", B.id("_nlen"), B.num(1)),
            B.bin(">", B.id("_nlen"), B.num(1024))),
      B.ret(B.id("FLICK_ERR_DECODE"))));
  G.checkAvail(B.id("_nlen"));
  G.stmt(B.varDecl(
      B.constPtr(B.prim("uint8_t")), "_opname",
      B.call("flick_buf_take", {G.bufExpr(), B.id("_nlen")})));
  G.stmt(B.rawStmt("if (flick_buf_align_read(_req, 4)) "
                   "return FLICK_ERR_DECODE;"));
  G.openChunk(4); // principal length (skipped unread)
  G.closeChunk();
  // The encoder rounds its fixed header chunk up to 8 bytes; skip the
  // same padding here so the body starts on the shared boundary.
  G.alignTo(8);
}

void IiopBackend::emitDispatchDemux(
    StubGen &G, const PresCInterface &If,
    const std::function<std::vector<CastStmt *>(const PresCOperation &)>
        &CaseBody) {
  CastBuilder &B = G.builder();
  emitRequestHeaderDecode(G, If);

  // Word-at-a-time operation-name matching (paper §3.3, "Message
  // Demultiplexing"): nested switches over 32-bit words of the padded
  // name.  The terminating NUL is inside the counted bytes, so no padded
  // word sequence is a prefix of another operation's.
  struct Cand {
    const PresCOperation *Op;
    std::vector<uint32_t> Words;
  };
  std::vector<Cand> Cands;
  for (const PresCOperation &Op : If.Ops)
    Cands.push_back(Cand{&Op, opNameWords(Op.IdlName)});

  auto WordExpr = [&](size_t Idx) {
    CastExpr *Addr = Idx == 0
                         ? B.id("_opname")
                         : B.add(B.id("_opname"), B.unum(4 * Idx));
    return B.call("flick_dec_u32ne", {Addr});
  };

  std::function<std::vector<CastStmt *>(size_t, std::vector<Cand>)> Build =
      [&](size_t Depth,
          std::vector<Cand> Subset) -> std::vector<CastStmt *> {
    std::vector<CastStmt *> S;
    if (Subset.size() == 1) {
      const Cand &C = Subset[0];
      // Verify the remaining words and the exact length, then dispatch.
      for (size_t I = Depth; I < C.Words.size(); ++I)
        S.push_back(B.ifStmt(B.ne(WordExpr(I), B.unum(C.Words[I])),
                             B.ret(B.id("FLICK_ERR_NO_SUCH_OP"))));
      S.push_back(B.ifStmt(
          B.ne(B.id("_nlen"), B.unum(C.Op->IdlName.size() + 1)),
          B.ret(B.id("FLICK_ERR_NO_SUCH_OP"))));
      std::vector<CastStmt *> Body = CaseBody(*C.Op);
      S.insert(S.end(), Body.begin(), Body.end());
      return S;
    }
    // Group by the word at this depth.  (All candidates have a word here:
    // a fully-consumed shorter name differs in its final padded word.)
    std::map<uint32_t, std::vector<Cand>> Groups;
    for (const Cand &C : Subset) {
      assert(Depth < C.Words.size() && "padded names cannot be prefixes");
      Groups[C.Words[Depth]].push_back(C);
    }
    std::vector<CastSwitchCase> Cases;
    for (auto &[W, Grp] : Groups) {
      CastSwitchCase C;
      C.Values.push_back(B.unum(W));
      C.Stmts = Build(Depth + 1, Grp);
      C.FallsThrough = true;
      Cases.push_back(std::move(C));
    }
    CastSwitchCase D;
    D.Stmts.push_back(B.ret(B.id("FLICK_ERR_NO_SUCH_OP")));
    D.FallsThrough = true;
    Cases.push_back(std::move(D));
    S.push_back(B.switchStmt(WordExpr(Depth), std::move(Cases)));
    return S;
  };

  for (CastStmt *S : Build(0, Cands))
    G.stmt(S);
  G.stmt(B.ret(B.id("FLICK_ERR_NO_SUCH_OP")));
}

