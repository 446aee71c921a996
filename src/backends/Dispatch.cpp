//===- backends/Dispatch.cpp - Server dispatch generation -----------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Server-side dispatch: the default numeric demultiplexer, per-operation
/// dispatch case bodies (decode -> work function -> reply), and the
/// dispatch function itself (paper §3.3, "Message Demultiplexing").
///
//===----------------------------------------------------------------------===//

#include "backends/Backend.h"
#include "backends/StubShape.h"
#include "presgen/PresGen.h"
#include "support/StringExtras.h"
#include <cassert>

using namespace flick;

//===----------------------------------------------------------------------===//
// Default numeric demultiplexer
//===----------------------------------------------------------------------===//

void Backend::emitDispatchDemux(
    StubGen &G, const PresCInterface &If,
    const std::function<std::vector<CastStmt *>(const PresCOperation &)>
        &CaseBody) {
  CastBuilder &B = G.builder();
  emitRequestHeaderDecode(G, If); // declares _xid and _opcode
  std::vector<CastSwitchCase> Cases;
  for (const PresCOperation &Op : If.Ops) {
    CastSwitchCase C;
    C.Values.push_back(B.unum(Op.RequestCode));
    C.Stmts = CaseBody(Op);
    C.FallsThrough = true; // bodies end in return
    Cases.push_back(std::move(C));
  }
  CastSwitchCase D;
  D.Stmts.push_back(B.ret(B.id("FLICK_ERR_NO_SUCH_OP")));
  D.FallsThrough = true;
  Cases.push_back(std::move(D));
  G.stmt(B.switchStmt(B.id("_opcode"), std::move(Cases)));
  G.stmt(B.ret(B.id("FLICK_ERR_NO_SUCH_OP")));
}

//===----------------------------------------------------------------------===//
// Server dispatch
//===----------------------------------------------------------------------===//

std::vector<CastStmt *>
StubGen::genDispatchCase(const PresCInterface &If,
                         const PresCOperation &Op) {
  bool Corba = UseEnv;
  bool HasExcHelper = Corba && !P.Exceptions.empty();
  std::vector<CastStmt *> S;
  auto *SaveCur = Cur;
  Cur = &S;

  // Locals for every parameter.
  bool HasIns = false;
  for (const PresCParam &Pp : Op.Params) {
    PKind K = classifyPres(Pp.Pres);
    if (Pp.Dir != AoiParamDir::Out)
      HasIns = true;
    switch (K) {
    case PKind::Scalar:
      stmt(B.varDecl(Pp.Pres->ctype(), Pp.Name, B.num(0)));
      break;
    case PKind::Str:
      stmt(B.varDecl(B.ptr(B.prim("char")), Pp.Name, B.num(0)));
      if (!Pp.LenParamName.empty())
        stmt(B.varDecl(B.prim("uint32_t"), Pp.LenParamName, B.num(0)));
      break;
    case PKind::FixArr:
      stmt(B.varDecl(Pp.Pres->ctype(), Pp.Name));
      break;
    case PKind::Opt:
      stmt(B.varDecl(B.ptr(cast<PresOptPtr>(Pp.Pres)->elem()->ctype()),
                     Pp.Name, B.num(0)));
      break;
    case PKind::Agg:
      if (Pp.Dir == AoiParamDir::Out && presIsVariable(Pp.Pres) && Corba)
        stmt(B.varDecl(B.ptr(Pp.Pres->ctype()), Pp.Name, B.num(0)));
      else
        stmt(B.varDecl(Pp.Pres->ctype(), Pp.Name));
      break;
    case PKind::Void:
      break;
    }
  }

  // Decode in-parameters.
  if (HasIns) {
    std::vector<CastExpr *> Args = {
        B.id("_req"), B.addr(B.arrow(B.id("_srv"), "arena"))};
    for (const PresCParam &Pp : Op.Params) {
      if (Pp.Dir == AoiParamDir::Out)
        continue;
      PKind K = classifyPres(Pp.Pres);
      Args.push_back(K == PKind::FixArr
                         ? B.id(Pp.Name)
                         : static_cast<CastExpr *>(B.addr(B.id(Pp.Name))));
      if (!Pp.LenParamName.empty())
        Args.push_back(B.addr(B.id(Pp.LenParamName)));
    }
    std::string Ev = freshVar("_de");
    stmt(B.varDecl(B.prim("int"), Ev,
                   B.call(Op.CName + "_decode_request", Args)));
    stmt(B.ifStmt(B.id(Ev), B.ret(B.id(Ev))));
  }

  // CORBA C mapping: the servant may replace an inout string.  The decoded
  // value lives in scratch storage, so only a replacement is the server's
  // to free after the reply; remember the decoded pointer to tell them
  // apart.  (Without the arena the in-parameter frees below cover it.)
  std::vector<std::string> InoutStrs;
  if (Corba && options().ScratchAlloc)
    for (const PresCParam &Pp : Op.Params)
      if (Pp.Dir == AoiParamDir::InOut &&
          classifyPres(Pp.Pres) == PKind::Str) {
        InoutStrs.push_back(Pp.Name);
        stmt(B.varDecl(B.ptr(B.prim("char")), "_in_" + Pp.Name,
                       B.id(Pp.Name)));
      }

  if (Corba) {
    stmt(B.rawStmt("CORBA_Environment _ev;"));
    stmt(B.rawStmt("_ev._major = CORBA_NO_EXCEPTION;"));
    stmt(B.rawStmt("_ev._exc_code = 0;"));
    stmt(B.rawStmt("_ev._exc_value = 0;"));
  }

  // Call the work function.
  std::vector<CastExpr *> ImplArgs;
  for (const PresCParam &Pp : Op.Params) {
    PKind K = classifyPres(Pp.Pres);
    bool ByValue =
        Pp.Dir == AoiParamDir::In &&
        (K == PKind::Scalar || K == PKind::Str || K == PKind::Opt);
    if (K == PKind::FixArr)
      ImplArgs.push_back(B.id(Pp.Name));
    else if (ByValue)
      ImplArgs.push_back(B.id(Pp.Name));
    else if (K == PKind::Agg && Pp.Dir == AoiParamDir::Out &&
             presIsVariable(Pp.Pres) && Corba)
      ImplArgs.push_back(B.addr(B.id(Pp.Name))); // CT ** (local is CT *)
    else
      ImplArgs.push_back(B.addr(B.id(Pp.Name)));
    if (!Pp.LenParamName.empty())
      ImplArgs.push_back(B.id(Pp.LenParamName));
  }

  PKind RetK = classifyPres(Op.Return.Pres);
  std::string RcVar;
  // --trace-hooks: time the user's work function apart from marshaling.
  if (options().TraceHooks)
    stmt(B.rawStmt("flick_span_begin(FLICK_SPAN_WORK, \"" + Op.CName +
                   "\");"));
  if (Corba) {
    ImplArgs.push_back(B.rawE("&_ev"));
    CastExpr *Call = B.call(Op.ServerImplName, ImplArgs);
    switch (RetK) {
    case PKind::Void:
      stmt(B.exprStmt(Call));
      break;
    case PKind::Scalar:
      stmt(B.varDecl(Op.Return.Pres->ctype(), "_retval", Call));
      break;
    case PKind::Str:
      stmt(B.varDecl(B.ptr(B.prim("char")), "_retval", Call));
      break;
    case PKind::Opt:
      stmt(B.varDecl(
          B.ptr(cast<PresOptPtr>(Op.Return.Pres)->elem()->ctype()),
          "_retval", Call));
      break;
    case PKind::Agg:
      stmt(B.varDecl(B.ptr(Op.Return.Pres->ctype()), "_retval", Call));
      break;
    case PKind::FixArr:
      break;
    }
  } else {
    // rpcgen style: int-returning work function with a result slot.
    if (RetK != PKind::Void) {
      if (RetK == PKind::Scalar || RetK == PKind::Agg) {
        stmt(B.varDecl(Op.Return.Pres->ctype(), "_retval"));
        // rpcgen requires zeroed results before the xdr routines run.
        stmt(B.exprStmt(B.call(
            "memset", {B.addr(B.id("_retval")), B.num(0),
                       B.sizeofTy(Op.Return.Pres->ctype())})));
      } else {
        stmt(B.varDecl(Op.Return.Pres->ctype(), "_retval", B.num(0)));
      }
      ImplArgs.push_back(B.addr(B.id("_retval")));
    }
    RcVar = freshVar("_rc");
    CastExpr *Work = B.call(Op.ServerImplName, ImplArgs);
    // A oneway has no reply to carry a failure, so its status is dropped
    // (its name is still drawn, keeping later locals' numbers stable).
    stmt(Op.Oneway ? B.exprStmt(Work) : B.varDecl(B.prim("int"), RcVar, Work));
  }
  if (options().TraceHooks)
    stmt(B.rawStmt("flick_span_end();"));

  if (Op.Oneway) {
    stmt(B.ret(B.id("FLICK_OK")));
    Cur = SaveCur;
    return S;
  }

  // Exceptional replies.
  if (Corba) {
    std::vector<CastStmt *> Exc;
    if (HasExcHelper) {
      Exc.push_back(B.rawStmt(
          "int _xe = " + If.Name +
          "_encode_reply_exc(_rep, _xid, _ev._exc_code, _ev._exc_value);"));
      Exc.push_back(B.rawStmt("free(_ev._exc_value);"));
      Exc.push_back(B.rawStmt("return _xe;"));
    } else {
      Exc.push_back(B.rawStmt("return " + If.Name +
                              "_encode_reply_err(_rep, _xid);"));
    }
    stmt(B.ifStmt(B.eq(B.rawE("_ev._major"), B.id("CORBA_USER_EXCEPTION")),
                  B.block(Exc)));
    stmt(B.ifStmt(B.ne(B.rawE("_ev._major"), B.id("CORBA_NO_EXCEPTION")),
                  B.rawStmt("return " + If.Name +
                            "_encode_reply_err(_rep, _xid);")));
  } else {
    stmt(B.ifStmt(B.id(RcVar),
                  B.rawStmt("return " + If.Name +
                            "_encode_reply_err(_rep, _xid);")));
  }

  // Successful reply.
  std::vector<CastExpr *> RepArgs = {B.id("_rep"), B.id("_xid")};
  if (RetK != PKind::Void) {
    if (!Corba && RetK == PKind::Agg)
      RepArgs.push_back(B.addr(B.id("_retval")));
    else if (!Corba && RetK == PKind::Scalar)
      RepArgs.push_back(B.id("_retval"));
    else if (Corba)
      RepArgs.push_back(B.id("_retval"));
    else
      RepArgs.push_back(B.id("_retval"));
  }
  for (const PresCParam &Pp : Op.Params) {
    if (Pp.Dir == AoiParamDir::In)
      continue;
    PKind K = classifyPres(Pp.Pres);
    if (K == PKind::Agg) {
      bool VarOut =
          Pp.Dir == AoiParamDir::Out && presIsVariable(Pp.Pres) && Corba;
      RepArgs.push_back(VarOut ? B.id(Pp.Name)
                               : static_cast<CastExpr *>(
                                     B.addr(B.id(Pp.Name))));
    } else {
      RepArgs.push_back(B.id(Pp.Name));
    }
  }
  std::string Re = freshVar("_re");
  stmt(B.varDecl(B.prim("int"), Re,
                 B.call(Op.CName + "_encode_reply", RepArgs)));
  stmt(B.ifStmt(B.id(Re), B.ret(B.id(Re))));

  // Free heap storage produced by the work function.
  if (!Corba && (RetK == PKind::Str || RetK == PKind::Opt ||
                 RetK == PKind::Agg)) {
    // rpcgen: the server frees the result once it is sent (xdr_free).
    emitFree(Op.Return.Pres, B.id("_retval"));
  }
  for (const std::string &Name : InoutStrs)
    stmt(B.ifStmt(B.ne(B.id(Name), B.id("_in_" + Name)),
                  B.exprStmt(B.call("free", {B.id(Name)}))));
  if (Corba) {
    switch (RetK) {
    case PKind::Str:
      stmt(B.exprStmt(B.call("free", {B.id("_retval")})));
      break;
    case PKind::Opt:
      emitFree(Op.Return.Pres, B.id("_retval"));
      break;
    case PKind::Agg:
      emitFree(Op.Return.Pres, B.deref(B.id("_retval")));
      stmt(B.exprStmt(B.call("free", {B.id("_retval")})));
      break;
    default:
      break;
    }
    for (const PresCParam &Pp : Op.Params) {
      if (Pp.Dir != AoiParamDir::Out)
        continue;
      PKind K = classifyPres(Pp.Pres);
      if (K == PKind::Str) {
        stmt(B.exprStmt(B.call("free", {B.id(Pp.Name)})));
      } else if (K == PKind::Opt) {
        emitFree(Pp.Pres, B.id(Pp.Name));
      } else if (K == PKind::Agg && presIsVariable(Pp.Pres)) {
        emitFree(Pp.Pres, B.deref(B.id(Pp.Name)));
        stmt(B.exprStmt(B.call("free", {B.id(Pp.Name)})));
      }
    }
  }
  // Without the scratch arena, decoded in-parameters were heap-allocated:
  // release them (rpcgen's xdr_free role).
  if (!options().ScratchAlloc) {
    for (const PresCParam &Pp : Op.Params) {
      if (Pp.Dir == AoiParamDir::Out)
        continue;
      PKind K = classifyPres(Pp.Pres);
      if (K == PKind::Str)
        stmt(B.exprStmt(B.call("free", {B.id(Pp.Name)})));
      else if (K == PKind::Opt)
        emitFree(Pp.Pres, B.id(Pp.Name));
      else if ((K == PKind::Agg || K == PKind::FixArr) &&
               presIsVariable(Pp.Pres))
        emitFree(Pp.Pres, B.id(Pp.Name));
    }
  }

  stmt(B.ret(B.id("FLICK_OK")));
  Cur = SaveCur;
  return S;
}

void StubGen::genServerDispatch(const PresCInterface &If) {
  // Work-function prototypes.
  bool Corba = UseEnv;
  for (const PresCOperation &Op : If.Ops) {
    PKind RetK = classifyPres(Op.Return.Pres);
    CastType *RetTy = B.voidTy();
    switch (RetK) {
    case PKind::Void:
      break;
    case PKind::Scalar:
      RetTy = Op.Return.Pres->ctype();
      break;
    case PKind::Str:
      RetTy = B.ptr(B.prim("char"));
      break;
    case PKind::Opt:
      RetTy = B.ptr(cast<PresOptPtr>(Op.Return.Pres)->elem()->ctype());
      break;
    case PKind::Agg:
      RetTy = B.ptr(Op.Return.Pres->ctype());
      break;
    case PKind::FixArr:
      break;
    }
    std::vector<CastParam> Ps;
    for (const PresCParam &Pp : Op.Params) {
      Ps.push_back(CastParam{Pp.SigType, Pp.Name});
      if (!Pp.LenParamName.empty())
        Ps.push_back(CastParam{B.prim("uint32_t"), Pp.LenParamName});
    }
    if (Corba) {
      Ps.push_back(CastParam{B.ptr(B.prim("CORBA_Environment")), "_ev"});
    } else {
      if (RetK != PKind::Void)
        Ps.push_back(CastParam{B.ptr(Op.Return.Pres->ctype()), "_result"});
      RetTy = B.prim("int");
    }
    PublicProtos.push_back(B.func(RetTy, Op.ServerImplName, Ps, nullptr));
  }

  // The dispatch function itself.
  std::vector<CastParam> Ps = {
      CastParam{B.ptr(B.structTy("flick_server")), "_srv"},
      CastParam{B.ptr(B.structTy("flick_buf")), "_req"},
      CastParam{B.ptr(B.structTy("flick_buf")), "_rep"}};
  std::vector<CastStmt *> Body;
  Cur = &Body;
  ServerSide = true;
  CurEncode = false;
  stmt(B.rawStmt("(void)_srv;"));
  setBufName("_req");
  BE.emitDispatchDemux(*this, If, [&](const PresCOperation &Op) {
    return genDispatchCase(If, Op);
  });
  setBufName("_buf");
  ServerSide = false;
  Cur = nullptr;
  std::string Name = If.Name + "_dispatch";
  ServerFile.add(B.func(B.prim("int"), Name, Ps, B.block(Body)));
  PublicProtos.push_back(B.func(B.prim("int"), Name, Ps, nullptr));
}

