//===- pres/Pres.cpp - PRES_C dumping -------------------------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pres/Pres.h"
#include "support/CodeWriter.h"
#include <set>

using namespace flick;

namespace {

class PresDumper {
public:
  explicit PresDumper(CodeWriter &W) : W(W) {}

  void dump(const PresNode *P) {
    if (!P) {
      W.line("<none>");
      return;
    }
    if (!Visiting.insert(P).second) {
      W.line("<recursive ref>");
      return;
    }
    dumpNew(P);
    Visiting.erase(P);
  }

private:
  std::string ctypeOf(const PresNode *P) {
    return P->ctype() ? printCastType(P->ctype(), "") : "void";
  }

  void dumpNew(const PresNode *P) {
    switch (P->kind()) {
    case PresNode::Kind::Void:
      W.line("void");
      return;
    case PresNode::Kind::Prim:
      W.line("prim -> " + ctypeOf(P));
      return;
    case PresNode::Kind::Enum:
      W.line("enum -> " + ctypeOf(P));
      return;
    case PresNode::Kind::Struct: {
      const auto *S = cast<PresStruct>(P);
      W.open("struct -> " + ctypeOf(P));
      for (const PresField &F : S->fields()) {
        W.print("." + F.CName + ": ");
        dump(F.Pres);
      }
      W.close();
      return;
    }
    case PresNode::Kind::FixedArray: {
      const auto *A = cast<PresFixedArray>(P);
      W.open("fixed_array[" + std::to_string(A->count()) + "] -> " +
             ctypeOf(P));
      dump(A->elem());
      W.close();
      return;
    }
    case PresNode::Kind::Counted: {
      const auto *C = cast<PresCounted>(P);
      W.open("counted{len=." + C->lenField() + ", buf=." + C->bufField() +
             "} -> " + ctypeOf(P));
      dump(C->elem());
      W.close();
      return;
    }
    case PresNode::Kind::String:
      W.line("string -> " + ctypeOf(P));
      return;
    case PresNode::Kind::OptPtr: {
      const auto *O = cast<PresOptPtr>(P);
      W.open("opt_ptr -> " + ctypeOf(P));
      dump(O->elem());
      W.close();
      return;
    }
    case PresNode::Kind::Union: {
      const auto *U = cast<PresUnion>(P);
      W.open("union{disc=." + U->discField() + ", u=." + U->unionField() +
             "} -> " + ctypeOf(P));
      for (const PresUnionArm &A : U->arms()) {
        std::string Head = A.IsDefault ? "default" : "case";
        for (int64_t V : A.CaseValues)
          Head += ' ' + std::to_string(V);
        if (!A.Pres) {
          W.line(Head + ": void");
          continue;
        }
        W.print(Head + " ." + A.ArmField + ": ");
        dump(A.Pres);
      }
      W.close();
      return;
    }
    }
  }

  CodeWriter &W;
  std::set<const PresNode *> Visiting;
};

const char *dirTag(AoiParamDir D) {
  switch (D) {
  case AoiParamDir::In:
    return "in";
  case AoiParamDir::Out:
    return "out";
  case AoiParamDir::InOut:
    return "inout";
  }
  return "?";
}

} // namespace

std::string PresC::dump() const {
  CodeWriter W;
  PresDumper D(W);
  W.line("presentation style: " + Style);
  for (const PresCException &E : Exceptions) {
    W.open("exception " + E.Name + " code " + std::to_string(E.Code));
    D.dump(E.Members);
    W.close();
  }
  for (const PresCInterface &If : Interfaces) {
    W.open("interface " + If.Name);
    for (const PresCOperation &Op : If.Ops) {
      std::string Head = "op " + Op.CName + " (idl '" + Op.IdlName +
                         "', code " + std::to_string(Op.RequestCode) + ")";
      if (Op.Oneway)
        Head += " oneway";
      W.open(Head);
      W.print("return: ");
      D.dump(Op.Return.Pres);
      for (const PresCParam &P : Op.Params) {
        W.print(std::string(dirTag(P.Dir)) + " " + P.Name + ": ");
        D.dump(P.Pres);
      }
      W.close();
    }
    W.close();
  }
  return W.take();
}
