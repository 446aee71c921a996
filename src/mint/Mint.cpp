//===- mint/Mint.cpp - Message INterface Types IR -------------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mint/Mint.h"
#include "support/CodeWriter.h"
#include <cassert>
#include <map>
#include <set>

using namespace flick;

MintVoid *MintModule::voidType() {
  if (!VoidCache)
    VoidCache = make<MintVoid>();
  return VoidCache;
}

MintInteger *MintModule::integer(unsigned Bits, bool Signed) {
  unsigned Idx;
  switch (Bits) {
  case 8:
    Idx = 0;
    break;
  case 16:
    Idx = 1;
    break;
  case 32:
    Idx = 2;
    break;
  case 64:
    Idx = 3;
    break;
  default:
    assert(false && "unsupported integer width");
    Idx = 2;
  }
  MintInteger *&Slot = IntCache[Signed ? 1 : 0][Idx];
  if (!Slot)
    Slot = make<MintInteger>(Bits, Signed);
  return Slot;
}

MintFloat *MintModule::floatType(unsigned Bits) {
  assert((Bits == 32 || Bits == 64) && "unsupported float width");
  MintFloat *&Slot = FloatCache[Bits == 64 ? 1 : 0];
  if (!Slot)
    Slot = make<MintFloat>(Bits);
  return Slot;
}

MintChar *MintModule::charType() {
  if (!CharCache)
    CharCache = make<MintChar>();
  return CharCache;
}

MintBoolean *MintModule::boolType() {
  if (!BoolCache)
    BoolCache = make<MintBoolean>();
  return BoolCache;
}

namespace {

/// Recursive dumper with cycle detection: the second visit of a node prints
/// a back-reference instead of recursing.
class MintDumper {
public:
  explicit MintDumper(CodeWriter &W) : W(W) {}

  void dump(const MintType *T) {
    if (!T) {
      W.line("<null>");
      return;
    }
    auto It = Ids.find(T);
    if (It != Ids.end() && Visiting.count(T)) {
      W.line("ref #" + std::to_string(It->second));
      return;
    }
    unsigned Id;
    if (It == Ids.end()) {
      Id = NextId++;
      Ids.emplace(T, Id);
    } else {
      Id = It->second;
    }
    Visiting.insert(T);
    dumpNew(T, Id);
    Visiting.erase(T);
  }

private:
  void dumpNew(const MintType *T, unsigned Id) {
    std::string Tag = '#' + std::to_string(Id) + ' ';
    switch (T->kind()) {
    case MintType::Kind::Void:
      W.line(Tag + "void");
      return;
    case MintType::Kind::Integer: {
      const auto *I = cast<MintInteger>(T);
      W.line(Tag + (I->isSigned() ? "int" : "uint") +
             std::to_string(I->bits()));
      return;
    }
    case MintType::Kind::Float:
      W.line(Tag + "float" + std::to_string(cast<MintFloat>(T)->bits()));
      return;
    case MintType::Kind::Char:
      W.line(Tag + "char");
      return;
    case MintType::Kind::Boolean:
      W.line(Tag + "boolean");
      return;
    case MintType::Kind::Array: {
      const auto *A = cast<MintArray>(T);
      std::string Range =
          A->isBounded()
              ? '[' + std::to_string(A->minLen()) + ".." +
                    std::to_string(A->maxLen()) + ']'
              : '[' + std::to_string(A->minLen()) + "..*]";
      W.open(Tag + "array" + Range);
      dump(A->elem());
      W.close();
      return;
    }
    case MintType::Kind::Struct: {
      const auto *S = cast<MintStruct>(T);
      W.open(Tag + "struct");
      for (const MintStructElem &E : S->elems()) {
        if (!E.Label.empty())
          W.line("// " + E.Label);
        dump(E.Type);
      }
      W.close();
      return;
    }
    case MintType::Kind::Union: {
      const auto *U = cast<MintUnion>(T);
      W.open(Tag + "union");
      W.print("disc: ");
      dump(U->disc());
      for (const MintUnionCase &C : U->cases()) {
        std::string Head = "case " + std::to_string(C.Value);
        if (!C.Label.empty())
          Head += " /* " + C.Label + " */";
        W.open(Head + ":");
        dump(C.Body);
        W.close();
      }
      if (U->defaultBody()) {
        W.open("default:");
        dump(U->defaultBody());
        W.close();
      }
      W.close();
      return;
    }
    }
  }

  CodeWriter &W;
  std::map<const MintType *, unsigned> Ids;
  std::set<const MintType *> Visiting;
  unsigned NextId = 0;
};

} // namespace

std::string MintModule::dump(const MintType *Root) {
  CodeWriter W;
  MintDumper(W).dump(Root);
  return W.take();
}
