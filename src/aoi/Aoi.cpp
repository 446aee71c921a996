//===- aoi/Aoi.cpp - Abstract Object Interface IR -------------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "aoi/Aoi.h"
#include "support/CodeWriter.h"

using namespace flick;

const AoiType *AoiType::resolved() const {
  const AoiType *T = this;
  while (const auto *TD = dyn_cast<AoiTypedef>(T))
    T = TD->aliased();
  return T;
}

const char *flick::primKindName(AoiPrimKind K) {
  switch (K) {
  case AoiPrimKind::Void:
    return "void";
  case AoiPrimKind::Boolean:
    return "boolean";
  case AoiPrimKind::Char:
    return "char";
  case AoiPrimKind::Octet:
    return "octet";
  case AoiPrimKind::Short:
    return "short";
  case AoiPrimKind::UShort:
    return "unsigned short";
  case AoiPrimKind::Long:
    return "long";
  case AoiPrimKind::ULong:
    return "unsigned long";
  case AoiPrimKind::LongLong:
    return "long long";
  case AoiPrimKind::ULongLong:
    return "unsigned long long";
  case AoiPrimKind::Float:
    return "float";
  case AoiPrimKind::Double:
    return "double";
  }
  return "<bad-prim>";
}

bool flick::isIntegerPrim(AoiPrimKind K) {
  switch (K) {
  case AoiPrimKind::Short:
  case AoiPrimKind::UShort:
  case AoiPrimKind::Long:
  case AoiPrimKind::ULong:
  case AoiPrimKind::LongLong:
  case AoiPrimKind::ULongLong:
    return true;
  default:
    return false;
  }
}

uint64_t AoiArray::totalElems() const {
  uint64_t N = 1;
  for (uint64_t D : Dims)
    N *= D;
  return N;
}

const AoiUnionCase *AoiUnion::defaultCase() const {
  for (const AoiUnionCase &C : Cases)
    for (const AoiCaseLabel &L : C.Labels)
      if (L.IsDefault)
        return &C;
  return nullptr;
}

AoiInterface *AoiModule::findInterface(const std::string &Name) const {
  for (const auto &If : Interfaces)
    if (If->Name == Name || If->ScopedName == Name)
      return If.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Dumping
//===----------------------------------------------------------------------===//

namespace {

/// Prints AOI types.  Named aggregates print as their name at use sites and
/// in full where declared, so dumps stay readable and recursion terminates.
class AoiDumper {
public:
  explicit AoiDumper(CodeWriter &W) : W(W) {}

  std::string typeRef(const AoiType *T) {
    if (!T)
      return "<null>";
    switch (T->kind()) {
    case AoiType::Kind::Primitive:
      return primKindName(cast<AoiPrimitive>(T)->prim());
    case AoiType::Kind::String: {
      uint64_t B = cast<AoiString>(T)->bound();
      return B ? "string<" + std::to_string(B) + ">" : "string";
    }
    case AoiType::Kind::Sequence: {
      const auto *S = cast<AoiSequence>(T);
      std::string Out = "sequence<" + typeRef(S->elem());
      if (S->bound())
        Out += ", " + std::to_string(S->bound());
      return Out + ">";
    }
    case AoiType::Kind::Array: {
      const auto *A = cast<AoiArray>(T);
      std::string Out = typeRef(A->elem());
      for (uint64_t D : A->dims())
        Out += '[' + std::to_string(D) + ']';
      return Out;
    }
    case AoiType::Kind::Struct:
      return "struct " + cast<AoiStruct>(T)->name();
    case AoiType::Kind::Union:
      return "union " + cast<AoiUnion>(T)->name();
    case AoiType::Kind::Enum:
      return "enum " + cast<AoiEnum>(T)->name();
    case AoiType::Kind::Typedef:
      return cast<AoiTypedef>(T)->name();
    case AoiType::Kind::Optional:
      return "optional<" + typeRef(cast<AoiOptional>(T)->elem()) + ">";
    }
    return "<bad-type>";
  }

  void declareType(const AoiType *T) {
    switch (T->kind()) {
    case AoiType::Kind::Struct: {
      const auto *S = cast<AoiStruct>(T);
      W.open("struct " + S->name());
      for (const AoiField &F : S->fields())
        W.line(F.Name + ": " + typeRef(F.Type) + ";");
      W.close(";");
      return;
    }
    case AoiType::Kind::Union: {
      const auto *U = cast<AoiUnion>(T);
      W.open("union " + U->name() + " switch (" + typeRef(U->disc()) + ")");
      for (const AoiUnionCase &C : U->cases()) {
        std::string Labels;
        for (const AoiCaseLabel &L : C.Labels) {
          if (!Labels.empty())
            Labels += ", ";
          Labels += L.IsDefault ? "default" : std::to_string(L.Value);
        }
        std::string Body = C.Type
                               ? C.FieldName + ": " + typeRef(C.Type) + ";"
                               : "void;";
        W.line("case " + Labels + ": " + Body);
      }
      W.close(";");
      return;
    }
    case AoiType::Kind::Enum: {
      const auto *E = cast<AoiEnum>(T);
      W.open("enum " + E->name());
      for (const AoiEnumerator &En : E->enumerators())
        W.line(En.Name + " = " + std::to_string(En.Value) + ";");
      W.close(";");
      return;
    }
    case AoiType::Kind::Typedef: {
      const auto *TD = cast<AoiTypedef>(T);
      W.line("typedef " + TD->name() + " = " + typeRef(TD->aliased()) + ";");
      return;
    }
    default:
      W.line("type " + typeRef(T) + ";");
      return;
    }
  }

private:
  CodeWriter &W;
};

const char *dirName(AoiParamDir D) {
  switch (D) {
  case AoiParamDir::In:
    return "in";
  case AoiParamDir::Out:
    return "out";
  case AoiParamDir::InOut:
    return "inout";
  }
  return "<bad-dir>";
}

} // namespace

std::string AoiModule::dump() const {
  CodeWriter W;
  AoiDumper D(W);
  for (const AoiType *T : NamedTypes)
    D.declareType(T);
  for (const AoiConst &C : Consts) {
    std::string Val = C.Value.K == AoiConstValue::Kind::Int
                          ? std::to_string(C.Value.IntValue)
                          : "\"" + C.Value.StrValue + "\"";
    W.line("const " + C.Name + " = " + Val + ";");
  }
  for (const auto &Ex : Exceptions) {
    W.open("exception " + Ex->Name);
    for (const AoiField &F : Ex->Members)
      W.line(F.Name + ": " + D.typeRef(F.Type) + ";");
    W.close(";");
  }
  for (const auto &If : Interfaces) {
    std::string Head = "interface " + If->ScopedName;
    if (If->ProgramNumber)
      Head += " /* prog " + std::to_string(If->ProgramNumber) + " vers " +
              std::to_string(If->VersionNumber) + " */";
    if (!If->Bases.empty()) {
      Head += " : ";
      for (size_t I = 0; I != If->Bases.size(); ++I) {
        if (I)
          Head += ", ";
        Head += If->Bases[I]->ScopedName;
      }
    }
    W.open(Head);
    for (const AoiAttribute &A : If->Attributes)
      W.line(std::string(A.ReadOnly ? "readonly " : "") + "attribute " +
             A.Name + ": " + D.typeRef(A.Type) + ";");
    for (const AoiOperation &Op : If->Operations) {
      std::string Line;
      if (Op.Oneway)
        Line += "oneway ";
      Line += D.typeRef(Op.ReturnType) + " " + Op.Name + "(";
      for (size_t I = 0; I != Op.Params.size(); ++I) {
        if (I)
          Line += ", ";
        const AoiParam &P = Op.Params[I];
        Line += std::string(dirName(P.Dir)) + " " + P.Name + ": " +
                D.typeRef(P.Type);
      }
      Line += ")";
      if (!Op.Raises.empty()) {
        Line += " raises(";
        for (size_t I = 0; I != Op.Raises.size(); ++I) {
          if (I)
            Line += ", ";
          Line += Op.Raises[I]->Name;
        }
        Line += ")";
      }
      Line += " = " + std::to_string(Op.RequestCode) + ";";
      W.line(Line);
    }
    W.close(";");
  }
  return W.take();
}
