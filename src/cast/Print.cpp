//===- cast/Print.cpp - CAST pretty printer -------------------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders CAST into compilable C.  Types print with real C declarator
/// syntax (pointers bind inward, arrays outward); expressions print with a
/// precedence table so parentheses appear only where required or where they
/// aid reading (mixed && / || is always parenthesized).
///
//===----------------------------------------------------------------------===//

#include "cast/Cast.h"
#include "support/CodeWriter.h"
#include "support/StringExtras.h"
#include <cassert>

using namespace flick;

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

namespace {

/// Returns the base (leftmost) type specifier and builds the declarator
/// around \p Name: `T` for prim, `*Name` for pointers, `Name[N]` for arrays.
void buildDeclarator(const CastType *T, std::string &Spec, std::string &Decl) {
  if (!T) { Spec = "__NULLTYPE__"; return; }
  switch (T->kind()) {
  case CastType::Kind::Prim:
    Spec = cast<CastPrim>(T)->name();
    return;
  case CastType::Kind::Named: {
    const auto *N = cast<CastNamed>(T);
    const char *Tag = N->tag() == CastTag::Struct  ? "struct "
                      : N->tag() == CastTag::Union ? "union "
                                                   : "enum ";
    Spec = Tag + N->name();
    return;
  }
  case CastType::Kind::Pointer: {
    const auto *P = cast<CastPointer>(T);
    std::string Inner = "*";
    if (P->isConstPointee())
      Inner = "*"; // constness printed on the specifier below
    Decl = Inner + Decl;
    // Pointer-to-array/function needs parens; only arrays are modeled.
    if (P->pointee() && isa<CastArray>(P->pointee()))
      Decl = "(" + Decl + ")";
    buildDeclarator(P->pointee(), Spec, Decl);
    if (P->isConstPointee())
      Spec = "const " + Spec;
    return;
  }
  case CastType::Kind::Array: {
    const auto *A = cast<CastArray>(T);
    Decl += A->size() ? '[' + std::to_string(A->size()) + ']' : "[]";
    buildDeclarator(A->elem(), Spec, Decl);
    return;
  }
  }
}

} // namespace

std::string flick::printCastType(const CastType *Type,
                                 const std::string &Name) {
  std::string Spec, Decl = Name;
  buildDeclarator(Type, Spec, Decl);
  if (Decl.empty())
    return Spec;
  // No space between '*' and the name, one space after the specifier.
  return Spec + " " + Decl;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

namespace {

/// C precedence levels; larger binds tighter.
int binaryPrec(const std::string &Op) {
  if (Op == "*" || Op == "/" || Op == "%")
    return 13;
  if (Op == "+" || Op == "-")
    return 12;
  if (Op == "<<" || Op == ">>")
    return 11;
  if (Op == "<" || Op == ">" || Op == "<=" || Op == ">=")
    return 10;
  if (Op == "==" || Op == "!=")
    return 9;
  if (Op == "&")
    return 8;
  if (Op == "^")
    return 7;
  if (Op == "|")
    return 6;
  if (Op == "&&")
    return 5;
  if (Op == "||")
    return 4;
  // Assignment family.
  return 2;
}

bool isAssignOp(const std::string &Op) {
  return flick::endsWith(Op, "=") && Op != "==" && Op != "!=" && Op != "<=" &&
         Op != ">=";
}

int exprPrec(const CastExpr *E) {
  switch (E->kind()) {
  case CastExpr::Kind::Ident:
  case CastExpr::Kind::IntLit:
  case CastExpr::Kind::StrLit:
  case CastExpr::Kind::CharLit:
  case CastExpr::Kind::Raw: // printed parenthesized, acts atomic
    return 16;
  case CastExpr::Kind::Call:
  case CastExpr::Kind::Member:
  case CastExpr::Kind::Index:
    return 15;
  case CastExpr::Kind::Unary:
  case CastExpr::Kind::Cast:
  case CastExpr::Kind::SizeofType:
    return 14;
  case CastExpr::Kind::Binary:
    return binaryPrec(cast<CEBinary>(E)->op());
  case CastExpr::Kind::Ternary:
    return 3;
  }
  return 0;
}

void printExpr(const CastExpr *E, std::string &Out);

/// Prints \p E, parenthesizing when its precedence is below \p MinPrec.
void printOperand(const CastExpr *E, int MinPrec, std::string &Out) {
  if (exprPrec(E) < MinPrec) {
    Out += '(';
    printExpr(E, Out);
    Out += ')';
  } else {
    printExpr(E, Out);
  }
}

void printExpr(const CastExpr *E, std::string &Out) {
  switch (E->kind()) {
  case CastExpr::Kind::Ident:
    Out += cast<CEIdent>(E)->name();
    return;
  case CastExpr::Kind::IntLit: {
    const auto *L = cast<CEIntLit>(E);
    if (L->isUnsigned() || L->value() <= 0x7fffffffffffffffULL) {
      Out += std::to_string(L->value());
    } else {
      Out += std::to_string(static_cast<int64_t>(L->value()));
    }
    if (L->isUnsigned())
      Out += 'u';
    if (L->isLongLong())
      Out += "ll";
    return;
  }
  case CastExpr::Kind::StrLit:
    Out += '"';
    Out += escapeCString(cast<CEStrLit>(E)->value());
    Out += '"';
    return;
  case CastExpr::Kind::CharLit: {
    char C = cast<CECharLit>(E)->value();
    Out += '\'';
    if (C == '\'' || C == '\\') {
      Out += '\\';
      Out += C;
    } else {
      Out += escapeCString(std::string(1, C));
    }
    Out += '\'';
    return;
  }
  case CastExpr::Kind::Call: {
    const auto *C = cast<CECall>(E);
    printOperand(C->callee(), 15, Out);
    Out += '(';
    for (size_t I = 0, N = C->args().size(); I != N; ++I) {
      if (I)
        Out += ", ";
      printExpr(C->args()[I], Out);
    }
    Out += ')';
    return;
  }
  case CastExpr::Kind::Member: {
    const auto *M = cast<CEMember>(E);
    printOperand(M->base(), 15, Out);
    Out += M->isArrow() ? "->" : ".";
    Out += M->name();
    return;
  }
  case CastExpr::Kind::Index: {
    const auto *I = cast<CEIndex>(E);
    printOperand(I->base(), 15, Out);
    Out += '[';
    printExpr(I->index(), Out);
    Out += ']';
    return;
  }
  case CastExpr::Kind::Unary: {
    const auto *U = cast<CEUnary>(E);
    Out += U->op();
    // `- -x` and `& &x` must not fuse into `--x` / `&&x`.
    size_t Before = Out.size();
    printOperand(U->operand(), 14, Out);
    if (Before < Out.size() && !U->op().empty() &&
        Out[Before] == U->op().back()) {
      Out.insert(Before, " ");
    }
    return;
  }
  case CastExpr::Kind::Binary: {
    const auto *B = cast<CEBinary>(E);
    int Prec = binaryPrec(B->op());
    if (isAssignOp(B->op())) {
      // Right-associative.
      printOperand(B->lhs(), 14, Out);
      Out += ' ';
      Out += B->op();
      Out += ' ';
      printOperand(B->rhs(), Prec, Out);
      return;
    }
    // Left-associative; force parens when mixing && and || for clarity.
    int RhsMin = Prec + 1;
    int LhsMin = Prec;
    if (B->op() == "&&" || B->op() == "||" || B->op() == "&" ||
        B->op() == "|" || B->op() == "^") {
      auto MixedLogical = [&](const CastExpr *Sub) {
        const auto *SB = dyn_cast<CEBinary>(Sub);
        return SB && binaryPrec(SB->op()) <= 8 && SB->op() != B->op();
      };
      if (MixedLogical(B->lhs()))
        LhsMin = 15;
      if (MixedLogical(B->rhs()))
        RhsMin = 15;
    }
    printOperand(B->lhs(), LhsMin, Out);
    Out += ' ';
    Out += B->op();
    Out += ' ';
    printOperand(B->rhs(), RhsMin, Out);
    return;
  }
  case CastExpr::Kind::Cast: {
    const auto *C = cast<CECast>(E);
    Out += '(';
    Out += printCastType(C->type(), "");
    Out += ')';
    printOperand(C->operand(), 14, Out);
    return;
  }
  case CastExpr::Kind::SizeofType:
    Out += "sizeof(";
    Out += printCastType(cast<CESizeofType>(E)->type(), "");
    Out += ')';
    return;
  case CastExpr::Kind::Ternary: {
    const auto *T = cast<CETernary>(E);
    printOperand(T->cond(), 4, Out);
    Out += " ? ";
    printOperand(T->thenExpr(), 3, Out);
    Out += " : ";
    printOperand(T->elseExpr(), 3, Out);
    return;
  }
  case CastExpr::Kind::Raw:
    Out += '(';
    Out += cast<CERaw>(E)->text();
    Out += ')';
    return;
  }
}

} // namespace

std::string flick::printCastExpr(const CastExpr *E) {
  std::string Out;
  printExpr(E, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

namespace {

/// Prints \p S as the body of a control statement: blocks share the
/// header's braces, single statements print indented on their own line.
void printControlled(const CastStmt *S, CodeWriter &W) {
  if (const auto *B = dyn_cast<CSBlock>(S)) {
    for (const CastStmt *Sub : B->stmts())
      printCastStmt(Sub, W);
    return;
  }
  printCastStmt(S, W);
}

} // namespace

void flick::printCastStmt(const CastStmt *S, CodeWriter &W) {
  switch (S->kind()) {
  case CastStmt::Kind::Expr:
    W.line(printCastExpr(cast<CSExpr>(S)->expr()) + ";");
    return;
  case CastStmt::Kind::VarDecl: {
    const auto *D = cast<CSVarDecl>(S);
    std::string Line = printCastType(D->type(), D->name());
    if (D->init())
      Line += " = " + printCastExpr(D->init());
    W.line(Line + ";");
    return;
  }
  case CastStmt::Kind::Block: {
    W.open("");
    for (const CastStmt *Sub : cast<CSBlock>(S)->stmts())
      printCastStmt(Sub, W);
    W.close();
    return;
  }
  case CastStmt::Kind::If: {
    const auto *I = cast<CSIf>(S);
    W.open("if (" + printCastExpr(I->cond()) + ")");
    printControlled(I->thenStmt(), W);
    if (const CastStmt *Else = I->elseStmt()) {
      W.outdent();
      W.line("} else {");
      W.indent();
      printControlled(Else, W);
    }
    W.close();
    return;
  }
  case CastStmt::Kind::While: {
    const auto *L = cast<CSWhile>(S);
    W.open("while (" + printCastExpr(L->cond()) + ")");
    printControlled(L->body(), W);
    W.close();
    return;
  }
  case CastStmt::Kind::For: {
    const auto *F = cast<CSFor>(S);
    std::string Head = "for (";
    if (const CastStmt *Init = F->init()) {
      if (const auto *D = dyn_cast<CSVarDecl>(Init)) {
        Head += printCastType(D->type(), D->name());
        if (D->init())
          Head += " = " + printCastExpr(D->init());
      } else if (const auto *E = dyn_cast<CSExpr>(Init)) {
        Head += printCastExpr(E->expr());
      }
    }
    Head += "; ";
    if (F->cond())
      Head += printCastExpr(F->cond());
    Head += "; ";
    if (F->step())
      Head += printCastExpr(F->step());
    Head += ")";
    W.open(Head);
    printControlled(F->body(), W);
    W.close();
    return;
  }
  case CastStmt::Kind::Switch: {
    const auto *Sw = cast<CSSwitch>(S);
    W.open("switch (" + printCastExpr(Sw->cond()) + ")");
    for (const CastSwitchCase &C : Sw->cases()) {
      if (C.Values.empty()) {
        W.line("default: {");
      } else {
        for (size_t I = 0; I + 1 < C.Values.size(); ++I)
          W.line("case " + printCastExpr(C.Values[I]) + ":");
        W.line("case " + printCastExpr(C.Values.back()) + ": {");
      }
      // Braced bodies keep locals legal across case labels.
      W.indent();
      for (const CastStmt *Sub : C.Stmts)
        printCastStmt(Sub, W);
      if (!C.FallsThrough)
        W.line("break;");
      W.outdent();
      W.line("}");
    }
    W.close();
    return;
  }
  case CastStmt::Kind::Return: {
    const CastExpr *E = cast<CSReturn>(S)->expr();
    W.line(E ? "return " + printCastExpr(E) + ";" : "return;");
    return;
  }
  case CastStmt::Kind::Break:
    W.line("break;");
    return;
  case CastStmt::Kind::Continue:
    W.line("continue;");
    return;
  case CastStmt::Kind::Comment:
    W.line("/* " + cast<CSComment>(S)->text() + " */");
    return;
  case CastStmt::Kind::Raw:
    W.line(cast<CSRaw>(S)->text());
    return;
  }
}

//===----------------------------------------------------------------------===//
// Declarations and files
//===----------------------------------------------------------------------===//

void flick::printCastDecl(const CastDecl *D, CodeWriter &W) {
  switch (D->kind()) {
  case CastDecl::Kind::Var: {
    const auto *V = cast<CDVar>(D);
    std::string Line;
    if (V->isStatic())
      Line += "static ";
    Line += printCastType(V->type(), V->name());
    if (V->init())
      Line += " = " + printCastExpr(V->init());
    W.line(Line + ";");
    return;
  }
  case CastDecl::Kind::Func: {
    const auto *F = cast<CDFunc>(D);
    std::string Head;
    if (F->isStatic())
      Head += "static ";
    if (F->isInline())
      Head += "inline ";
    std::string ParamList;
    if (F->params().empty()) {
      ParamList = "void";
    } else {
      for (size_t I = 0, N = F->params().size(); I != N; ++I) {
        if (I)
          ParamList += ", ";
        const CastParam &P = F->params()[I];
        ParamList += printCastType(P.Type, P.Name);
      }
    }
    Head += printCastType(F->ret(), F->name() + "(" + ParamList + ")");
    if (!F->body()) {
      W.line(Head + ";");
      return;
    }
    W.open(Head);
    for (const CastStmt *S : F->body()->stmts())
      printCastStmt(S, W);
    W.close();
    return;
  }
  case CastDecl::Kind::AggregateDef: {
    const auto *A = cast<CDAggregateDef>(D);
    const char *Tag = A->tag() == CastTag::Struct ? "struct" : "union";
    W.open(std::string(Tag) + " " + A->name());
    for (const CastParam &F : A->fields())
      W.line(printCastType(F.Type, F.Name) + ";");
    W.close(";");
    return;
  }
  case CastDecl::Kind::EnumDef: {
    const auto *E = cast<CDEnumDef>(D);
    W.open("enum " + E->name());
    for (const CastEnumerator &En : E->enumerators())
      W.line(En.Name + " = " + std::to_string(En.Value) + ",");
    W.close(";");
    return;
  }
  case CastDecl::Kind::Typedef: {
    const auto *T = cast<CDTypedef>(D);
    W.line("typedef " + printCastType(T->type(), T->name()) + ";");
    return;
  }
  case CastDecl::Kind::Comment:
    W.line("/* " + cast<CDComment>(D)->text() + " */");
    return;
  case CastDecl::Kind::Raw:
    W.line(cast<CDRaw>(D)->text());
    return;
  }
}

std::string flick::printCastFile(const CastFile &File) {
  CodeWriter W;
  W.line("/* Generated by flickc.  Do not edit. */");
  if (!File.HeaderGuard.empty()) {
    W.line("#ifndef " + File.HeaderGuard);
    W.line("#define " + File.HeaderGuard);
  }
  W.blank();
  for (const std::string &Inc : File.Includes)
    W.line("#include " + Inc);
  if (!File.Includes.empty())
    W.blank();
  for (const CastDecl *D : File.Decls) {
    printCastDecl(D, W);
    W.blank();
  }
  if (!File.HeaderGuard.empty())
    W.line("#endif /* " + File.HeaderGuard + " */");
  return W.take();
}
