//===- tests/VerifyTests.cpp - AOI verifier tests -------------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "aoi/Aoi.h"
#include "frontends/corba/CorbaFrontEnd.h"
#include "frontends/oncrpc/OncFrontEnd.h"
#include "support/Diagnostics.h"
#include <gtest/gtest.h>

using namespace flick;

namespace {

void verifyFails(AoiModule &M, const std::string &MsgPart) {
  DiagnosticEngine D;
  EXPECT_FALSE(M.verify(D));
  EXPECT_NE(D.renderAll().find(MsgPart), std::string::npos)
      << D.renderAll();
}

TEST(Verify, AcceptsWellFormedParsedModules) {
  DiagnosticEngine D;
  auto M = parseCorbaIdl(R"(
    struct S { long a; };
    exception E { string why; };
    interface I { long f(in S s) raises(E); oneway void p(in long t); };
  )",
                         "t.idl", D);
  ASSERT_TRUE(M);
  EXPECT_TRUE(M->verify(D)) << D.renderAll();
}

TEST(Verify, InfiniteSizeRecursionRejected) {
  // A struct directly containing itself has no finite encoding.
  AoiModule M;
  auto *S = M.make<AoiStruct>("s", std::vector<AoiField>{});
  S->setFields({AoiField{"self", S, SourceLoc()}});
  M.addNamedType(S);
  verifyFails(M, "contains itself");
}

TEST(Verify, RecursionThroughOptionalIsLegal) {
  DiagnosticEngine D;
  auto M = parseOncIdl("struct node { int v; node *next; };", "t.x", D);
  ASSERT_TRUE(M);
  EXPECT_TRUE(M->verify(D)) << D.renderAll();
}

TEST(Verify, DuplicateFieldNames) {
  AoiModule M;
  auto *L = M.make<AoiPrimitive>(AoiPrimKind::Long);
  auto *S = M.make<AoiStruct>(
      "s", std::vector<AoiField>{{"x", L, SourceLoc()},
                                 {"x", L, SourceLoc()}});
  M.addNamedType(S);
  verifyFails(M, "duplicate field");
}

TEST(Verify, UnionDiscriminatorMustBeIntegral) {
  AoiModule M;
  auto *F = M.make<AoiPrimitive>(AoiPrimKind::Float);
  auto *U = M.make<AoiUnion>("u", F, std::vector<AoiUnionCase>{});
  M.addNamedType(U);
  verifyFails(M, "discriminator must be");
}

TEST(Verify, DuplicateCaseLabels) {
  AoiModule M;
  auto *L = M.make<AoiPrimitive>(AoiPrimKind::Long);
  std::vector<AoiUnionCase> Cases(2);
  Cases[0].Labels = {{false, 3}};
  Cases[0].FieldName = 'a';
  Cases[0].Type = L;
  Cases[1].Labels = {{false, 3}};
  Cases[1].FieldName = 'b';
  Cases[1].Type = L;
  auto *U = M.make<AoiUnion>("u", L, std::move(Cases));
  M.addNamedType(U);
  verifyFails(M, "duplicate case label");
}

TEST(Verify, TwoDefaultCasesRejected) {
  AoiModule M;
  auto *L = M.make<AoiPrimitive>(AoiPrimKind::Long);
  std::vector<AoiUnionCase> Cases(2);
  Cases[0].Labels = {{true, 0}};
  Cases[1].Labels = {{true, 0}};
  auto *U = M.make<AoiUnion>("u", L, std::move(Cases));
  M.addNamedType(U);
  verifyFails(M, "more than one default");
}

TEST(Verify, DuplicateOperationNames) {
  AoiModule M;
  auto *V = M.make<AoiPrimitive>(AoiPrimKind::Void);
  AoiInterface *If = M.makeInterface();
  If->Name = If->ScopedName = 'I';
  AoiOperation A;
  A.Name = 'f';
  A.ReturnType = V;
  A.RequestCode = 1;
  AoiOperation B = A;
  B.RequestCode = 2;
  If->Operations = {A, B};
  verifyFails(M, "duplicate operation");
}

TEST(Verify, DuplicateRequestCodes) {
  AoiModule M;
  auto *V = M.make<AoiPrimitive>(AoiPrimKind::Void);
  AoiInterface *If = M.makeInterface();
  If->Name = If->ScopedName = 'I';
  AoiOperation A;
  A.Name = 'f';
  A.ReturnType = V;
  A.RequestCode = 5;
  AoiOperation B = A;
  B.Name = 'g';
  If->Operations = {A, B};
  verifyFails(M, "duplicate request code");
}

TEST(Verify, OnewayConstraints) {
  AoiModule M;
  auto *L = M.make<AoiPrimitive>(AoiPrimKind::Long);
  AoiInterface *If = M.makeInterface();
  If->Name = If->ScopedName = 'I';
  AoiOperation Op;
  Op.Name = "bad";
  Op.ReturnType = L; // oneway must return void
  Op.Oneway = true;
  Op.RequestCode = 1;
  If->Operations = {Op};
  verifyFails(M, "must return void");
}

TEST(Verify, OnewayOutParamRejected) {
  AoiModule M;
  auto *L = M.make<AoiPrimitive>(AoiPrimKind::Long);
  auto *V = M.make<AoiPrimitive>(AoiPrimKind::Void);
  AoiInterface *If = M.makeInterface();
  If->Name = If->ScopedName = 'I';
  AoiOperation Op;
  Op.Name = "bad";
  Op.ReturnType = V;
  Op.Oneway = true;
  Op.RequestCode = 1;
  Op.Params = {AoiParam{AoiParamDir::Out, "x", L, SourceLoc()}};
  If->Operations = {Op};
  verifyFails(M, "out or inout");
}

TEST(Verify, VoidParameterRejected) {
  AoiModule M;
  auto *V = M.make<AoiPrimitive>(AoiPrimKind::Void);
  AoiInterface *If = M.makeInterface();
  If->Name = If->ScopedName = 'I';
  AoiOperation Op;
  Op.Name = 'f';
  Op.ReturnType = V;
  Op.RequestCode = 1;
  Op.Params = {AoiParam{AoiParamDir::In, "x", V, SourceLoc()}};
  If->Operations = {Op};
  verifyFails(M, "void type");
}

TEST(Verify, RedefinedTypeNames) {
  AoiModule M;
  auto *L = M.make<AoiPrimitive>(AoiPrimKind::Long);
  auto *S1 = M.make<AoiStruct>("s", std::vector<AoiField>{});
  auto *S2 = M.make<AoiStruct>("s", std::vector<AoiField>{});
  (void)L;
  M.addNamedType(S1);
  M.addNamedType(S2);
  verifyFails(M, "redefinition");
}

} // namespace
