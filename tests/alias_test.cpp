//===- alias_test.cpp - Alias analysis tests (paper section 4.1.1) -------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/analysis/AliasAnalysis.h"

#include "urcm/irgen/IRGen.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

/// Compiles MC and returns (module, function) for inspection.
struct Lowered {
  CompiledModule Module;
  const IRFunction *F = nullptr;

  explicit Lowered(const std::string &Source,
                   const std::string &FuncName = "main") {
    DiagnosticEngine Diags;
    Module = compileToIR(Source, Diags);
    EXPECT_TRUE(static_cast<bool>(Module)) << Diags.str();
    if (Module)
      F = Module.IR->findFunction(FuncName);
  }
};

/// Returns the Nth memory access (load or store) in the function.
const Instruction *memAccess(const IRFunction &F, unsigned N) {
  unsigned Seen = 0;
  for (const auto &B : F.blocks())
    for (const Instruction &I : B->insts())
      if (I.isMemAccess()) {
        if (Seen == N)
          return &I;
        ++Seen;
      }
  return nullptr;
}

} // namespace

TEST(AliasAnalysis, PrivateGlobalScalarIsUnambiguous) {
  Lowered L("int g; void main() { g = 1; print(g); }");
  ModuleEscapeInfo ME(*L.Module.IR);
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  const Instruction *StoreG = memAccess(*L.F, 0);
  ASSERT_NE(StoreG, nullptr);
  EXPECT_TRUE(AA.isUnambiguous(*StoreG));
}

TEST(AliasAnalysis, EscapedGlobalScalarIsAmbiguous) {
  Lowered L("int g;\n"
            "void f(int *p) { *p = 2; }\n"
            "void main() { f(&g); g = 1; print(g); }");
  ModuleEscapeInfo ME(*L.Module.IR);
  EXPECT_TRUE(ME.globalEscapes(0));
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  // Every direct reference to g is now ambiguous: a pointer may name it.
  for (const auto &B : L.F->blocks())
    for (const Instruction &I : B->insts())
      if (I.isMemAccess() && I.addressOperand().isGlobal()) {
        EXPECT_FALSE(AA.isUnambiguous(I));
      }
}

TEST(AliasAnalysis, ArrayElementIsAmbiguous) {
  Lowered L("int a[4]; void main() { a[1] = 2; print(a[1]); }");
  ModuleEscapeInfo ME(*L.Module.IR);
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  const Instruction *StoreElem = memAccess(*L.F, 0);
  ASSERT_NE(StoreElem, nullptr);
  EXPECT_FALSE(AA.isUnambiguous(*StoreElem));
}

TEST(AliasAnalysis, PointerDerefIsAmbiguous) {
  Lowered L("void main() { int x; int *p; p = &x; *p = 1; print(x); }");
  ModuleEscapeInfo ME(*L.Module.IR);
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  for (const auto &B : L.F->blocks())
    for (const Instruction &I : B->insts())
      if (I.isMemAccess()) {
        EXPECT_FALSE(AA.isUnambiguous(I));
      }
}

TEST(AliasAnalysis, PointsToTracksAddressFlow) {
  Lowered L("int a[4];\n"
            "void main() { int *p; p = &a[2]; *p = 1; print(a[0]); }");
  ModuleEscapeInfo ME(*L.Module.IR);
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  // Find the store through the pointer and check its target set names a.
  for (const auto &B : L.F->blocks())
    for (const Instruction &I : B->insts()) {
      if (!I.isStore() || !I.addressOperand().isReg())
        continue;
      AliasInfo::RefDesc D = AA.describe(I);
      bool NamesA = false;
      for (uint32_t Obj : D.Objects)
        if (Obj == AA.objectForGlobal(0))
          NamesA = true;
      EXPECT_TRUE(NamesA);
    }
}

TEST(AliasAnalysis, PairwiseKinds) {
  Lowered L("int a[8]; int g; int h;\n"
            "void main() {\n"
            "  int i = 0;\n"
            "  g = 1;          // store g (unambiguous)\n"
            "  h = 2;          // store h\n"
            "  a[1] = 3;       // store a[1]\n"
            "  a[2] = 4;       // store a[2]\n"
            "  a[i] = 5;       // store a[i]\n"
            "  print(g + h);\n"
            "}\n");
  ModuleEscapeInfo ME(*L.Module.IR);
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  const Instruction *StG = memAccess(*L.F, 0);
  const Instruction *StH = memAccess(*L.F, 1);
  const Instruction *StA1 = memAccess(*L.F, 2);
  const Instruction *StA2 = memAccess(*L.F, 3);
  const Instruction *StAi = memAccess(*L.F, 4);
  ASSERT_NE(StAi, nullptr);

  // g vs g: true alias. g vs h: disjoint.
  EXPECT_EQ(AA.alias(*StG, *StG), AliasKind::True);
  EXPECT_EQ(AA.alias(*StG, *StH), AliasKind::MutuallyExclusive);
  // a[1] vs a[2]: provably distinct elements.
  EXPECT_EQ(AA.alias(*StA1, *StA2), AliasKind::MutuallyExclusive);
  // a[1] vs a[1]: same element.
  EXPECT_EQ(AA.alias(*StA1, *StA1), AliasKind::True);
  // a[i] vs a[1]: the paper's Figure-2 situation — sometimes aliases.
  EXPECT_EQ(AA.alias(*StAi, *StA1), AliasKind::Sometimes);
  // a[i] vs g: different objects.
  EXPECT_EQ(AA.alias(*StAi, *StG), AliasKind::MutuallyExclusive);
}

TEST(AliasAnalysis, AliasSetClosure) {
  // Two arrays reachable through one pointer join one alias set; a third
  // private array stays separate (paper's Uniqueness/Completeness).
  Lowered L("int a[4]; int b[4]; int c[4];\n"
            "void main() {\n"
            "  int *p;\n"
            "  int i = 0;\n"
            "  if (i) { p = &a[0]; } else { p = &b[0]; }\n"
            "  *p = 1;\n"
            "  c[0] = 2;\n"
            "  print(c[0]);\n"
            "}\n");
  ModuleEscapeInfo ME(*L.Module.IR);
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  uint32_t ObjA = AA.objectForGlobal(0);
  uint32_t ObjB = AA.objectForGlobal(1);
  uint32_t ObjC = AA.objectForGlobal(2);
  EXPECT_EQ(AA.aliasSetOfObject(ObjA), AA.aliasSetOfObject(ObjB));
  EXPECT_NE(AA.aliasSetOfObject(ObjC), AA.aliasSetOfObject(ObjA));
}

TEST(AliasAnalysis, FigureTwoUnsolvableCase) {
  // The paper's Figure 2: a[i+j] = a[i] + a[j] — all three references
  // are sometimes/ambiguously aliased, never provably distinct.
  Lowered L("int a[16];\n"
            "int f(int i, int j) { a[i + j] = a[i] + a[j]; return a[0]; }\n"
            "void main() { print(f(1, 2)); }",
            "f");
  ModuleEscapeInfo ME(*L.Module.IR);
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  const Instruction *LoadAi = memAccess(*L.F, 0);
  const Instruction *LoadAj = memAccess(*L.F, 1);
  const Instruction *StoreAij = memAccess(*L.F, 2);
  ASSERT_NE(StoreAij, nullptr);
  EXPECT_EQ(AA.alias(*LoadAi, *LoadAj), AliasKind::Sometimes);
  EXPECT_EQ(AA.alias(*LoadAi, *StoreAij), AliasKind::Sometimes);
  EXPECT_FALSE(AA.isUnambiguous(*StoreAij));
}

TEST(AliasAnalysis, ParameterPointerReachesEscapedOnly) {
  // Within f, the parameter may point at any escaped object, but not at
  // the private global h.
  Lowered L("int g; int h;\n"
            "void f(int *p) { *p = 1; h = 2; }\n"
            "void main() { f(&g); print(g + h); }",
            "f");
  ModuleEscapeInfo ME(*L.Module.IR);
  AliasInfo AA(*L.Module.IR, *L.F, ME);
  for (const auto &B : L.F->blocks())
    for (const Instruction &I : B->insts()) {
      if (!I.isStore())
        continue;
      if (I.addressOperand().isReg()) {
        AliasInfo::RefDesc D = AA.describe(I);
        for (uint32_t Obj : D.Objects)
          EXPECT_NE(Obj, AA.objectForGlobal(1)) << "p must not reach h";
      } else {
        EXPECT_TRUE(AA.isUnambiguous(I)) << "h store stays unambiguous";
      }
    }
}

TEST(AliasAnalysis, KindNames) {
  EXPECT_STREQ(aliasKindName(AliasKind::True), "true");
  EXPECT_STREQ(aliasKindName(AliasKind::Sometimes), "sometimes");
  EXPECT_STREQ(aliasKindName(AliasKind::MutuallyExclusive),
               "mutually-exclusive");
}
