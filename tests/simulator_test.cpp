//===- simulator_test.cpp - URCM-RISC simulator tests --------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/Simulator.h"

#include "urcm/driver/Driver.h"
#include "urcm/workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

SimResult runSource(const std::string &Source,
                    const CompileOptions &Options = {},
                    SimConfig Sim = {}) {
  DiagnosticEngine Diags;
  return compileAndRun(Source, Options, Sim, Diags);
}

} // namespace

TEST(Simulator, ArithmeticOperators) {
  SimResult R = runSource(
      "void main() {\n"
      "  int a = 17; int b = 5;\n"
      "  print(a + b); print(a - b); print(a * b); print(a / b);\n"
      "  print(a % b); print(a & b); print(a | b); print(a ^ b);\n"
      "  print(a << 2); print(a >> 1); print(-a); print(~a);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  std::vector<int64_t> Expected = {22, 12, 85, 3, 2, 17 & 5, 17 | 5,
                                   17 ^ 5, 68, 8, -17, ~17};
  EXPECT_EQ(R.Output, Expected);
}

TEST(Simulator, ComparisonsAndLogic) {
  SimResult R = runSource(
      "void main() {\n"
      "  int a = 3; int b = 7;\n"
      "  print(a < b); print(a <= b); print(a > b); print(a >= b);\n"
      "  print(a == b); print(a != b); print(!a); print(!0);\n"
      "  print(a < b && b < 10); print(a > b || b > 100);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  std::vector<int64_t> Expected = {1, 1, 0, 0, 0, 1, 0, 1, 1, 0};
  EXPECT_EQ(R.Output, Expected);
}

TEST(Simulator, ShortCircuitSkipsSideEffects) {
  SimResult R = runSource(
      "int calls;\n"
      "int bump() { calls = calls + 1; return 1; }\n"
      "void main() {\n"
      "  int x;\n"
      "  calls = 0;\n"
      "  x = 0 && bump();\n"
      "  print(calls);\n"
      "  x = 1 || bump();\n"
      "  print(calls);\n"
      "  x = 1 && bump();\n"
      "  print(calls);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{0, 0, 1}));
}

TEST(Simulator, LoopsAndControlFlow) {
  SimResult R = runSource(
      "void main() {\n"
      "  int i; int s = 0;\n"
      "  for (i = 0; i < 10; i = i + 1) {\n"
      "    if (i == 3) { continue; }\n"
      "    if (i == 8) { break; }\n"
      "    s = s + i;\n"
      "  }\n"
      "  print(s);\n"
      "  i = 0;\n"
      "  do { i = i + 1; } while (i < 5);\n"
      "  print(i);\n"
      "  while (i > 0) { i = i - 2; }\n"
      "  print(i);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  // 0+1+2+4+5+6+7 = 25.
  EXPECT_EQ(R.Output, (std::vector<int64_t>{25, 5, -1}));
}

TEST(Simulator, RecursionDeep) {
  SimResult R = runSource(
      "int fib(int n) {\n"
      "  if (n < 2) { return n; }\n"
      "  return fib(n - 1) + fib(n - 2);\n"
      "}\n"
      "int depth(int n) {\n"
      "  if (n == 0) { return 0; }\n"
      "  return 1 + depth(n - 1);\n"
      "}\n"
      "void main() { print(fib(15)); print(depth(500)); }\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{610, 500}));
}

TEST(Simulator, PointersAndArrays) {
  SimResult R = runSource(
      "int a[10];\n"
      "void fill(int *p, int n, int v) {\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) { p[i] = v + i; }\n"
      "}\n"
      "void main() {\n"
      "  int x;\n"
      "  int *q;\n"
      "  fill(&a[0], 10, 100);\n"
      "  q = &a[5];\n"
      "  *q = 1;\n"
      "  q = q + 2;\n"
      "  x = *q;\n"
      "  print(a[5]); print(x); print(a[9]);\n"
      "  print(q - &a[0]);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{1, 107, 109, 7}));
}

TEST(Simulator, AmbiguousAliasStoreVisible) {
  // The paper's core hazard: a store through a pointer must be seen by a
  // subsequent direct reference (and vice versa) under every scheme.
  for (bool Era : {false, true}) {
    CompileOptions Options;
    Options.IRGen.ScalarLocalsInMemory = Era;
    SimResult R = runSource(
        "int g;\n"
        "void set(int *p, int v) { *p = v; }\n"
        "void main() {\n"
        "  g = 1;\n"
        "  set(&g, 42);\n"
        "  print(g);\n"
        "}\n",
        Options);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.Output, (std::vector<int64_t>{42}));
    EXPECT_EQ(R.CoherenceViolations, 0u);
  }
}

TEST(Simulator, GlobalSharedAcrossCalls) {
  SimResult R = runSource(
      "int counter;\n"
      "void tick() { counter = counter + 1; }\n"
      "void main() {\n"
      "  int i;\n"
      "  counter = 0;\n"
      "  for (i = 0; i < 100; i = i + 1) { tick(); }\n"
      "  print(counter);\n"
      "}\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{100}));
  EXPECT_EQ(R.CoherenceViolations, 0u);
}

TEST(Simulator, DivisionByZeroReported) {
  SimResult R = runSource("void main() { int z = 0; print(1 / z); }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(Simulator, RemainderByZeroReported) {
  SimResult R = runSource("void main() { int z = 0; print(1 % z); }");
  EXPECT_FALSE(R.ok());
}

TEST(Simulator, StepLimitEnforced) {
  SimConfig Sim;
  Sim.MaxSteps = 1000;
  SimResult R = runSource("void main() { while (1) { } }", {}, Sim);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
  EXPECT_EQ(R.Steps, 1000u);
}

TEST(Simulator, OutOfRangeAddressReported) {
  SimResult R = runSource(
      "int a[2];\n"
      "void main() { int *p; p = &a[0]; p = p - 100000000; print(*p); }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("out of range"), std::string::npos);
}

TEST(Simulator, TraceRecording) {
  SimConfig Sim;
  Sim.RecordTrace = true;
  SimResult R = runSource(
      "int g; void main() { g = 1; print(g); }", {}, Sim);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.Trace.empty());
  // The trace must contain the store and load of g.
  unsigned Writes = 0, Reads = 0;
  for (const TraceEvent &E : R.Trace)
    (E.IsWrite ? Writes : Reads) += 1;
  EXPECT_GE(Writes, 1u);
  EXPECT_GE(Reads, 1u);
}

TEST(Simulator, ParanoidCleanOnAllSchemes) {
  const char *Source =
      "int a[32]; int g;\n"
      "int sum(int *p, int n) {\n"
      "  int i; int s = 0;\n"
      "  for (i = 0; i < n; i = i + 1) { s = s + p[i]; }\n"
      "  return s;\n"
      "}\n"
      "void main() {\n"
      "  int i;\n"
      "  for (i = 0; i < 32; i = i + 1) { a[i] = i; }\n"
      "  g = sum(&a[0], 32);\n"
      "  print(g);\n"
      "}\n";
  for (auto Scheme :
       {UnifiedOptions::conventional(), UnifiedOptions::bypassOnly(),
        UnifiedOptions::deadTagOnly(), UnifiedOptions::unified(),
        UnifiedOptions::reuseAware()}) {
    CompileOptions Options;
    Options.Scheme = Scheme;
    SimResult R = runSource(Source, Options);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.Output, (std::vector<int64_t>{496}));
    EXPECT_EQ(R.CoherenceViolations, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Engine differential: the predecoded threaded-dispatch engine and the
// reference switch interpreter must produce bit-identical SimResults on
// every path — success, every error, and the step limit — including the
// recorded trace and all counters.
//===----------------------------------------------------------------------===//

namespace {

void expectSameSimResult(const SimResult &P, const SimResult &S,
                         const std::string &What) {
  EXPECT_EQ(P.Halted, S.Halted) << What;
  EXPECT_EQ(P.Error, S.Error) << What;
  EXPECT_EQ(P.Steps, S.Steps) << What;
  EXPECT_EQ(P.Output, S.Output) << What;
  EXPECT_EQ(P.Cache, S.Cache) << What;
  EXPECT_EQ(P.ICache, S.ICache) << What;
  EXPECT_EQ(P.InstructionFetches, S.InstructionFetches) << What;
  EXPECT_EQ(P.BypassTransitions, S.BypassTransitions) << What;
  EXPECT_EQ(P.CoherenceViolations, S.CoherenceViolations) << What;
  EXPECT_EQ(P.Refs.Unambiguous, S.Refs.Unambiguous) << What;
  EXPECT_EQ(P.Refs.Ambiguous, S.Refs.Ambiguous) << What;
  EXPECT_EQ(P.Refs.Spill, S.Refs.Spill) << What;
  EXPECT_EQ(P.Refs.Unknown, S.Refs.Unknown) << What;
  EXPECT_EQ(P.Refs.Bypassed, S.Refs.Bypassed) << What;
  EXPECT_EQ(P.Refs.LastRefTagged, S.Refs.LastRefTagged) << What;
  ASSERT_EQ(P.Trace.size(), S.Trace.size()) << What;
  for (size_t I = 0; I != P.Trace.size(); ++I) {
    EXPECT_EQ(P.Trace[I].Addr, S.Trace[I].Addr) << What << " event " << I;
    EXPECT_EQ(P.Trace[I].IsWrite, S.Trace[I].IsWrite)
        << What << " event " << I;
    EXPECT_EQ(P.Trace[I].Info.Bypass, S.Trace[I].Info.Bypass)
        << What << " event " << I;
    EXPECT_EQ(P.Trace[I].Info.LastRef, S.Trace[I].Info.LastRef)
        << What << " event " << I;
    EXPECT_EQ(P.Trace[I].RefId, S.Trace[I].RefId) << What << " event " << I;
  }
}

/// Compiles \p Source once per engine and asserts identical results.
void expectEnginesAgree(const std::string &Source, SimConfig Sim = {},
                        const CompileOptions &Options = {}) {
  Sim.RecordTrace = true;
  Sim.Engine = SimEngine::Predecoded;
  SimResult P = runSource(Source, Options, Sim);
  Sim.Engine = SimEngine::Switch;
  SimResult S = runSource(Source, Options, Sim);
  expectSameSimResult(P, S, Source.substr(0, 40));
}

/// Runs a raw machine program under both engines.
void expectEnginesAgreeRaw(const MachineProgram &Prog, SimConfig Sim,
                           const std::string &What) {
  Sim.RecordTrace = true;
  Sim.Engine = SimEngine::Predecoded;
  SimResult P = Simulator(Sim).run(Prog);
  Sim.Engine = SimEngine::Switch;
  SimResult S = Simulator(Sim).run(Prog);
  expectSameSimResult(P, S, What);
}

} // namespace

TEST(EngineDifferential, ArithmeticErrorsIdentical) {
  expectEnginesAgree("void main() { int z = 0; print(7 / z); }");
  expectEnginesAgree("void main() { int z = 0; print(7 % z); }");
  // Errors mid-loop: the erroring instruction must land on the same
  // step count (it sits mid-run for the predecoded engine).
  expectEnginesAgree("void main() {\n"
                     "  int i; int s = 0;\n"
                     "  for (i = 5; i >= 0 - 1; i = i - 1) {\n"
                     "    s = s + 100 / i;\n"
                     "  }\n"
                     "  print(s);\n"
                     "}\n");
}

TEST(EngineDifferential, OutOfRangeAccessIdentical) {
  expectEnginesAgree("int a[4];\n"
                     "void main() { int *p = &a[0]; print(p[99999999]); }");
  expectEnginesAgree("int a[4];\n"
                     "void main() { int *p = &a[0]; p[99999999] = 1; }");
  // Negative effective address.
  expectEnginesAgree("int a[4];\n"
                     "void main() { int *p = &a[0]; print(p[0-99999999]); }");
}

TEST(EngineDifferential, StepLimitIdentical) {
  const char *Spin = "void main() { int i;\n"
                     "  for (i = 0; i < 1000000; i = i + 1) {}\n"
                     "}\n";
  // Sweep limits so exhaustion lands on every position within a run
  // (run boundaries are where the predecoded engine hoists the check).
  for (uint64_t Limit : {0ull, 1ull, 2ull, 999ull, 1000ull, 1001ull,
                         1002ull, 1003ull, 5000ull}) {
    SimConfig Sim;
    Sim.MaxSteps = Limit;
    expectEnginesAgree(Spin, Sim);
  }
}

TEST(EngineDifferential, PCOffProgramIdentical) {
  // Control flow running past the last instruction (no Halt).
  MachineProgram FallOff;
  {
    MInst Li;
    Li.Op = MOpcode::Li;
    Li.Rd = 0;
    Li.Imm = 42;
    Li.UseImm = true;
    FallOff.Code = {Li};
  }
  SimConfig Sim;
  expectEnginesAgreeRaw(FallOff, Sim, "fall off end");

  // A jump landing far outside the program.
  MachineProgram WildJmp = FallOff;
  {
    MInst J;
    J.Op = MOpcode::Jmp;
    J.Target = 1000;
    WildJmp.Code.push_back(J);
  }
  expectEnginesAgreeRaw(WildJmp, Sim, "wild jump");
}

TEST(EngineDifferential, RetCodeDeadHintICacheIdentical) {
  // Once-executed functions get CodeDeadHint on their final Ret; with
  // the I-cache modeled, that return invalidates the function's code
  // lines (Ret/RetDead split in the predecoded engine).
  const char *Source = "int init(int n) { return n * 3; }\n"
                       "void main() {\n"
                       "  int i; int s = init(7);\n"
                       "  for (i = 0; i < 20; i = i + 1) { s = s + i; }\n"
                       "  print(s);\n"
                       "}\n";
  SimConfig Sim;
  Sim.ModelICache = true;
  Sim.ICache.NumLines = 8;
  Sim.ICache.Assoc = 2;
  Sim.ICache.LineWords = 4;
  expectEnginesAgree(Source, Sim);
  // The hint path must actually fire.
  Sim.RecordTrace = false;
  SimResult R = runSource(Source, {}, Sim);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(R.ICache.DeadFrees, 0u);
}

TEST(EngineDifferential, WorkloadsWithHintsIdentical) {
  const char *Source = "int a[64];\n"
                       "int sum(int *p, int n) {\n"
                       "  int i; int s = 0;\n"
                       "  for (i = 0; i < n; i = i + 1) { s = s + p[i]; }\n"
                       "  return s;\n"
                       "}\n"
                       "void main() {\n"
                       "  int i;\n"
                       "  for (i = 0; i < 64; i = i + 1) { a[i] = i * i; }\n"
                       "  print(sum(&a[0], 64));\n"
                       "}\n";
  for (auto Scheme :
       {UnifiedOptions::conventional(), UnifiedOptions::unified(),
        UnifiedOptions::reuseAware()}) {
    CompileOptions Options;
    Options.Scheme = Scheme;
    expectEnginesAgree(Source, {}, Options);
  }
}

namespace {

/// Compiles one paper workload under the full unified pipeline (the
/// configuration the paper figures and the benches run).
MachineProgram compileWorkload(const Workload &W) {
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(W.Source, CompileOptions(), Diags);
  EXPECT_TRUE(R.Ok) << "compile failed for " << W.Name;
  return std::move(R.Program);
}

} // namespace

// Every paper workload, with per-reference attribution on: full
// SimResult, every trace event and the attribution tables agree.
TEST(EngineDifferential, PaperWorkloadsBitIdentical) {
  for (const Workload &W : paperWorkloads()) {
    SCOPED_TRACE(W.Name);
    MachineProgram Prog = compileWorkload(W);

    auto runWith = [&](SimEngine Engine, RefAttribution &Attr) {
      SimConfig Sim;
      Sim.Engine = Engine;
      Sim.RecordTrace = true;
      Attr = RefAttribution(static_cast<uint32_t>(Prog.RefTable.size()));
      Sim.Attribution = &Attr;
      return Simulator(Sim).run(Prog);
    };

    RefAttribution AttrS, AttrP;
    SimResult S = runWith(SimEngine::Switch, AttrS);
    SimResult P = runWith(SimEngine::Predecoded, AttrP);
    ASSERT_TRUE(S.ok()) << S.Error;
    // ExpectedOutput is a known-correct prefix (workloads_test checks
    // it in depth); a quick sanity check that we ran the real program.
    ASSERT_GE(S.Output.size(), W.ExpectedOutput.size());
    for (size_t I = 0; I != W.ExpectedOutput.size(); ++I)
      EXPECT_EQ(S.Output[I], W.ExpectedOutput[I]);

    expectSameSimResult(P, S, W.Name);
    EXPECT_EQ(AttrP, AttrS) << "attribution diverged";
  }
}

// A back-edge into the middle of a straight-line run: the predecoded
// engine enters the run mid-way through its per-index run length, and
// every step limit lands on each instruction of it, including right at
// the mid-run entry.
TEST(EngineDifferential, BranchIntoRunMiddle) {
  MachineProgram Prog;
  auto li = [](uint32_t Rd, int64_t Imm) {
    MInst I;
    I.Op = MOpcode::Li;
    I.Rd = Rd;
    I.Imm = Imm;
    return I;
  };
  auto ld = [](uint32_t Rd, int64_t Addr) {
    MInst I;
    I.Op = MOpcode::Ld;
    I.Rd = Rd;
    I.Imm = Addr; // absolute: base register absent
    return I;
  };
  auto st = [](int64_t Addr, uint32_t Rs) {
    MInst I;
    I.Op = MOpcode::St;
    I.Rs2 = Rs;
    I.Imm = Addr;
    return I;
  };
  Prog.Code.push_back(li(1, 3));       // 0: r1 = loop counter
  Prog.Code.push_back(li(5, 11));      // 1: r5 = 11
  Prog.Code.push_back(st(0x40, 5));    // 2: mem[0x40] = 11
  Prog.Code.push_back(st(0x41, 1));    // 3: mem[0x41] = r1
  Prog.Code.push_back(ld(3, 0x40));    // 4: r3 = mem[0x40]
  Prog.Code.push_back(ld(4, 0x41));    // 5: r4 = mem[0x41]  <- branch target
  {
    MInst Sub;                         // 6: r1 = r1 - 1
    Sub.Op = MOpcode::Sub;
    Sub.Rd = 1;
    Sub.Rs1 = 1;
    Sub.UseImm = true;
    Sub.Imm = 1;
    Prog.Code.push_back(Sub);
  }
  Prog.Code.push_back(st(0x42, 1));    // 7: mem[0x42] = r1
  {
    MInst Bnz;                         // 8: if (r1) goto 5 — mid-run!
    Bnz.Op = MOpcode::Bnz;
    Bnz.Rs1 = 1;
    Bnz.Target = 5;
    Prog.Code.push_back(Bnz);
  }
  {
    MInst P;                           // 9-10: print r3, r4
    P.Op = MOpcode::Print;
    P.Rs1 = 3;
    Prog.Code.push_back(P);
    P.Rs1 = 4;
    Prog.Code.push_back(P);
  }
  {
    MInst H;                           // 11: halt
    H.Op = MOpcode::Halt;
    Prog.Code.push_back(H);
  }

  auto runWith = [&](SimEngine Engine, uint64_t MaxSteps) {
    SimConfig Sim;
    Sim.Engine = Engine;
    Sim.RecordTrace = true;
    if (MaxSteps)
      Sim.MaxSteps = MaxSteps;
    return Simulator(Sim).run(Prog);
  };
  SimResult S = runWith(SimEngine::Switch, 0);
  SimResult P = runWith(SimEngine::Predecoded, 0);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.Output, (std::vector<int64_t>{11, 3}));
  expectSameSimResult(P, S, "full run");

  for (uint64_t L = 1; L < S.Steps; ++L) {
    const std::string What = "MaxSteps=" + std::to_string(L);
    SimResult TS = runWith(SimEngine::Switch, L);
    SimResult TP = runWith(SimEngine::Predecoded, L);
    EXPECT_EQ(TS.Steps, L) << What;
    EXPECT_EQ(TP.Steps, L) << What;
    expectSameSimResult(TP, TS, What);
  }
}

// A truncated run stops after exactly MaxSteps retired instructions:
// every limit small enough to land on each phase of the first runs the
// program enters, a band in the middle of the main loop, and one step
// short of completion.
TEST(EngineDifferential, MaxStepsStopsExactly) {
  const Workload *W = findWorkload("Bubble");
  ASSERT_NE(W, nullptr);
  MachineProgram Prog = compileWorkload(*W);

  SimResult Complete = Simulator(SimConfig()).run(Prog);
  ASSERT_TRUE(Complete.ok()) << Complete.Error;
  ASSERT_GT(Complete.Steps, 2000u);

  std::vector<uint64_t> Limits;
  for (uint64_t L = 1; L <= 192; ++L)
    Limits.push_back(L);
  for (uint64_t L = 1001; L <= 1064; ++L)
    Limits.push_back(L);
  Limits.push_back(Complete.Steps - 1);

  for (uint64_t L : Limits) {
    const std::string What = "MaxSteps=" + std::to_string(L);
    auto truncated = [&](SimEngine Engine) {
      SimConfig Sim;
      Sim.Engine = Engine;
      Sim.MaxSteps = L;
      Sim.RecordTrace = true;
      return Simulator(Sim).run(Prog);
    };
    SimResult S = truncated(SimEngine::Switch);
    SimResult P = truncated(SimEngine::Predecoded);
    EXPECT_FALSE(S.Halted) << What;
    EXPECT_EQ(S.Steps, L) << What << ": switch interpreter overshot";
    EXPECT_EQ(P.Steps, L) << What << ": predecoded engine overshot";
    expectSameSimResult(P, S, What);
  }
}

// The paranoid shadow check is why the live caches carry data at all.
// These hand-built programs pin that it fires on an unsound hint and
// stays quiet on the bypass write-back guard (DESIGN.md §8), on the
// paper geometry (the access compiled into the interpreter), a 4-way
// FIFO cache (the per-run entry point) and the switch oracle.
namespace {

MInst liInst(uint32_t Rd, int64_t Imm) {
  MInst I;
  I.Op = MOpcode::Li;
  I.Rd = Rd;
  I.Imm = Imm;
  return I;
}

MInst memInst(MOpcode Op, uint32_t Reg, int64_t Addr, bool Bypass,
              bool LastRef) {
  MInst I;
  I.Op = Op;
  (Op == MOpcode::Ld ? I.Rd : I.Rs2) = Reg;
  I.Imm = Addr; // Absolute: base register absent.
  I.MemInfo.Bypass = Bypass;
  I.MemInfo.LastRef = LastRef;
  return I;
}

MInst printInst(uint32_t Rs) {
  MInst I;
  I.Op = MOpcode::Print;
  I.Rs1 = Rs;
  return I;
}

MInst haltInst() {
  MInst I;
  I.Op = MOpcode::Halt;
  return I;
}

/// Runs \p Prog on the predecoded engine at the paper geometry (the
/// access compiled into the interpreter) and at 4-way FIFO (the
/// per-run entry point), and on the switch engine.
std::vector<std::pair<std::string, SimResult>>
runOnEveryLiveCache(const MachineProgram &Prog) {
  std::vector<std::pair<std::string, SimResult>> Runs;
  SimConfig Paper;
  Runs.emplace_back("predecoded paper geometry", Simulator(Paper).run(Prog));
  SimConfig Generic;
  Generic.Cache.Assoc = 4;
  Generic.Cache.Policy = CachePolicy::FIFO;
  Runs.emplace_back("predecoded 4-way FIFO", Simulator(Generic).run(Prog));
  SimConfig Switch;
  Switch.Engine = SimEngine::Switch;
  Runs.emplace_back("switch", Simulator(Switch).run(Prog));
  return Runs;
}

} // namespace

TEST(Simulator, ParanoidDetectsUnsoundDeadStore) {
  // A store tagged last-reference whose value is read again: the cache
  // drops the dirty line, memory never sees 11, and the load gets 0.
  MachineProgram Prog;
  Prog.Code = {liInst(5, 11),
               memInst(MOpcode::St, 5, 0x40, false, /*LastRef=*/true),
               memInst(MOpcode::Ld, 3, 0x40, false, false), haltInst()};
  for (const auto &[What, R] : runOnEveryLiveCache(Prog)) {
    ASSERT_TRUE(R.ok()) << What << ": " << R.Error;
    EXPECT_EQ(R.CoherenceViolations, 1u) << What;
  }
}

TEST(Simulator, BypassHitOfDirtyLineWritesBack) {
  // A cached store leaves a dirty line; the first bypass load hits and
  // migrates it, writing it back, so the second bypass load, which
  // misses, reads 11 from memory.
  MachineProgram Prog;
  Prog.Code = {liInst(5, 11),
               memInst(MOpcode::St, 5, 0x40, false, false),
               memInst(MOpcode::Ld, 3, 0x40, /*Bypass=*/true, false),
               memInst(MOpcode::Ld, 4, 0x40, /*Bypass=*/true, false),
               printInst(3),
               printInst(4),
               haltInst()};
  for (const auto &[What, R] : runOnEveryLiveCache(Prog)) {
    ASSERT_TRUE(R.ok()) << What << ": " << R.Error;
    EXPECT_EQ(R.CoherenceViolations, 0u) << What;
    EXPECT_EQ(R.Output, (std::vector<int64_t>{11, 11})) << What;
    EXPECT_EQ(R.Cache.BypassHitMigrations, 1u) << What;
    EXPECT_EQ(R.Cache.BypassReads, 1u) << What;
    EXPECT_EQ(R.Cache.WriteBacks, 1u) << What;
  }
}
