//===- perfbench/src/Harness.cpp - Shared benchmark machinery ------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "Spans.h"

#include "urcm/sim/TraceStore.h"
#include "urcm/support/RNG.h"
#include "urcm/support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sys/resource.h>

using namespace urcm;
using namespace perfbench;

void Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Messages.size() < 20)
    Messages.push_back(What);
}

void Checks::merge(const Checks &Other) {
  Attempted += Other.Attempted;
  Failed += Other.Failed;
  for (const std::string &M : Other.Messages)
    if (Messages.size() < 20)
      Messages.push_back(M);
}

double perfbench::cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports KiB.
}

bool perfbench::matchesExpected(const Workload &W,
                                const std::vector<int64_t> &Output) {
  return Output.size() >= W.ExpectedOutput.size() &&
         std::equal(W.ExpectedOutput.begin(), W.ExpectedOutput.end(),
                    Output.begin());
}

CompileResult perfbench::compile(const Workload &W,
                                 const CompileOptions &Options, Checks &C) {
  DiagnosticEngine Diags;
  CompileResult R;
  {
    ScopedSpan S("compileProgram");
    R = compileProgram(W.Source, Options, Diags);
  }
  C.expect(R.Ok, W.Name + ": compilation failed: " + Diags.str());
  return R;
}

std::string perfbench::quote(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\') {
      Out += '\\';
      Out += Ch;
    } else if (static_cast<unsigned char>(Ch) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
      Out += Buf;
    } else {
      Out += Ch;
    }
  }
  return Out + "\"";
}

void Json::key(const std::string &Key) {
  if (!Body.empty())
    Body += ", ";
  Body += quote(Key) + ": ";
}

Json &Json::num(const std::string &Key, double Value) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
  return raw(Key, Buf);
}

Json &Json::list(const std::string &Key, const std::vector<double> &Values) {
  std::string L = "[";
  for (size_t I = 0; I != Values.size(); ++I) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%s%.9g", I ? ", " : "", Values[I]);
    L += Buf;
  }
  return raw(Key, L + "]");
}

Json &Json::strings(const std::string &Key,
                    const std::vector<std::string> &Values) {
  std::string L = "[";
  for (size_t I = 0; I != Values.size(); ++I)
    L += (I ? ", " : "") + quote(Values[I]);
  return raw(Key, L + "]");
}

Json &Json::raw(const std::string &Key, const std::string &Value) {
  key(Key);
  Body += Value;
  return *this;
}

//===----------------------------------------------------------------------===//
// sweep-wide
//===----------------------------------------------------------------------===//

SweepResult perfbench::sweepIteration(const MachineProgram &Puzzle,
                                      const std::vector<SweepPoint> &Points) {
  SweepEngine Engine;
  SimConfig Base;
  Base.Cache = paperCache();
  uint32_t EngineSpan = 0;
  Engine.schedule("Puzzle", "Puzzle", Base, Points,
                  [&Puzzle, &EngineSpan](const SimConfig &Sim) {
                    ScopedSpan S("Simulator::run", EngineSpan);
                    Simulator Sm(Sim);
                    return Sm.run(Puzzle);
                  });
  SweepResult R;
  double Cpu0 = cpuSeconds();
  uint64_t T0 = nowNs();
  {
    ScopedSpan S("SweepEngine::run");
    EngineSpan = S.id();
    Engine.run();
  }
  R.EngineRunS = double(nowNs() - T0) * 1e-9;
  R.EngineCpuS = cpuSeconds() - Cpu0;
  R.Base = Engine.base("Puzzle");
  for (size_t I = 0; I != Points.size(); ++I)
    R.Points.push_back(Engine.point("Puzzle", I));
  return R;
}

void perfbench::checkSweep(const SweepResult &R, const SweepResult *First,
                           Checks &C) {
  const Workload &Puzzle = *findWorkload("Puzzle");
  C.expect(R.Base.ok(), "sweep-wide: base run failed: " + R.Base.Error);
  C.expect(R.Base.CoherenceViolations == 0,
           "sweep-wide: coherence violations in the base run");
  C.expect(matchesExpected(Puzzle, R.Base.Output),
           "sweep-wide: Puzzle output differs from its expected prefix");
  if (First)
    C.expect(R.Points == First->Points && R.Base.Cache == First->Base.Cache &&
                 R.Base.Output == First->Base.Output,
             "sweep-wide: counters differ between iterations");
}

std::vector<TraceEvent>
perfbench::stripHints(const std::vector<TraceEvent> &Trace) {
  std::vector<TraceEvent> Out(Trace);
  for (TraceEvent &E : Out)
    E.Info = TraceEvent::Hints();
  return Out;
}

void perfbench::checkSweepReference(const MachineProgram &Puzzle,
                                    const std::vector<SweepPoint> &Points,
                                    const SweepResult &R, uint64_t Seed,
                                    Checks &C) {
  SimConfig Live;
  Live.Cache = paperCache();
  SimResult LiveRun = Simulator(Live).run(Puzzle);
  SimConfig Rec = Live;
  Rec.RecordTrace = true;
  SimResult Recorded = Simulator(Rec).run(Puzzle);
  C.expect(LiveRun.ok() && Recorded.ok(), "sweep-wide: reference run failed");
  C.expect(replayTrace(Recorded.Trace, Live.Cache, CachePolicy::LRU) ==
               LiveRun.Cache,
           "sweep-wide: base-geometry replay differs from the live "
           "Simulator");
  C.expect(R.Base.Cache == LiveRun.Cache,
           "sweep-wide: engine base counters differ from the live "
           "Simulator");

  // A seeded sample of four distinct points against single-point replay.
  std::vector<size_t> Order(Points.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  SplitMix64 Rng(Seed ^ 0xc4ec4ULL);
  for (size_t I = 0; I + 1 < Order.size(); ++I)
    std::swap(Order[I], Order[I + Rng.nextBelow(Order.size() - I)]);
  std::vector<TraceEvent> Stripped;
  for (size_t K = 0; K != std::min<size_t>(4, Order.size()); ++K) {
    const SweepPoint &P = Points[Order[K]];
    if (P.IgnoreHints && Stripped.empty())
      Stripped = stripHints(Recorded.Trace);
    CacheStats Ref = replayTrace(P.IgnoreHints ? Stripped : Recorded.Trace,
                                 P.Config, P.Policy);
    C.expect(Ref == R.Points[Order[K]],
             "sweep-wide: point '" +
                 describe(P) +
                 "' differs from single-point replayTrace");
  }
}

//===----------------------------------------------------------------------===//
// run-live
//===----------------------------------------------------------------------===//

CompileOptions perfbench::liveOptions() {
  CompileOptions O;
  O.IRGen.ScalarLocalsInMemory = true;
  return O;
}

LiveResult perfbench::liveIteration(const std::vector<LiveCase> &Cases) {
  LiveResult R;
  R.Comparisons.resize(Cases.size());
  CompileOptions Options = liveOptions();
  uint32_t Parent = currentSpan();
  ThreadPool::global().parallelFor(Cases.size(), [&](size_t I) {
    ScopedSpan S("compareSchemes", Parent);
    R.Comparisons[I] =
        compareSchemes(Cases[I].Program->Source, Options, Cases[I].Cache);
  });
  return R;
}

void perfbench::checkLive(const std::vector<LiveCase> &Cases,
                          const LiveResult &R, const LiveResult *First,
                          Checks &C) {
  for (size_t I = 0; I != Cases.size(); ++I) {
    const SchemeComparison &S = R.Comparisons[I];
    const Workload &W = *Cases[I].Program;
    std::string Where = "run-live: " + W.Name + " " +
                        describe(Cases[I].Cache, Cases[I].Cache.Policy) +
                        ": ";
    // compareSchemes fails on unequal scheme outputs or any coherence
    // violation.
    C.expect(S.ok(), Where + S.Error);
    C.expect(matchesExpected(W, S.Unified.Output),
             Where + "output differs from its expected prefix");
    if (First) {
      const SchemeComparison &F = First->Comparisons[I];
      C.expect(S.Unified.Cache == F.Unified.Cache &&
                   S.Conventional.Cache == F.Conventional.Cache &&
                   S.Unified.Output == F.Unified.Output,
               Where + "counters differ between iterations");
    }
  }
}

//===----------------------------------------------------------------------===//
// The report grid
//===----------------------------------------------------------------------===//

ReportGrid perfbench::compileReportGrid(Checks &C) {
  const std::vector<Workload> &Ws = paperWorkloads();
  const std::vector<ReportConfig> &Configs = reportConfigs();
  std::vector<std::vector<std::shared_ptr<MachineProgram>>> Progs(Ws.size());
  std::vector<Checks> Local(Ws.size());
  uint32_t Parent = currentSpan();
  ThreadPool::global().parallelFor(Ws.size(), [&](size_t I) {
    ScopedSpan S("report.compile-workload", Parent);
    for (const ReportConfig &Cfg : Configs)
      Progs[I].push_back(std::make_shared<MachineProgram>(
          compile(Ws[I], Cfg.Options, Local[I]).Program));
    Local[I].expect(sameStreamModuloHints(*Progs[I][0], *Progs[I][1]),
                    Ws[I].Name + ": scheme instruction streams diverge");
  });
  ReportGrid G;
  for (size_t I = 0; I != Ws.size(); ++I) {
    C.merge(Local[I]);
    G.push_back({Ws[I].Name, I, Progs[I][0], reportPoints()});
    G.push_back(
        {Ws[I].Name + "/era-baseline", I, Progs[I][2], {}});
    G.push_back(
        {Ws[I].Name + "/complete-unified", I, Progs[I][3], {}});
  }
  return G;
}

ReportResult perfbench::runReportGrid(const ReportGrid &G,
                                      const std::string &StoreDir,
                                      const std::vector<size_t> &Only) {
  std::vector<size_t> Run = Only;
  if (Run.empty())
    for (size_t I = 0; I != G.size(); ++I)
      Run.push_back(I);

  SweepEngine Engine;
  DiagnosticEngine StoreDiags;
  if (!StoreDir.empty())
    Engine.setTraceStore(StoreDir, &StoreDiags);
  std::atomic<uint64_t> Runs{0}, Steps{0};
  uint32_t EngineSpan = 0;
  const std::vector<Workload> &Ws = paperWorkloads();
  for (size_t I : Run) {
    const ReportExperiment &E = G[I];
    SimConfig Base;
    Base.Cache = paperCache();
    uint64_t Hash = StoreDir.empty() ? 0 : traceContentHash(*E.Prog, Base);
    Engine.schedule(E.Key, Ws[E.Program].Name, Base, E.Points,
                    [Prog = E.Prog, &Runs, &Steps,
                     &EngineSpan](const SimConfig &Sim) {
                      ScopedSpan S("Simulator::run", EngineSpan);
                      Runs.fetch_add(1);
                      SimResult R = Simulator(Sim).run(*Prog);
                      Steps.fetch_add(R.Steps);
                      return R;
                    },
                    Hash);
  }

  ReportResult R;
  double Cpu0 = cpuSeconds();
  uint64_t T0 = nowNs();
  {
    ScopedSpan S("SweepEngine::run");
    EngineSpan = S.id();
    Engine.run();
  }
  R.EngineRunS = double(nowNs() - T0) * 1e-9;
  R.EngineCpuS = cpuSeconds() - Cpu0;
  R.SimulatorRuns = Runs.load();
  R.Steps = Steps.load();
  R.StoreDiagnostics = StoreDiags.diagnostics().size();
  R.Bases.resize(G.size());
  R.Points.resize(G.size());
  for (size_t I : Run) {
    const ReportExperiment &E = G[I];
    R.Bases[I] = Engine.base(E.Key);
    for (size_t P = 0; P != E.Points.size(); ++P)
      R.Points[I].push_back(Engine.point(E.Key, P));
  }
  return R;
}

void perfbench::checkReport(const ReportGrid &G, const ReportResult &R,
                            const ReportResult *First, bool ExpectWarm,
                            Checks &C) {
  const std::vector<Workload> &Ws = paperWorkloads();
  for (size_t I = 0; I != G.size(); ++I) {
    const ReportExperiment &E = G[I];
    const SimResult &B = R.Bases[I];
    C.expect(B.ok(), "report grid: " + E.Key + ": " + B.Error);
    C.expect(B.CoherenceViolations == 0,
             "report grid: " + E.Key + ": coherence violations");
    C.expect(matchesExpected(Ws[E.Program], B.Output),
             "report grid: " + E.Key +
                 ": output differs from its expected prefix");
    if (First)
      C.expect(B.Cache == First->Bases[I].Cache &&
                   B.Output == First->Bases[I].Output &&
                   R.Points[I] == First->Points[I],
               "report grid: " + E.Key + ": counters differ between runs");
  }
  if (ExpectWarm) {
    C.expect(R.SimulatorRuns == 0,
             "report grid: warm store fell back to live simulation");
    C.expect(R.StoreDiagnostics == 0,
             "report grid: the trace store reported diagnostics");
  }
}
