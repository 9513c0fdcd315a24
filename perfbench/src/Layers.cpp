//===- perfbench/src/Layers.cpp - The traced run -------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The traced run of one workload. It runs every experiment of the
// workload alone (the critical path), then the workload's iteration twice
// untraced and twice traced (the difference is the tracing overhead), then
// times each layer on the workload's own inputs with a span around every
// call into the module that owns the layer:
//
//   compile  parseAndAnalyze, generateIR, each pass of the PassManager
//            pipeline (promote, regalloc, unified, codegen) and the
//            verifier it runs between passes, then compileProgram;
//   sim      predecode and Simulator::run;
//   store    TraceStoreWriter::append/commit, TraceStoreReader::open/next,
//            streamStoredTrace;
//   replay   replayTrace per policy, sweepLRUStackDistance,
//            SweepPointStream::feed/finish, replaySweepPoints and
//            ShardedSweepStream::feed/finish;
//   sweep    SweepEngine::run over the workload's experiments, and every
//            experiment run alone for the critical path.
//
// The compile layer always uses the report's 24 pipelines, the one set
// that runs every pass kind. The sim, store and replay probes use the
// program that dominates the workload: Towers for the report workloads
// and run-live, Puzzle for sweep-wide. Probe traces are capped at 2^22
// events so a traced run stays within a few times an untraced one.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Spans.h"

#include "urcm/ir/Verifier.h"
#include "urcm/lang/Sema.h"
#include "urcm/pass/Passes.h"
#include "urcm/pass/Pipeline.h"
#include "urcm/sim/Predecode.h"
#include "urcm/sim/ShardedReplay.h"
#include "urcm/sim/TraceStore.h"
#include "urcm/support/Telemetry.h"
#include "urcm/support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

using namespace urcm;
using namespace perfbench;

namespace {

constexpr size_t ProbeEventCap = size_t(1) << 22;
constexpr size_t ChunkEvents = size_t(1) << 16;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double secondsSince(uint64_t T0) { return double(nowNs() - T0) * 1e-9; }

class Metrics {
public:
  void set(const std::string &Name, double Value) { Values[Name] = Value; }
  std::string json() const {
    Json J;
    for (const auto &[Name, Value] : Values)
      J.num(Name, Value);
    return J.str();
  }

private:
  std::map<std::string, double> Values;
};

//===----------------------------------------------------------------------===//
// Compile layer
//===----------------------------------------------------------------------===//

std::unique_ptr<Pass> createPassNamed(const std::string &Name) {
  if (Name == "promote")
    return createPromotePass();
  if (Name == "cleanup")
    return createCleanupPass();
  if (Name == "regalloc")
    return createRegAllocPass();
  if (Name == "unified")
    return createUnifiedManagementPass();
  if (Name == "codegen")
    return createCodeGenPass();
  return nullptr;
}

/// Span names must outlive the recorder; one per pass kind.
const char *passSpanName(const std::string &Name) {
  static const std::map<std::string, const char *> Names = {
      {"promote", "pass.promote"},   {"cleanup", "pass.cleanup"},
      {"regalloc", "pass.regalloc"}, {"unified", "pass.unified"},
      {"codegen", "pass.codegen"}};
  auto It = Names.find(Name);
  return It == Names.end() ? "pass.other" : It->second;
}

struct CompileLayer {
  std::map<std::string, double> Us; ///< Per-phase microseconds.
  uint64_t IRInsts = 0, Spills = 0, MInsts = 0;
};

bool verifyTimed(const IRModule &M, DiagnosticEngine &Diags,
                 CompileLayer &L) {
  uint64_t T0 = nowNs();
  ScopedSpan S("verifyModule");
  bool Ok = verifyModule(M, Diags);
  L.Us["pass.verify_us"] += double(nowNs() - T0) * 1e-3;
  return Ok;
}

/// One compile, phase by phase, the way compileProgram sequences it
/// (frontend, IR generation, then the pass pipeline with verification of
/// the input and after every pass that did not preserve all analyses).
/// Returns the machine code size, or 0 on failure.
size_t compileByPhase(const Workload &W, const CompileOptions &O,
                      CompileLayer &L, Checks &C) {
  DiagnosticEngine Diags;
  uint64_t T0 = nowNs();
  std::unique_ptr<TranslationUnit> TU;
  {
    ScopedSpan S("parseAndAnalyze");
    TU = parseAndAnalyze(W.Source, Diags);
  }
  L.Us["lang.frontend_us"] += double(nowNs() - T0) * 1e-3;
  if (!TU) {
    C.expect(false, W.Name + ": frontend failed: " + Diags.str());
    return 0;
  }
  T0 = nowNs();
  std::unique_ptr<IRModule> M;
  {
    ScopedSpan S("generateIR");
    M = generateIR(*TU, Diags, O.IRGen);
  }
  L.Us["irgen.us"] += double(nowNs() - T0) * 1e-3;
  if (!M) {
    C.expect(false, W.Name + ": IR generation failed: " + Diags.str());
    return 0;
  }
  for (const auto &F : M->functions())
    for (const auto &B : F->blocks())
      L.IRInsts += B->insts().size();

  PipelineState State;
  State.Transforms = O.Transforms;
  State.RegAlloc = O.RegAlloc;
  State.Scheme = O.Scheme;
  State.CodeGen.Hints = O.Scheme;
  State.CodeGen.GlobalBase = O.GlobalBase;
  State.CodeGen.StackTop = O.StackTop;
  State.Diags = &Diags;
  AnalysisManager AM(*M);
  if (O.VerifyIR && !verifyTimed(*M, Diags, L)) {
    C.expect(false, W.Name + ": input IR does not verify");
    return 0;
  }
  std::string Text = defaultPipelineText(O.PromoteLoopScalars, O.RunCleanup);
  size_t Begin = 0;
  while (Begin <= Text.size()) {
    size_t End = std::min(Text.find(',', Begin), Text.size());
    std::string Name = Text.substr(Begin, End - Begin);
    Begin = End + 1;
    std::unique_ptr<Pass> P = createPassNamed(Name);
    if (!P) {
      C.expect(false, "compile layer: unknown pass '" + Name + "'");
      return 0;
    }
    T0 = nowNs();
    PreservedAnalyses PA;
    {
      ScopedSpan S(passSpanName(Name));
      PA = P->run(*M, AM, State);
    }
    L.Us["pass." + Name + "_us"] += double(nowNs() - T0) * 1e-3;
    if (State.Failed) {
      C.expect(false, W.Name + ": pass " + Name + " failed: " + Diags.str());
      return 0;
    }
    AM.invalidate(PA);
    if (O.VerifyIR && !PA.areAllPreserved() && !verifyTimed(*M, Diags, L)) {
      C.expect(false, W.Name + ": IR does not verify after " + Name);
      return 0;
    }
  }
  L.Spills += State.Alloc.NumSpilledWebs;
  L.MInsts += State.Program.Code.size();
  return State.Program.Code.size();
}

void compileLayer(Metrics &Out, Checks &C) {
  const int Reps = 3;
  std::map<std::string, std::vector<double>> PerRep;
  CompileLayer Last;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    CompileLayer L;
    double DriverMs = 0;
    for (const Workload &W : paperWorkloads())
      for (const ReportConfig &Cfg : reportConfigs()) {
        size_t Size = compileByPhase(W, Cfg.Options, L, C);
        uint64_t T0 = nowNs();
        CompileResult R = compile(W, Cfg.Options, C);
        DriverMs += double(nowNs() - T0) * 1e-6;
        C.expect(R.Ok && R.Program.Code.size() == Size,
                 W.Name + " (" + Cfg.Name +
                     "): phase-by-phase compile differs from "
                     "compileProgram");
      }
    for (const auto &[Name, Us] : L.Us)
      PerRep[Name].push_back(Us);
    PerRep["driver.compile_ms"].push_back(DriverMs);
    Last = L;
  }
  for (const auto &[Name, Values] : PerRep)
    Out.set(Name, median(Values));
  Out.set("irgen.ir_insts", double(Last.IRInsts));
  Out.set("regalloc.spills", double(Last.Spills));
  Out.set("codegen.minsts", double(Last.MInsts));
}

//===----------------------------------------------------------------------===//
// Simulator, store and replay layers
//===----------------------------------------------------------------------===//

/// Times the interpreter on \p Prog; returns a recorded trace (capped at
/// ProbeEventCap) for the later probes.
std::vector<TraceEvent> simLayer(const MachineProgram &Prog, bool Record,
                                 Metrics &Out, Checks &C,
                                 SimResult &Summary) {
  std::vector<double> PredecodeUs;
  for (int I = 0; I != 5; ++I) {
    uint64_t T0 = nowNs();
    ScopedSpan S("predecode");
    PredecodedProgram PP = predecode(Prog);
    PredecodeUs.push_back(double(nowNs() - T0) * 1e-3);
    C.expect(PP.codeSize() != 0, "sim layer: predecode produced no code");
  }
  Out.set("sim.predecode_us", median(PredecodeUs));

  SimConfig Config;
  Config.Cache = paperCache();
  Config.RecordTrace = Record;
  std::vector<double> Secs;
  SimResult R;
  for (int I = 0; I != 3; ++I) {
    uint64_t T0 = nowNs();
    {
      ScopedSpan S("Simulator::run");
      R = Simulator(Config).run(Prog);
    }
    Secs.push_back(secondsSince(T0));
    C.expect(R.ok() && R.CoherenceViolations == 0,
             "sim layer: simulation failed: " + R.Error);
  }
  double S = median(Secs);
  uint64_t Refs = R.Refs.total();
  Out.set("sim.steps", double(R.Steps));
  Out.set("sim.refs", double(Refs));
  Out.set("sim.interp_ns_per_step", R.Steps ? S * 1e9 / double(R.Steps) : 0);
  Out.set("sim.interp_ns_per_ref", Refs ? S * 1e9 / double(Refs) : 0);

  if (!Record) {
    Config.RecordTrace = true;
    R = Simulator(Config).run(Prog);
  }
  std::vector<TraceEvent> Trace = std::move(R.Trace);
  R.Trace.clear();
  Summary = R;
  if (Trace.size() > ProbeEventCap) {
    Trace.resize(ProbeEventCap);
    Trace.shrink_to_fit();
  }
  C.expect(!Trace.empty(), "sim layer: recorded trace is empty");
  return Trace;
}

void storeLayer(const std::vector<TraceEvent> &Trace,
                const MachineProgram &Prog, const SimResult &Summary,
                const std::string &Dir, Metrics &Out, Checks &C) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  DiagnosticEngine Diags;
  SimConfig Config;
  Config.Cache = paperCache();
  uint64_t Hash = traceContentHash(Prog, Config);
  const double N = double(Trace.size());

  TraceStoreWriter Writer;
  bool Ok = Writer.open(Dir, Hash, Diags);
  uint64_t T0 = nowNs();
  for (size_t I = 0; Ok && I < Trace.size(); I += ChunkEvents) {
    ScopedSpan S("TraceStoreWriter::append");
    Writer.append(Trace.data() + I, std::min(ChunkEvents, Trace.size() - I));
  }
  {
    ScopedSpan S("TraceStoreWriter::commit");
    Ok = Ok && Writer.commit(Summary, Diags);
  }
  Out.set("sim.store.encode_ns_per_ref", secondsSince(T0) * 1e9 / N);
  Out.set("sim.store.bytes_per_ref", double(Writer.bytesWritten()) / N);
  C.expect(Ok, "store layer: write failed: " + Diags.str());

  TraceStoreReader Reader;
  T0 = nowNs();
  TraceStoreReader::OpenStatus Status;
  {
    ScopedSpan S("TraceStoreReader::open");
    Status = Reader.open(traceStorePath(Dir, Hash), Hash, Diags);
  }
  Out.set("sim.store.open_ms", secondsSince(T0) * 1e3);
  C.expect(Status == TraceStoreReader::OpenStatus::Ok,
           "store layer: open failed: " + Diags.str());
  if (Status != TraceStoreReader::OpenStatus::Ok)
    return;

  std::vector<TraceEvent> Chunk;
  size_t Seen = 0;
  bool Same = true;
  double DecodeS = 0;
  for (;;) {
    T0 = nowNs();
    bool More;
    {
      ScopedSpan S("TraceStoreReader::next");
      More = Reader.next(Chunk);
    }
    DecodeS += secondsSince(T0);
    if (!More)
      break;
    Same = Same && Seen + Chunk.size() <= Trace.size() &&
           std::equal(Chunk.begin(), Chunk.end(), Trace.begin() + Seen,
                      [](const TraceEvent &A, const TraceEvent &B) {
                        return A.Addr == B.Addr && A.IsWrite == B.IsWrite &&
                               A.Info.Bypass == B.Info.Bypass &&
                               A.Info.LastRef == B.Info.LastRef &&
                               A.RefId == B.RefId;
                      });
    Seen += Chunk.size();
  }
  Out.set("sim.store.decode_ns_per_ref", DecodeS * 1e9 / N);
  C.expect(Same && Seen == Trace.size() && !Reader.failed(),
           "store layer: decoded trace differs from the recorded one");

  Reader.rewind();
  size_t Streamed = 0;
  T0 = nowNs();
  bool StreamOk;
  {
    ScopedSpan S("streamStoredTrace");
    StreamOk = streamStoredTrace(
        Reader, [&](const TraceEvent *, size_t Count) { Streamed += Count; });
  }
  Out.set("sim.store.stream_ns_per_ref", secondsSince(T0) * 1e9 / N);
  C.expect(StreamOk && Streamed == Trace.size(),
           "store layer: streamed event count differs");
  std::filesystem::remove_all(Dir, EC);
}

const char *policyKey(CachePolicy P) {
  switch (P) {
  case CachePolicy::LRU:
    return "lru";
  case CachePolicy::FIFO:
    return "fifo";
  case CachePolicy::Random:
    return "random";
  case CachePolicy::MIN:
    return "min";
  case CachePolicy::TreePLRU:
    return "tree-plru";
  case CachePolicy::SRRIP:
    return "srrip";
  case CachePolicy::LivenessBypass:
    return "liveness-bypass";
  }
  return "unknown";
}

/// Feeds \p Trace to \p Stream in ChunkEvents pieces, one span each.
template <typename StreamT>
std::vector<CacheStats> feedChunks(StreamT &Stream,
                                   const std::vector<TraceEvent> &Trace,
                                   const char *FeedSpan,
                                   const char *FinishSpan) {
  for (size_t I = 0; I < Trace.size(); I += ChunkEvents) {
    ScopedSpan S(FeedSpan);
    Stream.feed(Trace.data() + I, std::min(ChunkEvents, Trace.size() - I));
  }
  ScopedSpan S(FinishSpan);
  return Stream.finish();
}

/// Reads one counter out of the program's own telemetry snapshot.
double telemetryCounter(const std::string &Name) {
  std::string Snap = telemetry::snapshotJSON();
  size_t At = Snap.find("\"" + Name + "\": ");
  return At == std::string::npos
             ? 0
             : std::strtod(Snap.c_str() + At + Name.size() + 4, nullptr);
}

/// \p PolicyPoints are the geometries each per-policy figure averages
/// over; \p Points is the multi-point set (the workload's own sweep).
void replayLayer(const std::vector<TraceEvent> &Trace,
                 const std::vector<SweepPoint> &PolicyPoints,
                 const std::vector<SweepPoint> &Points, Metrics &Out,
                 Checks &C) {
  const double N = double(Trace.size());
  std::vector<TraceEvent> Stripped = stripHints(Trace);
  for (CachePolicy P : allPolicies()) {
    double Secs = 0, Events = 0;
    for (const SweepPoint &Pt : PolicyPoints) {
      if (Pt.Policy != P)
        continue;
      uint64_t T0 = nowNs();
      {
        ScopedSpan S("replayTrace");
        replayTrace(Pt.IgnoreHints ? Stripped : Trace, Pt.Config, P);
      }
      Secs += secondsSince(T0);
      Events += N;
    }
    Out.set(std::string("sim.replay.") + policyKey(P) + "_ns_per_ref",
            Events ? Secs * 1e9 / Events : 0);
  }

  std::vector<uint32_t> Sizes;
  for (uint32_t L = 16; L <= 1024; L *= 2)
    Sizes.push_back(L);
  uint64_t T0 = nowNs();
  {
    ScopedSpan S("sweepLRUStackDistance");
    sweepLRUStackDistance(Trace, Sizes);
  }
  Out.set("sim.replay.stackdist_ns_per_ref_point",
          secondsSince(T0) * 1e9 / (N * double(Sizes.size())));

  const double NP = N * double(Points.size());
  T0 = nowNs();
  std::vector<CacheStats> Multi;
  {
    SweepPointStream Stream(Points, &Trace, /*AllowStackFastPath=*/false);
    Multi = feedChunks(Stream, Trace, "SweepPointStream::feed",
                       "SweepPointStream::finish");
  }
  Out.set("sim.replay.multi_ns_per_ref_point", secondsSince(T0) * 1e9 / NP);

  T0 = nowNs();
  std::vector<CacheStats> Sequential;
  {
    ScopedSpan S("replaySweepPoints");
    Sequential = replaySweepPoints(Trace, Points);
  }
  double SeqS = secondsSince(T0);
  C.expect(Sequential == Multi,
           "replay layer: replaySweepPoints differs from SweepPointStream");

  // The program's own counter is the only view of demux time, which
  // happens inside ShardedSweepStream::feed.
  unsigned Width = ThreadPool::global().size();
  telemetry::reset();
  telemetry::setEnabled(true);
  T0 = nowNs();
  std::vector<CacheStats> Sharded;
  {
    ShardedSweepStream Stream(Points, Width, nullptr, &Trace);
    Sharded = feedChunks(Stream, Trace, "ShardedSweepStream::feed",
                         "ShardedSweepStream::finish");
  }
  double ShardS = secondsSince(T0);
  telemetry::setEnabled(false);
  Out.set("sim.shard.demux_ns_per_ref",
          telemetryCounter("sim.shard.demux-ns") / N);
  telemetry::reset();
  Out.set("sim.shard.speedup", SeqS / ShardS);
  C.expect(Sharded == Sequential,
           "replay layer: sharded replay differs from sequential replay");
}

//===----------------------------------------------------------------------===//
// Workload iterations and the critical path
//===----------------------------------------------------------------------===//

struct Iteration {
  double UntracedS = 0, TracedS = 0;
  double RunS = 0, BusyS = 0;
  uint32_t TracedRun = 0;
  size_t Experiments = 0, Points = 0;
  /// Each experiment run alone: the critical-path record.
  std::vector<std::pair<std::string, double>> Units;
};

/// Runs \p Body four times: untraced, traced, traced, untraced, so a
/// linear drift in machine speed cancels out of the tracing overhead.
/// Body(K) gets the iteration index; K == 1 is the traced iteration whose
/// spans and engine figures are reported. Callers run the critical-path
/// units first, so every timed iteration starts from a warm process.
template <typename Fn> void abba(Iteration &It, Fn Body) {
  for (int K = 0; K != 4; ++K) {
    bool IsTraced = K == 1 || K == 2;
    setTracing(IsTraced);
    uint32_t Run = newRun();
    if (K == 1)
      It.TracedRun = Run;
    uint64_t T0 = nowNs();
    Body(K);
    (IsTraced ? It.TracedS : It.UntracedS) += secondsSince(T0) / 2;
  }
  setTracing(true);
}

void reportIteration(bool Warm, const std::string &StoreDir, Iteration &It,
                     Checks &C) {
  ReportGrid Grid = compileReportGrid(C);
  const std::string Store = Warm ? StoreDir : "";
  ReportResult First;
  if (Warm) {
    std::error_code EC;
    std::filesystem::remove_all(StoreDir, EC);
    First = runReportGrid(Grid, StoreDir);
    checkReport(Grid, First, nullptr, false, C);
  }
  for (size_t I = 0; I != Grid.size(); ++I)
    It.Units.emplace_back(
        Grid[I].Key,
        runReportGrid(Grid, Store, std::vector<size_t>{I}).EngineRunS);

  abba(It, [&](int K) {
    ScopedSpan S("report.iteration");
    ReportGrid G = compileReportGrid(C);
    ReportResult R = runReportGrid(G, Store);
    checkReport(G, R, Warm || K != 0 ? &First : nullptr, Warm, C);
    if (K == 1) {
      It.RunS = R.EngineRunS;
      It.BusyS = R.EngineCpuS;
    }
    if (!Warm && K == 0)
      First = std::move(R);
  });
  It.Experiments = Grid.size();
  for (const ReportExperiment &E : Grid)
    It.Points += E.Points.size();
  std::error_code EC;
  std::filesystem::remove_all(StoreDir, EC);
}

void sweepLayerIteration(const MachineProgram &Puzzle,
                         const std::vector<SweepPoint> &Points,
                         Iteration &It, Checks &C) {
  // sweep-wide is a single experiment: its critical path is the
  // experiment run alone.
  It.Units.emplace_back("Puzzle", sweepIteration(Puzzle, Points).EngineRunS);
  SweepResult First;
  abba(It, [&](int K) {
    ScopedSpan S("sweep.iteration");
    SweepResult R = sweepIteration(Puzzle, Points);
    checkSweep(R, K != 0 ? &First : nullptr, C);
    if (K == 1) {
      It.RunS = R.EngineRunS;
      It.BusyS = R.EngineCpuS;
    }
    if (K == 0)
      First = std::move(R);
  });
  It.Experiments = 1;
  It.Points = Points.size();
}

/// run-live has no SweepEngine; its "experiments" are the comparisons it
/// spreads over the global pool.
void liveLayerIteration(const std::vector<LiveCase> &Cases, Iteration &It,
                        Checks &C) {
  CompileOptions Options = liveOptions();
  for (const LiveCase &Case : Cases) {
    uint64_t T0 = nowNs();
    compareSchemes(Case.Program->Source, Options, Case.Cache);
    It.Units.emplace_back(Case.Program->Name + " " +
                              describe(Case.Cache, Case.Cache.Policy),
                          secondsSince(T0));
  }
  LiveResult First;
  abba(It, [&](int K) {
    ScopedSpan S("live.iteration");
    double Cpu0 = cpuSeconds();
    uint64_t T0 = nowNs();
    LiveResult R = liveIteration(Cases);
    if (K == 1) {
      It.RunS = secondsSince(T0);
      It.BusyS = cpuSeconds() - Cpu0;
    }
    checkLive(Cases, R, K != 0 ? &First : nullptr, C);
    if (K == 0)
      First = std::move(R);
  });
  It.Experiments = It.Points = Cases.size();
}

} // namespace

int runLayers(const std::string &Workload, uint64_t Seed,
              const std::string &RunDir) {
  const bool Report = Workload == "report-cold" || Workload == "report-warm";
  if (!Report && Workload != "sweep-wide" && Workload != "run-live") {
    std::fprintf(stderr, "urcm_perfbench: unknown workload '%s'\n",
                 Workload.c_str());
    return 2;
  }
  Checks C;
  Metrics Out;
  setTracing(false);

  // The critical path, then the workload's iteration untraced and traced.
  Iteration It;
  const char *Principal = Workload == "sweep-wide" ? "Puzzle" : "Towers";
  CompileResult Prog = compile(*findWorkload(Principal), fig5Options(), C);
  std::vector<SweepPoint> Points = reportPoints(), PolicyPoints;
  if (Report) {
    reportIteration(Workload == "report-warm", RunDir + "/layers-store", It,
                    C);
  } else if (Workload == "sweep-wide") {
    Points = sweepGrid(Seed);
    if (Prog.Ok)
      sweepLayerIteration(Prog.Program, Points, It, C);
    PolicyPoints = Points;
  } else {
    std::vector<LiveCase> Cases = liveCases(Seed);
    liveLayerIteration(Cases, It, C);
    Points.clear();
    for (const LiveCase &Case : Cases)
      if (Case.Program->Name == Principal) {
        SweepPoint P;
        P.Config = Case.Cache;
        P.Policy = Case.Cache.Policy;
        Points.push_back(P);
      }
  }
  if (PolicyPoints.empty())
    for (CachePolicy P : allPolicies()) {
      SweepPoint Pt;
      Pt.Config = paperCache();
      Pt.Config.Policy = P;
      Pt.Policy = P;
      PolicyPoints.push_back(Pt);
    }

  unsigned Width = ThreadPool::global().size();
  auto Longest = std::max_element(
      It.Units.begin(), It.Units.end(),
      [](const auto &A, const auto &B) { return A.second < B.second; });
  Out.set("trace.overhead_s", It.TracedS - It.UntracedS);
  Out.set("sweep.run_s", It.RunS);
  Out.set("sweep.busy_cpu_s", It.BusyS);
  Out.set("sweep.parallel_efficiency",
          It.RunS > 0 ? It.BusyS / (It.RunS * Width) : 0);
  Out.set("sweep.critical_path_s",
          Longest == It.Units.end() ? 0 : Longest->second);
  Out.set("sweep.experiments", double(It.Experiments));
  Out.set("sweep.points", double(It.Points));

  // Layer probes.
  newRun();
  compileLayer(Out, C);
  if (Prog.Ok) {
    SimResult Summary;
    std::vector<TraceEvent> Trace = simLayer(
        Prog.Program, Workload != "run-live", Out, C, Summary);
    if (!Trace.empty()) {
      storeLayer(Trace, Prog.Program, Summary, RunDir + "/layers-probe",
                 Out, C);
      replayLayer(Trace, PolicyPoints, Points, Out, C);
    }
  }
  // Per-span total and self time of the traced iteration.
  std::map<std::string, SpanTotals> Totals = spanTotals(It.TracedRun);

  std::string SpansFile = RunDir + "/spans-" + Workload + ".json";
  C.expect(writeSpans(SpansFile), "cannot write " + SpansFile);

  std::string Units = "[";
  for (size_t I = 0; I != It.Units.size(); ++I)
    Units += (I ? ", [" : "[") + quote(It.Units[I].first) + ", " +
             std::to_string(It.Units[I].second) + "]";
  Units += "]";
  std::string SelfTable = "{";
  for (const auto &[Name, T] : Totals)
    SelfTable += (SelfTable.size() > 1 ? ", " : "") + quote(Name) +
                 ": [" + std::to_string(T.Count) + ", " +
                 std::to_string(T.TotalS) + ", " + std::to_string(T.SelfS) +
                 "]";
  SelfTable += "}";

  Json J;
  J.raw("metrics", Out.json())
      .num("attempted", double(C.attempted()))
      .num("failed", double(C.failed()))
      .strings("errors", C.messages())
      .num("untraced_s", It.UntracedS)
      .num("traced_s", It.TracedS)
      .num("pool_width", Width)
      .raw("critical_path", Units)
      .raw("spans", SelfTable)
      .raw("spans_file", quote(SpansFile));
  std::printf("%s\n", J.str().c_str());
  return 0;
}
