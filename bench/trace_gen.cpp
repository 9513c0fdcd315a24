//===- trace_gen.cpp - Cold trace-generation exhibit ---------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Times the cold path the trace store cannot serve: generating the
// data-reference trace of the six paper workloads by functional
// simulation on the predecoded engine, streamed through a sink exactly
// as a cold sweep does. Each workload is predecoded once and run
// best-of-5 (process CPU time).
//
// Before any timing is trusted, the predecoded run's SimResult and its
// streamed TraceEvent sequence (FNV-1a over the raw 8-byte events,
// order-sensitive) must be bit-identical to the legacy switch
// engine's: a fast path that changed the trace would be timing a
// different experiment.
//
// Rows carry trace_events, ms and ns_per_event; the recap prints the
// same per workload.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "urcm/sim/Predecode.h"

#include <cstring>
#include <ctime>

using namespace urcm;
using namespace urcm::bench;

namespace {

/// Order-sensitive FNV-1a over the packed events; recycles the
/// producer's buffers like any real streaming consumer.
class HashSink final : public TraceSink {
public:
  std::vector<TraceEvent> chunk(std::vector<TraceEvent> Chunk) override {
    for (const TraceEvent &E : Chunk) {
      uint64_t Word;
      std::memcpy(&Word, &E, sizeof(Word));
      Hash = (Hash ^ Word) * 1099511628211ull;
    }
    Events += Chunk.size();
    Chunk.clear();
    return Chunk;
  }

  uint64_t Hash = 1469598103934665603ull;
  uint64_t Events = 0;
};

struct ModeRun {
  SimResult Result;
  uint64_t TraceHash = 0;
  uint64_t TraceEvents = 0;
};

struct Measurement {
  uint64_t TraceEvents = 0;
  double Ms = 0;
  double nsPerEvent() const {
    return TraceEvents ? Ms * 1e6 / static_cast<double>(TraceEvents) : 0.0;
  }
};

/// Process CPU time, not wall time: other tenants time-slice the host,
/// and CPU time of one run is stable enough to take a best-of-N.
double onceMs(const std::function<void()> &Fn) {
  timespec T0, T1;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T0);
  Fn();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T1);
  return (static_cast<double>(T1.tv_sec - T0.tv_sec) * 1e3) +
         (static_cast<double>(T1.tv_nsec - T0.tv_nsec) * 1e-6);
}

void expectIdentical(const std::string &Name, const ModeRun &Fast,
                     const ModeRun &Oracle) {
  const SimResult &A = Fast.Result, &B = Oracle.Result;
  const bool Same =
      A.Halted == B.Halted && A.Error == B.Error && A.Steps == B.Steps &&
      A.Output == B.Output && A.Cache == B.Cache &&
      A.Refs.Unambiguous == B.Refs.Unambiguous &&
      A.Refs.Ambiguous == B.Refs.Ambiguous && A.Refs.Spill == B.Refs.Spill &&
      A.Refs.Unknown == B.Refs.Unknown &&
      A.Refs.Bypassed == B.Refs.Bypassed &&
      A.Refs.LastRefTagged == B.Refs.LastRefTagged &&
      A.InstructionFetches == B.InstructionFetches &&
      A.BypassTransitions == B.BypassTransitions &&
      A.CoherenceViolations == B.CoherenceViolations &&
      Fast.TraceHash == Oracle.TraceHash &&
      Fast.TraceEvents == Oracle.TraceEvents;
  if (!Same) {
    std::fprintf(stderr,
                 "%s: predecoded run diverged from the switch engine; "
                 "timings would measure a different experiment\n",
                 Name.c_str());
    std::abort();
  }
}

Measurement &measurement(const std::string &Name) {
  static std::map<std::string, Measurement> Cache;
  static std::mutex M;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;

  const Workload &W = workloadOrDie(Name);
  DiagnosticEngine Diags;
  CompileResult R = compileProgram(W.Source, figure5Compile(), Diags);
  if (!R.Ok) {
    std::fprintf(stderr, "%s: compilation failed\n%s", Name.c_str(),
                 Diags.str().c_str());
    std::abort();
  }

  auto coldRun = [&](auto Run) {
    ModeRun Out;
    HashSink Sink;
    SimConfig Sim;
    Sim.Cache = paperCache();
    Sim.Sink = &Sink;
    Out.Result = Run(Sim);
    if (!Out.Result.ok()) {
      std::fprintf(stderr, "%s: %s\n", Name.c_str(),
                   Out.Result.Error.c_str());
      std::abort();
    }
    Out.TraceHash = Sink.Hash;
    Out.TraceEvents = Sink.Events;
    return Out;
  };
  const PredecodedProgram PP = predecode(R.Program);
  auto predecoded = [&](const SimConfig &Sim) {
    return Simulator(Sim).run(PP);
  };
  auto legacySwitch = [&](SimConfig Sim) {
    Sim.Engine = SimEngine::Switch;
    return Simulator(Sim).run(R.Program);
  };

  // Correctness before timing: the timed engine must run the same
  // experiment as the oracle, bit for bit, down to the streamed events.
  const ModeRun Fast = coldRun(predecoded);
  expectIdentical(Name, Fast, coldRun(legacySwitch));

  Measurement Out;
  Out.TraceEvents = Fast.TraceEvents;
  Out.Ms = 1e300;
  for (int Rep = 0; Rep != 5; ++Rep)
    Out.Ms = std::min(Out.Ms, onceMs([&] { coldRun(predecoded); }));
  return Cache.emplace(Name, std::move(Out)).first->second;
}

void rowFor(benchmark::State &State, const std::string &Name) {
  for (auto _ : State) {
    Measurement &M = measurement(Name);
    benchmark::DoNotOptimize(&M);
  }
  Measurement &M = measurement(Name);
  State.counters["trace_events"] = static_cast<double>(M.TraceEvents);
  State.counters["ms"] = M.Ms;
  State.counters["ns_per_event"] = M.nsPerEvent();
}

void summary() {
  std::printf("\nCold trace generation: streamed functional simulation on "
              "the predecoded engine (best of 5 CPU-time; results and "
              "streamed traces verified bit-identical to the switch "
              "engine)\n");
  std::printf("%-8s %10s %10s %9s\n", "bench", "events", "ms", "ns/event");
  for (const std::string &Name : workloadNames()) {
    Measurement &M = measurement(Name);
    std::printf("%-8s %10llu %10.1f %9.2f\n", Name.c_str(),
                static_cast<unsigned long long>(M.TraceEvents), M.Ms,
                M.nsPerEvent());
  }
}
} // namespace

int main(int argc, char **argv) {
  for (const std::string &Name : workloadNames())
    benchmark::RegisterBenchmark(
        ("TraceGen/" + Name).c_str(),
        [Name](benchmark::State &State) { rowFor(State, Name); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  summary();
  return 0;
}
