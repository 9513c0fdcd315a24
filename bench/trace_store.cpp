//===- trace_store.cpp - Persistent trace store exhibit ------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// Measures the persistent compressed trace store (urcm/sim/TraceStore.h)
// on the record-once/replay-everywhere cycle it exists for: each paper
// workload runs one fig5-shaped sweep COLD (live simulation, trace teed
// into the store) and then WARM (trace decoded from the store, the
// Simulator never invoked). Three invariants are asserted on the
// reported numbers before any timing is trusted:
//
//  * warm counters are bit-identical to cold at every sweep point;
//  * the encoded file is at most 1/3 of the raw 8-byte-per-event trace
//    (the ISSUE.md compression floor, checked per workload);
//  * a warm run leaves the producer uninvoked (sim.store.hits ≥ 1 is
//    asserted indirectly — the timing itself would be meaningless
//    otherwise, since warm would just be a second cold).
//
// Rows carry trace_events, encoded vs raw bytes, the compress ratio,
// and cold/warm wall times with the warm speedup. Warm time is best of
// three (decode+replay only); cold is a single run (a second cold run
// would be served warm).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "urcm/sim/TraceStore.h"

#include <atomic>
#include <chrono>
#include <filesystem>

using namespace urcm;
using namespace urcm::bench;

namespace {

/// The fig5-shaped grid every workload sweeps: paper geometry and its
/// size neighbours, hinted and hint-stripped. All points are streaming
/// eligible, so warm replay overlaps decode with consumption.
std::vector<SweepPoint> grid() {
  std::vector<SweepPoint> G;
  for (uint32_t Lines : {32u, 64u, 128u, 256u, 512u}) {
    CacheConfig C = paperCache();
    C.NumLines = Lines;
    G.push_back({C, CachePolicy::LRU, /*IgnoreHints=*/false});
    G.push_back({C, CachePolicy::LRU, /*IgnoreHints=*/true});
  }
  return G;
}

struct Measurement {
  uint64_t TraceEvents = 0;
  uint64_t EncodedBytes = 0;
  double ColdMs = 0;
  double WarmMs = 0;
};

double onceMs(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
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
  auto Prog = std::make_shared<MachineProgram>(std::move(R.Program));
  auto Producer = [Prog, Name](const SimConfig &Config) {
    Simulator S(Config);
    SimResult Res = S.run(*Prog);
    if (!Res.ok()) {
      std::fprintf(stderr, "%s: %s\n", Name.c_str(), Res.Error.c_str());
      std::abort();
    }
    return Res;
  };

  SimConfig Base;
  Base.Cache = paperCache();
  const uint64_t Hash = traceContentHash(*Prog, Base);
  const std::vector<SweepPoint> Grid = grid();
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("urcm_bench_store." + std::to_string(::getpid()));
  std::filesystem::create_directories(Dir);

  Measurement Out;
  DiagnosticEngine StoreDiags;
  SweepEngine Cold;
  Cold.setTraceStore(Dir.string(), &StoreDiags);
  Cold.schedule(Name, Name, Base, Grid, Producer, Hash);
  Out.ColdMs = onceMs([&] { Cold.run(); });

  const std::string Path = traceStorePath(Dir.string(), Hash);
  Out.EncodedBytes = std::filesystem::file_size(Path);
  {
    DiagnosticEngine D;
    TraceStoreReader Reader;
    if (Reader.open(Path, Hash, D) != TraceStoreReader::OpenStatus::Ok) {
      std::fprintf(stderr, "%s: cold run left no readable store file\n%s",
                   Name.c_str(), D.str().c_str());
      std::abort();
    }
    Out.TraceEvents = Reader.eventCount();
  }
  // The ISSUE.md compression floor: encoded ≤ 1/3 of raw 8 B/event.
  if (Out.EncodedBytes * 3 > Out.TraceEvents * 8) {
    std::fprintf(stderr, "%s: encoded %llu B exceeds 1/3 of raw %llu B\n",
                 Name.c_str(),
                 static_cast<unsigned long long>(Out.EncodedBytes),
                 static_cast<unsigned long long>(Out.TraceEvents * 8));
    std::abort();
  }

  Out.WarmMs = 1e300;
  for (int Rep = 0; Rep != 3; ++Rep) {
    SweepEngine Warm;
    Warm.setTraceStore(Dir.string(), &StoreDiags);
    Warm.schedule(Name, Name, Base, Grid, Producer, Hash);
    Out.WarmMs = std::min(Out.WarmMs, onceMs([&] { Warm.run(); }));
    // The exhibit's correctness invariant: warm == cold, bit for bit.
    for (size_t I = 0; I != Grid.size(); ++I)
      if (!(Warm.point(Name, I) == Cold.point(Name, I))) {
        std::fprintf(stderr,
                     "%s: warm replay diverged from cold at point %zu\n",
                     Name.c_str(), I);
        std::abort();
      }
  }
  if (StoreDiags.hasErrors()) {
    std::fprintf(stderr, "%s: store diagnostics:\n%s", Name.c_str(),
                 StoreDiags.str().c_str());
    std::abort();
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  return Cache.emplace(Name, std::move(Out)).first->second;
}

void rowFor(benchmark::State &State, const std::string &Name) {
  for (auto _ : State) {
    Measurement &M = measurement(Name);
    benchmark::DoNotOptimize(&M);
  }
  Measurement &M = measurement(Name);
  const double Raw = static_cast<double>(M.TraceEvents) * 8.0;
  State.counters["trace_events"] = static_cast<double>(M.TraceEvents);
  State.counters["raw_bytes"] = Raw;
  State.counters["encoded_bytes"] = static_cast<double>(M.EncodedBytes);
  State.counters["compress_ratio"] =
      Raw == 0 ? 0 : static_cast<double>(M.EncodedBytes) / Raw;
  State.counters["cold_ms"] = M.ColdMs;
  State.counters["warm_ms"] = M.WarmMs;
  State.counters["speedup_warm_vs_cold"] = M.ColdMs / M.WarmMs;
}

void summary() {
  std::printf("\nPersistent trace store: record once (cold), replay "
              "everywhere (warm, best of 3; %zu-point grid)\n",
              grid().size());
  std::printf("%-8s %10s %9s %9s %7s %8s %8s %8s\n", "bench", "events",
              "raw-KB", "enc-KB", "ratio", "cold-ms", "warm-ms", "speedup");
  for (const std::string &Name : workloadNames()) {
    Measurement &M = measurement(Name);
    std::printf("%-8s %10llu %9.0f %9.0f %6.1f%% %8.1f %8.1f %7.2fx\n",
                Name.c_str(),
                static_cast<unsigned long long>(M.TraceEvents),
                static_cast<double>(M.TraceEvents) * 8.0 / 1024.0,
                static_cast<double>(M.EncodedBytes) / 1024.0,
                100.0 * static_cast<double>(M.EncodedBytes) /
                    (static_cast<double>(M.TraceEvents) * 8.0),
                M.ColdMs, M.WarmMs, M.ColdMs / M.WarmMs);
  }
  std::printf("(warm counters verified bit-identical to cold at every "
              "point; encoded size asserted <= 1/3 of raw)\n");
}

} // namespace

int main(int argc, char **argv) {
  for (const std::string &Name : workloadNames())
    benchmark::RegisterBenchmark(
        ("TraceStore/" + Name).c_str(),
        [Name](benchmark::State &State) { rowFor(State, Name); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  summary();
  return 0;
}
