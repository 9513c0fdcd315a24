//===- perfbench/src/main.cpp - The in-process benchmark program -------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The part of the benchmark that runs inside one process. perfbench/run.py
// starts it; the last line it prints on stdout is one JSON object.
//
//   urcm_perfbench sweep  --seed N --seconds S [--setups K]
//   urcm_perfbench live   --seed N --seconds S [--setups K]
//   urcm_perfbench layers --workload W --seed N --run-dir DIR
//
// sweep and live are the timed, untraced runs of the sweep-wide and
// run-live workloads: K set-up repetitions, then closed-loop iterations
// (one client, the next iteration after the previous one ends) for S
// seconds and at least three samples, then the reference checks. layers
// is the traced run of workload W (see Layers.cpp).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace urcm;
using namespace perfbench;

int runLayers(const std::string &Workload, uint64_t Seed,
              const std::string &RunDir);

namespace {

constexpr size_t MinSamples = 3;

struct Timed {
  std::vector<double> Setup, Wall, Cpu;
  double PeakRssMb = 0;
  std::vector<std::string> Draws;
  Checks C;
};

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N == 0 ? 0.0 : N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Runs \p Iter in a closed loop for \p Seconds (and MinSamples). An
/// iteration starts only if one of median length still ends inside the
/// window.
template <typename Fn> void timedLoop(Timed &T, double Seconds, Fn Iter) {
  uint64_t Start = nowNs();
  while (T.Wall.size() < MinSamples ||
         double(nowNs() - Start) * 1e-9 + medianOf(T.Wall) <= Seconds) {
    newRun();
    double Cpu0 = cpuSeconds();
    uint64_t T0 = nowNs();
    Iter();
    T.Wall.push_back(double(nowNs() - T0) * 1e-9);
    T.Cpu.push_back(cpuSeconds() - Cpu0);
  }
  // The memory high-water mark of set-up plus the timed iterations, taken
  // before the reference checks allocate their own traces.
  T.PeakRssMb = peakRssMb();
}

int emit(const Timed &T) {
  Json J;
  J.list("setup_s", T.Setup)
      .list("wall_s", T.Wall)
      .list("cpu_s", T.Cpu)
      .num("peak_rss_mb", T.PeakRssMb)
      .num("attempted", double(T.C.attempted()))
      .num("failed", double(T.C.failed()))
      .strings("errors", T.C.messages())
      .strings("draws", T.Draws);
  std::printf("%s\n", J.str().c_str());
  return 0;
}

int runSweep(uint64_t Seed, double Seconds, unsigned Setups) {
  Timed T;
  const Workload &W = *findWorkload("Puzzle");
  CompileResult Puzzle;
  for (unsigned I = 0; I != Setups; ++I) {
    uint64_t T0 = nowNs();
    Puzzle = compile(W, fig5Options(), T.C);
    T.Setup.push_back(double(nowNs() - T0) * 1e-9);
  }
  std::vector<SweepPoint> Points = sweepGrid(Seed);
  for (const SweepPoint &P : Points)
    T.Draws.push_back(describe(P));
  if (!Puzzle.Ok)
    return emit(T);

  SweepResult First, Last;
  timedLoop(T, Seconds, [&] {
    Last = sweepIteration(Puzzle.Program, Points);
    checkSweep(Last, T.Wall.empty() ? nullptr : &First, T.C);
    if (T.Wall.empty())
      First = Last;
  });
  checkSweepReference(Puzzle.Program, Points, Last, Seed, T.C);
  return emit(T);
}

int runLive(uint64_t Seed, double Seconds, unsigned Setups) {
  Timed T;
  // Set-up compiles every program under both schemes once, which is
  // also where a program that no longer compiles is reported.
  std::vector<const Workload *> Programs = livePrograms();
  for (unsigned I = 0; I != Setups; ++I) {
    uint64_t T0 = nowNs();
    for (const Workload *W : Programs)
      for (bool Unified : {false, true}) {
        CompileOptions O = liveOptions();
        O.Scheme.EnableBypass = O.Scheme.EnableDeadTag = Unified;
        compile(*W, O, T.C);
      }
    T.Setup.push_back(double(nowNs() - T0) * 1e-9);
  }
  std::vector<LiveCase> Cases = liveCases(Seed);
  for (const LiveCase &C : Cases)
    T.Draws.push_back(C.Program->Name + " " +
                      describe(C.Cache, C.Cache.Policy));

  LiveResult First;
  timedLoop(T, Seconds, [&] {
    LiveResult R = liveIteration(Cases);
    checkLive(Cases, R, T.Wall.empty() ? nullptr : &First, T.C);
    if (T.Wall.empty())
      First = std::move(R);
  });
  return emit(T);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: urcm_perfbench sweep|live --seed N --seconds S "
               "[--setups K]\n"
               "       urcm_perfbench layers --workload W --seed N "
               "--run-dir DIR\n");
  std::exit(2);
}

uint64_t parseUnsigned(const char *Text) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*Text == '\0' || *End != '\0')
    usage();
  return V;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    usage();
  std::string Mode = argv[1], Workload, RunDir;
  uint64_t Seed = 1;
  double Seconds = 10;
  unsigned Setups = 3;
  for (int A = 2; A + 1 < argc; A += 2) {
    std::string Flag = argv[A];
    if (Flag == "--seed")
      Seed = parseUnsigned(argv[A + 1]);
    else if (Flag == "--seconds")
      Seconds = double(parseUnsigned(argv[A + 1]));
    else if (Flag == "--setups")
      Setups = unsigned(parseUnsigned(argv[A + 1]));
    else if (Flag == "--workload")
      Workload = argv[A + 1];
    else if (Flag == "--run-dir")
      RunDir = argv[A + 1];
    else
      usage();
  }
  if (argc % 2 != 0 || Setups == 0)
    usage();
  if (Mode == "sweep")
    return runSweep(Seed, Seconds, Setups);
  if (Mode == "live")
    return runLive(Seed, Seconds, Setups);
  if (Mode == "layers" && !Workload.empty() && !RunDir.empty())
    return runLayers(Workload, Seed, RunDir);
  usage();
}
