//===- Simulator.cpp - URCM-RISC simulator ------------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Two execution engines produce bit-identical SimResults:
//
//  * runSwitch: the original one-MInst-at-a-time switch interpreter,
//    kept as the portable reference implementation (and as the
//    differential-testing oracle);
//  * runPredecodedImpl: the fast path. It executes the PInst form built
//    by predecode() (urcm/sim/Predecode.h) with threaded computed-goto
//    dispatch on GNU-compatible compilers and a switch loop elsewhere.
//    Step-limit and PC-bounds checks are hoisted out of the
//    per-instruction loop: a straight-line run of R instructions needs
//    one limit test and one bounds test, because only its final
//    instruction can redirect control. Mid-run entry (a Ret landing
//    between terminators) is handled by per-index run lengths, and a
//    run truncated by the step limit simply executes the remaining
//    budget and lets the outer loop report exhaustion — exactly the
//    states the legacy loop reaches, in the same order.
//
// Trace recording is shared (RefRecorder): both engines either append
// to SimResult::Trace or stream fixed-size chunks through
// SimConfig::Sink; chunking does not change the recorded event
// sequence.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/Simulator.h"

#include "urcm/sim/CacheModel.h"
#include "urcm/sim/Predecode.h"
#include "urcm/support/IntOps.h"
#include "urcm/support/StringUtils.h"
#include "urcm/support/Telemetry.h"

#include <array>
#include <memory>

// Threaded dispatch needs GNU computed goto; define
// URCM_FORCE_SWITCH_DISPATCH (see the sanitizer preset) to exercise the
// portable switch fallback on a compiler that would otherwise thread.
#if defined(__GNUC__) && !defined(URCM_FORCE_SWITCH_DISPATCH)
#define URCM_THREADED_DISPATCH 1
#else
#define URCM_THREADED_DISPATCH 0
#endif

using namespace urcm;

namespace {

/// Per-reference bookkeeping shared by both engines: dynamic reference
/// class counters, bypass-transition tracking, and trace recording
/// (buffered in SimResult::Trace or streamed through a TraceSink).
class RefRecorder {
public:
  RefRecorder(const SimConfig &Config, SimResult &Result)
      : Result(Result), Sink(Config.Sink),
        ClassCounter{&Result.Refs.Unknown, &Result.Refs.Ambiguous,
                     &Result.Refs.Unambiguous, &Result.Refs.Spill,
                     &Result.Refs.Spill} {
    if (Sink) {
      ChunkCap = Config.TraceChunkEvents ? Config.TraceChunkEvents : 1;
      // The staging block is written through a raw cursor: vector
      // push_back (capacity reload, size store, inlined grow branch)
      // measured ~6x the cost of a plain 8-byte store on the trace-gen
      // path, and the sink path pays it tens of millions of times.
      Buf.resize(ChunkCap);
      Next = Buf.data();
      EndCap = Next + ChunkCap;
    } else if (Config.RecordTrace) {
      Recording = true;
      if (Config.TraceSizeHint)
        Result.Trace.reserve(Config.TraceSizeHint);
    }
  }

#if defined(__GNUC__)
  // One call per simulated memory event from inside the large dispatch
  // functions, whose size pushes GCC's growth heuristic past inlining
  // this otherwise-cheap body.
  __attribute__((always_inline))
#endif
  inline void
  count(const MemRefInfo &Info, bool IsWrite, uint64_t Addr) {
    // Branchless class dispatch: one per memory event, so the (well
    // predicted but five-way) switch this replaces showed up in
    // profiles. ClassCounter is indexed by the RefClass value.
    ++*ClassCounter[static_cast<unsigned>(Info.Class)];
    Result.Refs.Bypassed += Info.Bypass;
    Result.Refs.LastRefTagged += Info.LastRef;
    const int Bit = Info.Bypass ? 1 : 0;
    Result.BypassTransitions +=
        static_cast<uint64_t>(LastBypassBit >= 0) &
        static_cast<uint64_t>(Bit != LastBypassBit);
    LastBypassBit = Bit;
    if (Sink) {
      *Next++ = TraceEvent{static_cast<uint32_t>(Addr), IsWrite,
                           TraceEvent::Hints(Info), Info.RefId};
      if (__builtin_expect(Next == EndCap, 0))
        recycle();
    } else if (Recording) {
      Result.Trace.push_back(TraceEvent{static_cast<uint32_t>(Addr), IsWrite,
                                        TraceEvent::Hints(Info), Info.RefId});
    }
  }

  /// Flushes the final partial chunk. Call once, after the run.
  void finish() {
    if (Sink) {
      const size_t Fill = static_cast<size_t>(Next - Buf.data());
      if (Fill) {
        Buf.resize(Fill); // shrink: no reallocation, data stays put
        Sink->chunk(std::move(Buf));
      }
    }
  }

private:
  // The chunk hand-off is deliberately out of line: it runs once per
  // 64K events, and inlining its vector-move machinery into every
  // count() site in the dispatch functions measurably bloated them.
#if defined(__GNUC__)
  __attribute__((noinline))
#endif
  void recycle() {
    Buf = Sink->chunk(std::move(Buf));
    Buf.clear();
    Buf.resize(ChunkCap);
    Next = Buf.data();
    EndCap = Next + ChunkCap;
  }

  SimResult &Result;
  TraceSink *Sink;
  // Refs counter for each RefClass value (Spill and SpillReload share).
  uint64_t *const ClassCounter[5];
  bool Recording = false;
  int LastBypassBit = -1;
  size_t ChunkCap = 0;
  TraceEvent *Next = nullptr;
  TraceEvent *EndCap = nullptr;
  std::vector<TraceEvent> Buf;
};

/// One instruction fetch through the tag-only I-cache. Out of line on
/// purpose: the threaded engine fetches from every handler.
[[gnu::noinline]] void fetch(CacheModel &ICache, uint64_t PC) {
  ICache.read(PC, MemRefInfo());
}

/// How the interpreter reaches its data cache: through the cache's
/// per-run entry point (AnyShape), or with one shape and policy compiled
/// into every load and store (FixedShape).
struct AnyShape {
  static bool fits(const LiveCache &) { return true; }
  URCM_CACHE_INLINE static int64_t read(LiveCache &C, uint64_t Addr,
                                        const MemRefInfo &Info) {
    return C.read(Addr, Info);
  }
  URCM_CACHE_INLINE static void write(LiveCache &C, uint64_t Addr,
                                      int64_t Value, const MemRefInfo &Info) {
    C.write(Addr, Value, Info);
  }
};

template <uint32_t W, CachePolicy P, bool A> struct FixedShape {
  static bool fits(const LiveCache &C) { return C.fixes<W, P, A>(); }
  URCM_CACHE_INLINE static int64_t read(LiveCache &C, uint64_t Addr,
                                        const MemRefInfo &Info) {
    return C.readAs<W, P, A>(Addr, Info);
  }
  URCM_CACHE_INLINE static void write(LiveCache &C, uint64_t Addr,
                                      int64_t Value, const MemRefInfo &Info) {
    C.writeAs<W, P, A>(Addr, Value, Info);
  }
};

template <bool ICacheOn, class Port>
SimResult runPredecodedImpl(const PredecodedProgram &PP,
                            const SimConfig &Config) {
  SimResult Result;
  MainMemory Mem(PP.StackTop + 64);
  LiveCache Cache(Config.Cache, Mem);
  Cache.setAttribution(Config.Attribution);
  assert(Port::fits(Cache) && "the run picked the wrong cache shape");

  std::unique_ptr<CacheModel> ICache;
  if constexpr (ICacheOn)
    ICache =
        std::make_unique<CacheModel>(Config.ICache, Config.ICache.Policy);
  RefRecorder Refs(Config, Result);

  // Slot preg::Zero reads as constant zero (predecoded no-base loads
  // and stores); nothing ever writes it.
  std::array<int64_t, preg::NumSlots> R{};
  const PInst *const Insts = PP.Insts.data();
  const uint32_t *const RunLens = PP.RunLen.data();
  const uint64_t CodeSize = PP.codeSize();
  const uint64_t MemSize = Mem.size();
  const bool Paranoid = Config.Paranoid;
  uint64_t PC = PP.EntryIndex;
  uint64_t Steps = 0;

  // Pointers of the run in flight (set per outer iteration).
  const PInst *I = nullptr;
  const PInst *Start = nullptr;
  const PInst *End = nullptr;

#define URCM_FETCH()                                                         \
  do {                                                                       \
    if constexpr (ICacheOn) {                                                \
      ++Result.InstructionFetches;                                           \
      fetch(*ICache, static_cast<uint64_t>(I - Insts));                      \
    }                                                                        \
  } while (0)

#if URCM_THREADED_DISPATCH
  static const void *const Handlers[] = {
#define URCM_POP_LABEL(Name) &&H_##Name,
      URCM_PREDECODED_OPS(URCM_POP_LABEL)
#undef URCM_POP_LABEL
  };
#define URCM_CASE(Name) H_##Name:
#define URCM_DISPATCH() goto *Handlers[static_cast<size_t>(I->Op)]
#define URCM_NEXT()                                                          \
  do {                                                                       \
    if (++I == End)                                                          \
      goto RunFellOff;                                                       \
    URCM_FETCH();                                                            \
    URCM_DISPATCH();                                                         \
  } while (0)
#else
#define URCM_CASE(Name) case POp::Name:
#define URCM_NEXT()                                                          \
  do {                                                                       \
    if (++I == End)                                                          \
      goto RunFellOff;                                                       \
    goto Dispatch;                                                           \
  } while (0)
#endif

  for (;;) {
    // Run boundary: the step-limit and PC-bounds checks of the legacy
    // per-instruction loop, evaluated once per straight-line run (same
    // order as the legacy loop, so tie-breaks between the two error
    // conditions are identical).
    if (Steps >= Config.MaxSteps)
      break; // "step limit exceeded" is stamped after the loop.
    if (PC >= CodeSize) {
      Result.Error = formatString(
          "PC %llu outside program", static_cast<unsigned long long>(PC));
      break;
    }
    // A run truncated by the step limit reaches no terminator: it
    // retires exactly the remaining budget and falls off its end.
    uint64_t Run = RunLens[PC];
    if (const uint64_t Remaining = Config.MaxSteps - Steps; Run > Remaining)
      Run = Remaining;
    I = Insts + PC;
    Start = I;
    End = I + Run;

#if URCM_THREADED_DISPATCH
    URCM_FETCH();
    URCM_DISPATCH();
#else
  Dispatch:
    URCM_FETCH();
    switch (I->Op) {
#endif

#define URCM_BINOP(Name, Expr)                                               \
  URCM_CASE(Name##RR) {                                                      \
    const int64_t L = R[I->B], S2 = R[I->C];                                 \
    R[I->A] = (Expr);                                                        \
  }                                                                          \
  URCM_NEXT();                                                               \
  URCM_CASE(Name##RI) {                                                      \
    const int64_t L = R[I->B], S2 = I->Imm;                                  \
    R[I->A] = (Expr);                                                        \
  }                                                                          \
  URCM_NEXT();

    URCM_BINOP(Add, wrapAdd(L, S2))
    URCM_BINOP(Sub, wrapSub(L, S2))
    URCM_BINOP(Mul, wrapMul(L, S2))
    URCM_BINOP(And, L &S2)
    URCM_BINOP(Or, L | S2)
    URCM_BINOP(Xor, L ^ S2)
    URCM_BINOP(Shl, wrapShl(L, static_cast<unsigned>(S2 & 63)))
    URCM_BINOP(Shr, L >> (S2 & 63))
    URCM_BINOP(Slt, L < S2)
    URCM_BINOP(Sle, L <= S2)
    URCM_BINOP(Sgt, L > S2)
    URCM_BINOP(Sge, L >= S2)
    URCM_BINOP(Seq, L == S2)
    URCM_BINOP(Sne, L != S2)
#undef URCM_BINOP

#define URCM_DIVOP(Name, Expr, What)                                         \
  URCM_CASE(Name##RR) {                                                      \
    const int64_t L = R[I->B], S2 = R[I->C];                                 \
    if (S2 == 0) {                                                           \
      Result.Error = What;                                                   \
      goto AbortAt;                                                          \
    }                                                                        \
    R[I->A] = (Expr);                                                        \
  }                                                                          \
  URCM_NEXT();                                                               \
  URCM_CASE(Name##RI) {                                                      \
    const int64_t L = R[I->B], S2 = I->Imm;                                  \
    if (S2 == 0) {                                                           \
      Result.Error = What;                                                   \
      goto AbortAt;                                                          \
    }                                                                        \
    R[I->A] = (Expr);                                                        \
  }                                                                          \
  URCM_NEXT();

    URCM_DIVOP(Div, wrapDiv(L, S2), "division by zero")
    URCM_DIVOP(Rem, wrapRem(L, S2), "remainder by zero")
#undef URCM_DIVOP

    URCM_CASE(Neg)
    R[I->A] = -R[I->B];
    URCM_NEXT();

    URCM_CASE(Not)
    R[I->A] = ~R[I->B];
    URCM_NEXT();

    URCM_CASE(Mov)
    R[I->A] = R[I->B];
    URCM_NEXT();

    URCM_CASE(Li)
    R[I->A] = I->Imm;
    URCM_NEXT();

    URCM_CASE(Ld) {
      const int64_t EA = wrapAdd(R[I->B], I->Imm);
      if (EA < 0 || static_cast<uint64_t>(EA) >= MemSize) {
        Result.Error = formatString("load address %lld out of range",
                                    static_cast<long long>(EA));
        goto AbortAt;
      }
      const uint64_t Addr = static_cast<uint64_t>(EA);
      Refs.count(I->Mem, /*IsWrite=*/false, Addr);
      const int64_t Value = Port::read(Cache, Addr, I->Mem);
      if (Paranoid && Value != Mem.shadowRead(Addr))
        ++Result.CoherenceViolations;
      R[I->A] = Value;
    }
    URCM_NEXT();

    URCM_CASE(St) {
      const int64_t EA = wrapAdd(R[I->B], I->Imm);
      if (EA < 0 || static_cast<uint64_t>(EA) >= MemSize) {
        Result.Error = formatString("store address %lld out of range",
                                    static_cast<long long>(EA));
        goto AbortAt;
      }
      const uint64_t Addr = static_cast<uint64_t>(EA);
      Refs.count(I->Mem, /*IsWrite=*/true, Addr);
      Port::write(Cache, Addr, R[I->C], I->Mem);
      Mem.shadowWrite(Addr, R[I->C]);
    }
    URCM_NEXT();

    URCM_CASE(Jmp)
    PC = I->Target;
    goto Terminated;

    URCM_CASE(Bnz)
    PC = R[I->B] != 0 ? I->Target : static_cast<uint64_t>(I - Insts) + 1;
    goto Terminated;

    URCM_CASE(Call)
    R[mreg::RA] = static_cast<int64_t>(I - Insts) + 1;
    PC = I->Target;
    goto Terminated;

    URCM_CASE(Ret)
    PC = static_cast<uint64_t>(R[mreg::RA]);
    goto Terminated;

    URCM_CASE(RetDead)
    // Code-dead hint: this function never runs again; reclaim its
    // I-cache lines.
    if constexpr (ICacheOn)
      ICache->invalidateRange(I->Target,
                              I->Target + static_cast<uint64_t>(I->Imm));
    PC = static_cast<uint64_t>(R[mreg::RA]);
    goto Terminated;

    URCM_CASE(Print)
    Result.Output.push_back(R[I->B]);
    URCM_NEXT();

    URCM_CASE(Halt)
    Result.Halted = true;
    Steps += static_cast<uint64_t>(I - Start) + 1;
    goto Done;

#if !URCM_THREADED_DISPATCH
    }
#endif

  RunFellOff:
    // Executed the whole (possibly limit-truncated) run without a
    // control transfer; the next boundary check settles what happens.
    Steps += static_cast<uint64_t>(End - Start);
    PC = static_cast<uint64_t>(End - Insts);
    continue;

  Terminated:
    Steps += static_cast<uint64_t>(I - Start) + 1;
    continue;

  AbortAt:
    Steps += static_cast<uint64_t>(I - Start) + 1;
    goto Done;
  }

Done:
  if (!Result.Halted && Result.Error.empty())
    Result.Error = "step limit exceeded";
  Result.Steps = Steps;

  Refs.finish();
  Cache.flush();
  Result.Cache = Cache.stats();
  if constexpr (ICacheOn)
    Result.ICache = ICache->stats();
  return Result;

#undef URCM_CASE
#undef URCM_NEXT
#undef URCM_FETCH
#if URCM_THREADED_DISPATCH
#undef URCM_DISPATCH
#endif
}

} // namespace

URCM_STAT(NumSimRuns, "sim.runs", "Simulations executed");
URCM_STAT(NumSimSteps, "sim.steps", "Machine instructions simulated");
URCM_STAT(NumSimRefs, "sim.data-refs", "Data references simulated");
URCM_STAT(NumSimCoherence, "sim.coherence-violations",
          "Hint-induced coherence violations observed");
URCM_STAT(NumSimPredecoded, "sim.dispatch.predecoded",
          "Runs through the predecoded engine");
URCM_STAT(NumSimSwitch, "sim.dispatch.switch",
          "Runs through the legacy switch engine");
URCM_HISTOGRAM(SimStepsPerRun, "sim.steps-per-run",
               "Steps executed per simulation");

namespace {

/// Folds one finished simulation into the counters; cheap relative to
/// the run itself, so it sits outside the engines' hot loops.
void recordRunTelemetry(const SimResult &Result) {
  if (!telemetry::enabled())
    return;
  NumSimRuns.add();
  NumSimSteps.add(Result.Steps);
  NumSimRefs.add(Result.Cache.Reads + Result.Cache.Writes +
                 Result.Cache.BypassReads + Result.Cache.BypassWrites);
  NumSimCoherence.add(Result.CoherenceViolations);
  SimStepsPerRun.record(Result.Steps);
}

} // namespace

SimResult Simulator::run(const PredecodedProgram &Prog) {
  telemetry::ScopedPhase Phase(
      "sim.run", URCM_THREADED_DISPATCH ? "threaded" : "switch-dispatch");
  NumSimPredecoded.add();
  // The paper's data cache (two ways, one-word lines, LRU) gets its
  // access compiled into the interpreter; every other configuration
  // calls the cache's per-run entry point. Attribution selects its own
  // instantiation, so the default one carries no profiling code. The
  // instruction cache stays tag-only either way (it only reads, so
  // words cannot change its counters, and it is off in most
  // experiments).
  SimResult Result;
  const bool ICache = Config.ModelICache;
  if (LiveCache::shapeOf(Config.Cache) == 2 &&
      Config.Cache.Policy == CachePolicy::LRU) {
    using Paper = FixedShape<2, CachePolicy::LRU, false>;
    using PaperAttr = FixedShape<2, CachePolicy::LRU, true>;
    if (Config.Attribution)
      Result = ICache ? runPredecodedImpl<true, PaperAttr>(Prog, Config)
                      : runPredecodedImpl<false, PaperAttr>(Prog, Config);
    else
      Result = ICache ? runPredecodedImpl<true, Paper>(Prog, Config)
                      : runPredecodedImpl<false, Paper>(Prog, Config);
  } else {
    Result = ICache ? runPredecodedImpl<true, AnyShape>(Prog, Config)
                    : runPredecodedImpl<false, AnyShape>(Prog, Config);
  }
  recordRunTelemetry(Result);
  return Result;
}

SimResult Simulator::run(const MachineProgram &Prog) {
  if (Config.Engine == SimEngine::Switch)
    return runSwitch(Prog);
  PredecodedProgram Pre = [&] {
    telemetry::ScopedPhase Phase("sim.predecode");
    return predecode(Prog);
  }();
  return run(Pre);
}

SimResult Simulator::runSwitch(const MachineProgram &Prog) {
  telemetry::ScopedPhase Phase("sim.run", "legacy-switch");
  NumSimSwitch.add();
  SimResult Result;
  MainMemory Mem(Prog.StackTop + 64);
  LiveCache Cache(Config.Cache, Mem);
  Cache.setAttribution(Config.Attribution);

  // Optional instruction cache: tag-only simulation over code indexes.
  std::unique_ptr<CacheModel> ICache;
  if (Config.ModelICache)
    ICache =
        std::make_unique<CacheModel>(Config.ICache, Config.ICache.Policy);
  RefRecorder Refs(Config, Result);

  std::array<int64_t, mreg::NumRegs> R{};
  uint64_t PC = Prog.EntryIndex;

  auto Fail = [&](std::string Message) {
    Result.Error = std::move(Message);
  };

  while (Result.Steps < Config.MaxSteps) {
    if (PC >= Prog.Code.size()) {
      Fail(formatString("PC %llu outside program",
                        static_cast<unsigned long long>(PC)));
      break;
    }
    const MInst &I = Prog.Code[PC];
    ++Result.Steps;
    if (ICache) {
      ++Result.InstructionFetches;
      fetch(*ICache, PC);
    }
    uint64_t NextPC = PC + 1;

    auto Src2 = [&]() { return I.UseImm ? I.Imm : R[I.Rs2]; };

    switch (I.Op) {
    case MOpcode::Add:
      R[I.Rd] = wrapAdd(R[I.Rs1], Src2());
      break;
    case MOpcode::Sub:
      R[I.Rd] = wrapSub(R[I.Rs1], Src2());
      break;
    case MOpcode::Mul:
      R[I.Rd] = wrapMul(R[I.Rs1], Src2());
      break;
    case MOpcode::Div: {
      int64_t D = Src2();
      if (D == 0) {
        Fail("division by zero");
        break;
      }
      R[I.Rd] = wrapDiv(R[I.Rs1], D);
      break;
    }
    case MOpcode::Rem: {
      int64_t D = Src2();
      if (D == 0) {
        Fail("remainder by zero");
        break;
      }
      R[I.Rd] = wrapRem(R[I.Rs1], D);
      break;
    }
    case MOpcode::And:
      R[I.Rd] = R[I.Rs1] & Src2();
      break;
    case MOpcode::Or:
      R[I.Rd] = R[I.Rs1] | Src2();
      break;
    case MOpcode::Xor:
      R[I.Rd] = R[I.Rs1] ^ Src2();
      break;
    case MOpcode::Shl:
      R[I.Rd] = wrapShl(R[I.Rs1], static_cast<unsigned>(Src2() & 63));
      break;
    case MOpcode::Shr:
      R[I.Rd] = R[I.Rs1] >> (Src2() & 63);
      break;
    case MOpcode::Slt:
      R[I.Rd] = R[I.Rs1] < Src2();
      break;
    case MOpcode::Sle:
      R[I.Rd] = R[I.Rs1] <= Src2();
      break;
    case MOpcode::Sgt:
      R[I.Rd] = R[I.Rs1] > Src2();
      break;
    case MOpcode::Sge:
      R[I.Rd] = R[I.Rs1] >= Src2();
      break;
    case MOpcode::Seq:
      R[I.Rd] = R[I.Rs1] == Src2();
      break;
    case MOpcode::Sne:
      R[I.Rd] = R[I.Rs1] != Src2();
      break;
    case MOpcode::Neg:
      R[I.Rd] = -R[I.Rs1];
      break;
    case MOpcode::Not:
      R[I.Rd] = ~R[I.Rs1];
      break;
    case MOpcode::Mov:
      R[I.Rd] = R[I.Rs1];
      break;
    case MOpcode::Li:
      R[I.Rd] = I.Imm;
      break;
    case MOpcode::Ld: {
      int64_t Base = I.Rs1 == mreg::None ? 0 : R[I.Rs1];
      int64_t EA = wrapAdd(Base, I.Imm);
      if (EA < 0 || static_cast<uint64_t>(EA) >= Mem.size()) {
        Fail(formatString("load address %lld out of range",
                          static_cast<long long>(EA)));
        break;
      }
      uint64_t Addr = static_cast<uint64_t>(EA);
      Refs.count(I.MemInfo, /*IsWrite=*/false, Addr);
      int64_t Value = Cache.read(Addr, I.MemInfo);
      if (Config.Paranoid && Value != Mem.shadowRead(Addr))
        ++Result.CoherenceViolations;
      R[I.Rd] = Value;
      break;
    }
    case MOpcode::St: {
      int64_t Base = I.Rs1 == mreg::None ? 0 : R[I.Rs1];
      int64_t EA = wrapAdd(Base, I.Imm);
      if (EA < 0 || static_cast<uint64_t>(EA) >= Mem.size()) {
        Fail(formatString("store address %lld out of range",
                          static_cast<long long>(EA)));
        break;
      }
      uint64_t Addr = static_cast<uint64_t>(EA);
      Refs.count(I.MemInfo, /*IsWrite=*/true, Addr);
      Cache.write(Addr, R[I.Rs2], I.MemInfo);
      Mem.shadowWrite(Addr, R[I.Rs2]);
      break;
    }
    case MOpcode::Jmp:
      NextPC = I.Target;
      break;
    case MOpcode::Bnz:
      if (R[I.Rs1] != 0)
        NextPC = I.Target;
      break;
    case MOpcode::Call:
      R[mreg::RA] = static_cast<int64_t>(PC + 1);
      NextPC = I.Target;
      break;
    case MOpcode::Ret:
      NextPC = static_cast<uint64_t>(R[mreg::RA]);
      // Code-dead hint: this function never runs again; reclaim its
      // I-cache lines.
      if (I.CodeDeadHint && ICache)
        ICache->invalidateRange(I.Target,
                                I.Target + static_cast<uint64_t>(I.Imm));
      break;
    case MOpcode::Print:
      Result.Output.push_back(R[I.Rs1]);
      break;
    case MOpcode::Halt:
      Result.Halted = true;
      break;
    }

    if (Result.Halted || !Result.Error.empty())
      break;
    PC = NextPC;
  }

  if (!Result.Halted && Result.Error.empty())
    Result.Error = "step limit exceeded";

  Refs.finish();
  Cache.flush();
  Result.Cache = Cache.stats();
  if (ICache)
    Result.ICache = ICache->stats();
  recordRunTelemetry(Result);
  return Result;
}
