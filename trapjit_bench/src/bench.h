#ifndef TRAPJIT_BENCH_BENCH_H_
#define TRAPJIT_BENCH_BENCH_H_

/**
 * @file
 * The pieces of one benchmark run: the answer oracle, set-up (compile
 * service batch, engines, pre-emit, tiered warm-up), the cold compile
 * and the request.  main.cpp drives them and reports.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/target.h"
#include "codegen/native/native_engine.h"
#include "codegen/native/tiered_engine.h"
#include "interp/fast_interpreter.h"
#include "jit/compile_service.h"
#include "jit/stats.h"
#include "programs.h"
#include "tracer.h"

namespace trapjit::bench
{

enum EngineKind : size_t { kFast, kNative, kOptimized, kTiered, kEngines };
inline constexpr const char *kEngineNames[kEngines] = {"fast", "native",
                                                       "optimized",
                                                       "tiered"};

/** A condition that makes the run's numbers meaningless. */
struct BenchFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Threads the compile service may use: the host's, at most four. */
size_t compileWorkers();

inline const std::vector<RuntimeValue> kNoArgs;

// ---- answer oracle (setup.cpp) -----------------------------------------

/** What every request of one program must reproduce. */
struct Expected
{
    ExecResult::Outcome outcome = ExecResult::Outcome::Returned;
    int64_t value = 0;
    ExcKind exception = ExcKind::None;
    uint64_t digest = 0;
    /** The answer came from the no-opt no-trap compiled module. */
    bool fromNoOptArm = false;
};

/**
 * Outcome, return value and exception kind of @p prog from the
 * reference Interpreter on the pristine module (see setup.cpp for the
 * Math-intrinsic exception).  The digest is filled in later by
 * referenceDigest on the module the engines run.
 */
Expected expectedAnswer(const BenchProgram &prog, const Target &target);

/** Heap digest after the reference Interpreter runs @p mod's main. */
uint64_t referenceDigest(const Module &mod, const Target &target);

// ---- set-up (setup.cpp) ------------------------------------------------

/** The four engines of one module, sharing one service's caches. */
struct Engines
{
    std::unique_ptr<FastInterpreter> fast;
    std::unique_ptr<NativeEngine> native;    ///< baseline backend
    std::unique_ptr<NativeEngine> optimized; ///< optimized backend
    std::unique_ptr<TieredEngine> tiered;    ///< synchronous promotion
};

/**
 * Engines for @p mod (which @p service compiled) that run without event
 * tracing, share the service's decoded-program and native-code caches,
 * and have every function's native code in place for both backends
 * (the service pre-emits only the baseline one).  The tiered engine is
 * cold.
 */
Engines makeEngines(const Module &mod, const Target &target,
                    const CompileService &service);

/** One program with its compiled module and its four warmed engines. */
struct Loaded
{
    uint32_t index = 0; ///< into the workload's program list
    std::unique_ptr<Module> mod;
    FunctionId main = kNoFunction;
    Expected expected;
    Engines engines;
    /** False when the row skips this program (main is interpreted). */
    bool runs[kEngines] = {true, true, true, true};
    /** Tiered promotions when warm-up settled; requests must keep it. */
    uint64_t promotedAtSettle = 0;
};

struct Setup
{
    std::vector<Loaded> programs;
    double seconds = 0.0;        ///< the timed set-up
    ServiceReport service;       ///< the compile batch
    double promoteSeconds = 0.0; ///< tier-up latency, summed
    uint64_t functionsPromoted = 0;
    uint64_t blocksLinked = 0;
    size_t unsettled = 0; ///< tiered engines that never settled
};

/**
 * Compile every program through one CompileService batch under
 * makeNewFullConfig() (pre-decode and baseline pre-emit included),
 * construct the engines, pre-emit the optimized backend and warm the
 * tiered engines until promotion settles.  Only that is timed; building
 * the pristine modules is input generation and happens before.
 */
Setup setUp(const std::vector<BenchProgram> &progs, const Target &target,
            Tracer &tracer, uint64_t rep);

// ---- cold compile (cold_compile.cpp) -----------------------------------

enum CompileLayer : size_t
{
    kPasses,        ///< CompileService::compileModule
    kDecode,        ///< decodeFunction
    kEmitNative,    ///< compileNative, baseline backend
    kEmitOptimized, ///< compileNative, optimized backend
    kAudit,         ///< auditNativeTrapSites, both backends
    kCompileLayers
};

/** Whole-module totals of one backend's NativeCode. */
struct BackendTotals
{
    uint64_t codeBytes = 0;
    uint64_t implicitChecks = 0;
    uint64_t explicitChecks = 0;
    uint64_t explicitCheckBytes = 0;
    uint64_t spills = 0;
    uint64_t loadsSpeculated = 0;

    BackendTotals &operator+=(const BackendTotals &o);
    bool operator==(const BackendTotals &o) const = default;
};

struct ColdCompile
{
    double seconds = 0.0;
    double layer[kCompileLayers] = {};
    std::map<std::string, double> passSeconds; ///< PassTimings::perPass
    uint64_t solverBlockVisits = 0;
    uint64_t cacheHits = 0;
    CheckStats checks;
    BackendTotals backend[2]; ///< baseline, optimized
    uint64_t auditFindings = 0;
};

/**
 * One cold compile of @p prog on @p service (which must have every
 * cache off), timed as the sequence of public calls that make it up.
 */
ColdCompile coldCompile(const BenchProgram &prog, uint32_t index,
                        CompileService &service,
                        const PipelineConfig &config, const Target &target,
                        Tracer &tracer, uint64_t group);

/** A one-worker CompileService with every cache and pre-pass off. */
std::unique_ptr<CompileService> coldCompileService(const Target &target);

// ---- requests (requests.cpp) -------------------------------------------

/** Dynamic counts of one request (deterministic per program). */
struct RequestCounts
{
    ExecStats stats;
    uint64_t heapBytes = 0; ///< what the recycle wipes
    uint64_t deopts = 0;    ///< optimized backend side-exits
};

struct RequestTimes
{
    double run = 0.0;     ///< engine run(): entry, execution, exit
    double recycle = 0.0; ///< engine reset()
};

/**
 * One request: run @p l's main on engine @p e, check the answer, then
 * recycle the heap.  Returns false on a wrong answer or HardFault.
 * Throws BenchFailure when the request did set-up work (a decode, a
 * native emit or a tier-up).  Fills @p counts when non-null.
 */
bool sendRequest(Loaded &l, EngineKind e, const std::string &name,
                  Tracer &tracer, uint64_t group, RequestTimes &times,
                  RequestCounts *counts);

/**
 * Fixed per-request cost: median run() time, per engine in µs, of a
 * one-block main that returns a constant.
 */
std::vector<double> probeEntryCost(const Target &target, Tracer &tracer);

} // namespace trapjit::bench

#endif // TRAPJIT_BENCH_BENCH_H_
