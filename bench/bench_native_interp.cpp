/**
 * @file
 * Execution-tier comparison on real wall time: reference switch
 * interpreter vs pre-decoded fused interpreter vs the native x86-64
 * tier, on jBYTEmark kernels (BM_Native_* — CI uploads the results as
 * BENCH_native.json next to BENCH_interp.json).
 *
 * Six families:
 *
 *  - BM_Native_{Reference,Fast,Jit}_<kernel>: the same unoptimized
 *    module (every check explicit, the interpreter benches' shape)
 *    under all three engines.  The native tier's claim is >= 5x over
 *    the fused interpreter on these kernels — dispatch disappears
 *    entirely; what remains is the slot traffic.
 *
 *  - BM_Native_{ImplicitChecks,ExplicitChecks}_<kernel>: the paper's
 *    actual experiment on real hardware.  The same kernel compiled
 *    under the hardware-trap arm (implicit checks: zero instructions,
 *    the guard page does the checking) and the no-trap arm (explicit
 *    compare-and-branch per check), both executed natively.  On
 *    null-heavy kernels the trap arm must be at least as fast in wall
 *    time — the win the paper measures in Table 1.
 *
 *  - BM_Tiered_{Fast,Native,Cold,Warm,WarmNoLink}_<preset>: the
 *    profile-guided tiering story on call-heavy workload-gen presets
 *    (CI uploads these as BENCH_tiering.json).  Cold start vs warmed
 *    steady state, direct block linking vs trampoline-only, against
 *    the fused interpreter and per-call-dispatch native baselines.
 *
 *  - BM_Interp_CallStorm_{Fast,TieredCold}: a call-only workload-gen
 *    module, interpreted: the per-call entry cost of interpreted
 *    frames (CI uploads these with BENCH_tiering.json).
 *
 *  - BM_Native_TrapStorm_{Native,Optimized,Tiered}: a loop whose every
 *    iteration takes a guard-region trap into a catch handler, on each
 *    native engine: the host-time cost of the trap path itself.
 *
 *  - BM_Heap_Recycle_{Dense,Sparse}: Heap::reset() alone, on a span
 *    written everywhere and on one written in five pages (CI uploads
 *    these as BENCH_heap.json).
 *
 * Native benches skip (with a notice in the JSON) on hosts without the
 * native tier; the interpreter baselines run everywhere.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "codegen/native/native_engine.h"
#include "codegen/native/tiered_engine.h"
#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "jit/compiler.h"
#include "testing/workload_gen/workload_gen.h"
#include "workloads/kernel_util.h"
#include "workloads/workload.h"

namespace trapjit
{
namespace
{

enum class Tier
{
    Reference,
    Fast,
    Native,
};

void
runEngineBenchmark(benchmark::State &state, const char *workload, Tier tier)
{
    Target target = makeIA32WindowsTarget();
    const Workload *w = findWorkload(workload);
    auto mod = w->build();
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    ExecStats stats;
    auto loop = [&](auto &engine) {
        for (auto _ : state) {
            engine.reset();
            ExecResult r = engine.run(entry, {});
            benchmark::DoNotOptimize(r.value.i);
            stats = r.stats;
        }
    };
    switch (tier) {
      case Tier::Reference: {
        Interpreter interp(*mod, target, options);
        loop(interp);
        break;
      }
      case Tier::Fast: {
        FastInterpreter interp(*mod, target, options);
        loop(interp);
        break;
      }
      case Tier::Native: {
        if (!nativeTierSupported()) {
            state.SkipWithError("native tier requires x86-64 Linux");
            return;
        }
        NativeEngine engine(*mod, target, options);
        // Compile outside the timed region and fail loudly on
        // fallback: a silently interpreted "native" number would make
        // the comparison meaningless.
        if (engine.nativeCode(entry) == nullptr) {
            state.SkipWithError("main did not compile natively");
            return;
        }
        loop(engine);
        break;
      }
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(stats.instructions) * state.iterations());
}

/**
 * The trap experiment: compile under @p makeConfig, execute natively,
 * and report the module's check mix (summed over every function) so
 * the JSON shows what was measured.
 */
void
runCheckArmBenchmark(benchmark::State &state, const char *workload,
                     PipelineConfig (*makeConfig)())
{
    if (!nativeTierSupported()) {
        state.SkipWithError("native tier requires x86-64 Linux");
        return;
    }
    Target target = makeIA32WindowsTarget();
    const Workload *w = findWorkload(workload);
    auto mod = w->build();
    Compiler compiler(target, makeConfig());
    compiler.compile(*mod);
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    NativeEngine engine(*mod, target, options);
    if (engine.nativeCode(entry) == nullptr) {
        state.SkipWithError("main did not compile natively");
        return;
    }
    // The check mix of the whole module: the kernels' checks sit in
    // their callees as much as in main.
    size_t implicitChecks = 0, explicitChecks = 0, explicitBytes = 0;
    for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
        if (const NativeCode *nc = engine.nativeCode(f)) {
            implicitChecks += nc->implicitChecksCompiled;
            explicitChecks += nc->explicitChecksCompiled;
            explicitBytes += nc->explicitNullCheckBytes;
        }
    }
    ExecStats stats;
    for (auto _ : state) {
        engine.reset();
        ExecResult r = engine.run(entry, {});
        benchmark::DoNotOptimize(r.value.i);
        stats = r.stats;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(stats.instructions) * state.iterations());
    state.counters["implicit_checks"] =
        static_cast<double>(implicitChecks);
    state.counters["explicit_checks"] =
        static_cast<double>(explicitChecks);
    state.counters["explicit_check_bytes"] =
        static_cast<double>(explicitBytes);
    state.counters["traps_taken"] = static_cast<double>(stats.trapsTaken);
}

#define TRAPJIT_NATIVE_BENCH(kernel, workload)                            \
    void BM_Native_Reference_##kernel(benchmark::State &state)            \
    {                                                                     \
        runEngineBenchmark(state, workload, Tier::Reference);             \
    }                                                                     \
    void BM_Native_Fast_##kernel(benchmark::State &state)                 \
    {                                                                     \
        runEngineBenchmark(state, workload, Tier::Fast);                  \
    }                                                                     \
    void BM_Native_Jit_##kernel(benchmark::State &state)                  \
    {                                                                     \
        runEngineBenchmark(state, workload, Tier::Native);                \
    }                                                                     \
    void BM_Native_ImplicitChecks_##kernel(benchmark::State &state)       \
    {                                                                     \
        runCheckArmBenchmark(state, workload, makeNoOptTrapConfig);       \
    }                                                                     \
    void BM_Native_ExplicitChecks_##kernel(benchmark::State &state)       \
    {                                                                     \
        runCheckArmBenchmark(state, workload, makeNoOptNoTrapConfig);     \
    }                                                                     \
    BENCHMARK(BM_Native_Reference_##kernel);                              \
    BENCHMARK(BM_Native_Fast_##kernel);                                   \
    BENCHMARK(BM_Native_Jit_##kernel);                                    \
    BENCHMARK(BM_Native_ImplicitChecks_##kernel);                         \
    BENCHMARK(BM_Native_ExplicitChecks_##kernel)

TRAPJIT_NATIVE_BENCH(numsort, "Numeric Sort");
TRAPJIT_NATIVE_BENCH(assignment, "Assignment");
TRAPJIT_NATIVE_BENCH(idea, "IDEA encryption");

#undef TRAPJIT_NATIVE_BENCH

// ---------------------------------------------------------------------------
// Profile-guided tiering (BM_Tiered_* — CI uploads BENCH_tiering.json)
// ---------------------------------------------------------------------------
//
// Call-heavy workload-gen presets (call_web, pointer_chase) under the
// tiering policies the engine supports:
//
//  - BM_Tiered_Fast:       fused-interpreter baseline
//  - BM_Tiered_Native:     classic native tier — every call bounces
//                          through C++ dispatch (a fresh context) per
//                          frame
//  - BM_Tiered_Cold:       cold start — a fresh engine per iteration
//                          pays interpretation, promotion compiles and
//                          publishing inside the measured region
//  - BM_Tiered_Warm:       everything published and direct-linked;
//                          hot call chains never leave native code.
//                          The tiering acceptance line: >= 1.3x over
//                          BM_Tiered_Native on these presets
//  - BM_Tiered_WarmNoLink: published but trampoline-only (linkBlocks
//                          off) — isolates the value of the rel32
//                          direct patches from the rest of the tier

enum class TieredMode
{
    Fast,
    NativeDispatch,
    Cold,
    Warm,
    WarmNoLink,
};

/** Compile @p profile's module under @p config on IA32. */
std::unique_ptr<Module>
buildProfileModule(const WorkloadProfile &profile,
                   const PipelineConfig &config = makeNewFullConfig())
{
    auto mod = generateWorkloadModule(profile);
    Target target = makeIA32WindowsTarget();
    Compiler compiler(target, config);
    compiler.compile(*mod);
    return mod;
}

/**
 * Time back-to-back runs of @p entry on @p engine in the serving-loop
 * shape: many requests per heap recycle.  The bump arena hands out
 * pre-zeroed memory, so runs are back to back and the periodic wipe
 * (identical across engines, proportional to the workload's allocation
 * volume rather than engine speed) happens off the timed path, as a
 * server would recycle between batches.  Items are instructions; the
 * calls_per_run and traps_per_run counters say how many calls and
 * trap NPEs one run makes.
 */
template <typename Engine>
void
timeServingRuns(benchmark::State &state, Engine &engine, FunctionId entry)
{
    constexpr int kRunsPerReset = 64;
    // ExecStats accumulate until reset(); report per-run deltas.
    uint64_t instructionsPerRun = 0, instructionsSeen = 0;
    uint64_t callsPerRun = 0, callsSeen = 0;
    uint64_t trapsPerRun = 0, trapsSeen = 0;
    int sinceReset = 0;
    for (auto _ : state) {
        if (++sinceReset > kRunsPerReset) {
            state.PauseTiming();
            engine.reset();
            sinceReset = 1;
            instructionsSeen = 0;
            callsSeen = 0;
            trapsSeen = 0;
            state.ResumeTiming();
        }
        ExecResult r = engine.run(entry, {});
        benchmark::DoNotOptimize(r.value.i);
        instructionsPerRun = r.stats.instructions - instructionsSeen;
        instructionsSeen = r.stats.instructions;
        callsPerRun = r.stats.calls - callsSeen;
        callsSeen = r.stats.calls;
        trapsPerRun = r.stats.trapsTaken - trapsSeen;
        trapsSeen = r.stats.trapsTaken;
    }
    state.SetItemsProcessed(static_cast<int64_t>(instructionsPerRun) *
                            state.iterations());
    state.counters["calls_per_run"] = static_cast<double>(callsPerRun);
    state.counters["traps_per_run"] = static_cast<double>(trapsPerRun);
}

void
runTieredBenchmark(benchmark::State &state, const char *preset,
                   TieredMode mode)
{
    Target target = makeIA32WindowsTarget();
    auto mod = buildProfileModule(*findWorkloadProfile(preset));
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    if (mode == TieredMode::Fast) {
        FastInterpreter interp(*mod, target, options);
        timeServingRuns(state, interp, entry);
        return;
    }

    if (!nativeTierSupported()) {
        state.SkipWithError("native tier requires x86-64 Linux");
        return;
    }

    if (mode == TieredMode::NativeDispatch) {
        NativeEngine engine(*mod, target, options);
        if (engine.nativeCode(entry) == nullptr) {
            state.SkipWithError("main did not compile natively");
            return;
        }
        timeServingRuns(state, engine, entry);
        return;
    }

    TieredOptions topts;
    topts.threshold = 1;
    topts.synchronous = true;
    topts.linkBlocks = mode != TieredMode::WarmNoLink;

    if (mode == TieredMode::Cold) {
        // The whole first-run story per iteration: construct, interpret,
        // cross the threshold, compile, audit, publish, finish native.
        ExecStats stats;
        for (auto _ : state) {
            TieredEngine engine(*mod, target, options, nullptr, {},
                                topts);
            ExecResult r = engine.run(entry, {});
            benchmark::DoNotOptimize(r.value.i);
            stats = r.stats;
        }
        state.SetItemsProcessed(
            static_cast<int64_t>(stats.instructions) *
            state.iterations());
        return;
    }

    TieredEngine engine(*mod, target, options, nullptr, {}, topts);
    // Warm outside the timed region: after one run every touched
    // function is published (threshold 1, synchronous); reset() keeps
    // the published blocks.
    engine.run(entry, {});
    engine.drainPromotions();
    engine.reset();
    timeServingRuns(state, engine, entry);

    ServiceCounters tiering;
    engine.addTieringCounters(tiering);
    state.counters["functions_promoted"] =
        static_cast<double>(tiering.functionsPromoted);
    state.counters["blocks_linked"] =
        static_cast<double>(tiering.blocksLinked);
    state.counters["slots_patched"] =
        static_cast<double>(tiering.slotsPatched);
    state.counters["tier_up_ms"] = tiering.tierUpLatencySeconds * 1e3;
}

#define TRAPJIT_TIERED_BENCH(kernel, preset)                              \
    void BM_Tiered_Fast_##kernel(benchmark::State &state)                 \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::Fast);              \
    }                                                                     \
    void BM_Tiered_Native_##kernel(benchmark::State &state)               \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::NativeDispatch);    \
    }                                                                     \
    void BM_Tiered_Cold_##kernel(benchmark::State &state)                 \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::Cold);              \
    }                                                                     \
    void BM_Tiered_Warm_##kernel(benchmark::State &state)                 \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::Warm);              \
    }                                                                     \
    void BM_Tiered_WarmNoLink_##kernel(benchmark::State &state)           \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::WarmNoLink);        \
    }                                                                     \
    BENCHMARK(BM_Tiered_Fast_##kernel);                                   \
    BENCHMARK(BM_Tiered_Native_##kernel);                                 \
    BENCHMARK(BM_Tiered_Cold_##kernel);                                   \
    BENCHMARK(BM_Tiered_Warm_##kernel);                                   \
    BENCHMARK(BM_Tiered_WarmNoLink_##kernel)

TRAPJIT_TIERED_BENCH(call_web, "call_web");
TRAPJIT_TIERED_BENCH(pointer_chase, "pointer_chase");

#undef TRAPJIT_TIERED_BENCH

// ---------------------------------------------------------------------------
// Call-entry storm (BM_Interp_CallStorm_* — CI uploads BENCH_tiering.json)
// ---------------------------------------------------------------------------
//
// The call_web preset with every construct but static calls weighted
// out (the last kernel, which has no later kernel to call, does
// arithmetic instead): one run is ~6,000 calls of ~10 instructions
// each, so its time is the interpreter's per-call entry and exit —
// argument staging, the callee's slot file, the depth and pool checks.
//
//  - BM_Interp_CallStorm_Fast:       the fast interpreter
//  - BM_Interp_CallStorm_TieredCold: the tiered engine with nothing
//                                    promoted (threshold never reached),
//                                    so every call also goes through
//                                    the tierInvoke hook and bumps the
//                                    callee's hotness

WorkloadProfile
callStormProfile()
{
    WorkloadProfile p = *findWorkloadProfile("call_web");
    p.name = "call_storm";
    p.arithWeight = 0;
    p.fieldWeight = 0;
    p.arrayWeight = 0;
    p.chainWeight = 0;
    // Static calls only: every kernel keeps a null local, and a
    // virtual call through it would end the kernel with an NPE.
    p.virtualWeight = 0;
    p.tryWeight = 0;
    p.nullDensityPct = 0;
    // Every kernel call allocates a Node; keep it small, so thousands
    // of calls per run stay far from the heap's end.
    p.bigOffsetPct = 0;
    p.callFanout = 3;
    p.mainCalls = 4;
    return p;
}

void
runCallStormBenchmark(benchmark::State &state, bool tiered)
{
    Target target = makeIA32WindowsTarget();
    // Inlining off, so the calls stay calls.
    PipelineConfig config = makeNewFullConfig();
    config.enableInlining = false;
    auto mod = buildProfileModule(callStormProfile(), config);
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;
    if (!tiered) {
        FastInterpreter interp(*mod, target, options);
        timeServingRuns(state, interp, entry);
        return;
    }
    if (!nativeTierSupported()) {
        state.SkipWithError("native tier requires x86-64 Linux");
        return;
    }
    TieredOptions topts;
    topts.threshold = 1u << 30;
    topts.synchronous = true;
    TieredEngine engine(*mod, target, options, nullptr, {}, topts);
    timeServingRuns(state, engine, entry);
}

void
BM_Interp_CallStorm_Fast(benchmark::State &state)
{
    runCallStormBenchmark(state, false);
}

void
BM_Interp_CallStorm_TieredCold(benchmark::State &state)
{
    runCallStormBenchmark(state, true);
}

BENCHMARK(BM_Interp_CallStorm_Fast);
BENCHMARK(BM_Interp_CallStorm_TieredCold);

// ---------------------------------------------------------------------------
// Trap storm (BM_Native_TrapStorm_* — CI uploads BENCH_native.json)
// ---------------------------------------------------------------------------
//
//     int storm(Node o, int n) {
//         int acc = 0;
//         for (int i = 0; i < n; i++)
//             try { acc += o.ival; } catch (NullPointerException e) { acc++; }
//         return acc;
//     }
//     int main() { return storm(null, 256); }
//
// The null check compiles implicit, so every iteration is one guard-
// region fault and its NPE: a run's time is the trap path.  Built with
// the IR builder rather than workload_gen, whose traps each end a try
// body or a kernel, so no generated loop can trap on every iteration.
//
//  - BM_Native_TrapStorm_Native:    baseline code; each trap resumes
//                                   at the catch handler in place
//  - BM_Native_TrapStorm_Optimized: the first trap deopts the frame,
//                                   and the rest of the loop runs on
//                                   the fast interpreter (one hardware
//                                   trap per run)
//  - BM_Native_TrapStorm_Tiered:    both functions promoted up front

constexpr int64_t kTrapStormIterations = 256;

std::unique_ptr<Module>
buildTrapStormModule()
{
    auto mod = std::make_unique<Module>();
    ClassId node = mod->addClass("Node");
    const int64_t ival = mod->addField(node, "ival", Type::I32);

    Function &storm = mod->addFunction("storm", Type::I32);
    storm.setNeverInline(true);
    {
        ValueId o = storm.addParam(Type::Ref, "o", node);
        ValueId n = storm.addParam(Type::I32, "n");
        IRBuilder b(storm);
        b.startBlock();
        ValueId acc = storm.addLocal(Type::I32, "acc");
        ValueId i = storm.addLocal(Type::I32, "i");
        b.move(acc, b.constInt(0));
        CountedLoop loop(b, i, b.constInt(0), n);
        BasicBlock &handler = storm.newBlock();
        TryRegionId region =
            storm.addTryRegion(handler.id(), ExcKind::NullPointer);
        BasicBlock &body = storm.newBlock(region);
        BasicBlock &join = storm.newBlock();
        b.jump(body);
        b.atEnd(body);
        b.move(acc, b.binop(Opcode::IAdd, acc,
                            b.getField(o, ival, Type::I32)));
        b.jump(join);
        b.atEnd(handler);
        b.move(acc, b.binop(Opcode::IAdd, acc, b.constInt(1)));
        b.jump(join);
        b.atEnd(join);
        loop.close();
        b.ret(acc);
    }

    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    b.ret(b.callStatic(storm.id(),
                       {b.constNull(node), b.constInt(kTrapStormIterations)},
                       Type::I32));
    return mod;
}

enum class StormEngine
{
    Native,
    Optimized,
    Tiered,
};

void
runTrapStormBenchmark(benchmark::State &state, StormEngine which)
{
    if (!nativeTierSupported()) {
        state.SkipWithError("native tier requires x86-64 Linux");
        return;
    }
    Target target = makeIA32WindowsTarget();
    auto mod = buildTrapStormModule();
    Compiler compiler(target, makeNewFullConfig());
    compiler.compile(*mod);
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    if (which == StormEngine::Tiered) {
        TieredOptions topts;
        topts.threshold = 1u << 30;
        topts.synchronous = true;
        TieredEngine engine(*mod, target, options, nullptr, {}, topts);
        for (FunctionId f = 0; f < mod->numFunctions(); ++f)
            engine.promoteNow(f);
        timeServingRuns(state, engine, entry);
        return;
    }
    NativeEngineOptions eopts;
    eopts.backend = which == StormEngine::Native ? NativeBackend::Baseline
                                                 : NativeBackend::Optimized;
    NativeEngine engine(*mod, target, options, nullptr, {}, nullptr, eopts);
    if (engine.nativeCode(mod->findFunction("storm")) == nullptr) {
        state.SkipWithError("storm did not compile natively");
        return;
    }
    timeServingRuns(state, engine, entry);
}

void
BM_Native_TrapStorm_Native(benchmark::State &state)
{
    runTrapStormBenchmark(state, StormEngine::Native);
}

void
BM_Native_TrapStorm_Optimized(benchmark::State &state)
{
    runTrapStormBenchmark(state, StormEngine::Optimized);
}

void
BM_Native_TrapStorm_Tiered(benchmark::State &state)
{
    runTrapStormBenchmark(state, StormEngine::Tiered);
}

BENCHMARK(BM_Native_TrapStorm_Native);
BENCHMARK(BM_Native_TrapStorm_Optimized);
BENCHMARK(BM_Native_TrapStorm_Tiered);

// ---------------------------------------------------------------------------
// Heap recycle (BM_Heap_Recycle_* — CI uploads BENCH_heap.json)
// ---------------------------------------------------------------------------
//
// The time of Heap::reset() alone, after a "request" that allocates one
// span and writes some of its pages:
//
//  - BM_Heap_Recycle_Dense:  a 128 KiB span with every page written —
//                            the page scan's worst case, where it finds
//                            every page and adds its own cost to the
//                            memset
//  - BM_Heap_Recycle_Sparse: a 1.5 MiB span with 5 pages written — the
//                            big_offset shape, where the scan wipes 5
//                            pages instead of 384
//
// The label says which path reset() takes on this host: "page-scan", or
// "memset-fallback" where the kernel or sandbox lacks PAGEMAP_SCAN.

void
runHeapRecycleBenchmark(benchmark::State &state, int64_t spanBytes,
                        int64_t dirtyPages)
{
    constexpr int64_t kPage = 4096;
    const int64_t stride = spanBytes / kPage / dirtyPages * kPage;
    Heap heap(4u << 20);
    for (auto _ : state) {
        const Address obj = heap.allocateObject(1, spanBytes);
        for (int64_t k = 0; k < dirtyPages; ++k)
            heap.writeI64(obj + k * stride + 8, k + 1);
        benchmark::DoNotOptimize(heap.hostBase());
        benchmark::ClobberMemory();
        const auto start = std::chrono::steady_clock::now();
        heap.reset();
        const auto stop = std::chrono::steady_clock::now();
        state.SetIterationTime(
            std::chrono::duration<double>(stop - start).count());
    }
    state.SetBytesProcessed(spanBytes * state.iterations());
    state.counters["pages_written"] = static_cast<double>(dirtyPages);
    state.SetLabel(Heap::pageScanAvailable() ? "page-scan"
                                             : "memset-fallback");
}

void
BM_Heap_Recycle_Dense(benchmark::State &state)
{
    runHeapRecycleBenchmark(state, 128 << 10, 32);
}

void
BM_Heap_Recycle_Sparse(benchmark::State &state)
{
    runHeapRecycleBenchmark(state, 1536 << 10, 5);
}

BENCHMARK(BM_Heap_Recycle_Dense)->UseManualTime();
BENCHMARK(BM_Heap_Recycle_Sparse)->UseManualTime();

} // namespace
} // namespace trapjit

BENCHMARK_MAIN();
