/**
 * @file
 * Differential suite for the native x86-64 tier.
 *
 * The native engine (codegen/native/native_engine.h) claims to be
 * observably identical to the fast interpreter on everything but the
 * simulated cycle model: same heap bytes, same exceptions (Java-level
 * and HardFault, message included), same EventTrace, same semantic
 * counters (instructions, calls, allocations, trapsTaken,
 * speculativeReadsOfNull).  Unlike the interpreters it takes the
 * paper's mechanism literally — an implicit null check is *zero emitted
 * instructions* and recovery rides a real SIGSEGV from the heap guard
 * page — so this suite also asserts the machine-code shape:
 *
 *  1. a parametrized sweep: 200 random programs × the full 11-arm
 *     config matrix, each compiled program executed under both engines
 *     and compared with compareNativeEngine();
 *  2. disassembly-level check-size assertions via NativeCode record
 *     offsets: an implicit NullCheck record is exactly the
 *     instruction-budget preamble (no compare, no branch), an explicit
 *     one carries the kNativeExplicitNullCheckBytes compare-and-branch;
 *  3. directed tests for the trap path (a real fault must be taken and
 *     must surface as the interpreter-identical NullPointerException,
 *     also when a foreign SIGSEGV handler chains into trapjit's, and a
 *     fault outside JIT code must still reach the previous handler),
 *     mixed native/interpreted call stacks, budget-fault and
 *     call-depth-fault message parity, one program per null-access
 *     verdict run on every engine, and the TRAPJIT_INTERP selector;
 *  4. recycled engines: on every engine, a run after reset() matches
 *     a fresh engine's run bit for bit (heap recycle leaves no residue);
 *  5. the one frame stack every engine runs on: chains that change
 *     tier at every frame, at and past the depth limit; a HardFault
 *     deep in such a chain, then reset(); an optimized frame that
 *     deopts and then calls from its resumed slots.
 *
 * Everything execution-related skips on hosts without the native tier;
 * it runs under AddressSanitizer too (the sanitizer CI job).
 */

#include <gtest/gtest.h>

#include <bit>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "codegen/check_bytes.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/native_engine.h"
#include "codegen/native/tiered_engine.h"
#include "interp/decoded_program.h"
#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "jit/compile_service.h"
#include "jit/compiler.h"
#include "testing/equivalence.h"
#include "testing/random_program.h"
#include "testing/signal_chain.h"
#include "testing/workload_gen/workload_gen.h"

namespace trapjit
{
namespace
{

/** Skip (with notice) where native code cannot run: see file comment. */
#define TRAPJIT_REQUIRE_NATIVE_TIER()                                        \
    do {                                                                     \
        if (!nativeTierSupported())                                          \
            GTEST_SKIP() << "native tier requires x86-64 Linux";             \
    } while (0)

struct Arm
{
    const char *targetName;
    Target (*makeTarget)();
    PipelineConfig (*makeConfig)();
};

// The full 11-arm (target, pipeline) matrix of the reproduction — the
// same arms as test_interp_differential and the equivalence suites.
const Arm kArms[] = {
    {"ia32", makeIA32WindowsTarget, makeNoOptNoTrapConfig},
    {"ia32", makeIA32WindowsTarget, makeNoOptTrapConfig},
    {"ia32", makeIA32WindowsTarget, makeOldNullCheckConfig},
    {"ia32", makeIA32WindowsTarget, makeNewPhase1OnlyConfig},
    {"ia32", makeIA32WindowsTarget, makeNewFullConfig},
    {"ia32", makeIA32WindowsTarget, makeAltVMConfig},
    {"aix", makePPCAIXTarget, makeAIXNoOptConfig},
    {"aix", makePPCAIXTarget, makeAIXNoSpeculationConfig},
    {"aix", makePPCAIXTarget, makeAIXSpeculationConfig},
    {"sparc", makeSPARCTarget, makeNewFullConfig},
    {"s390", makeS390Target, makeNewFullConfig},
};

using SeedAndArm = std::tuple<uint64_t, size_t>;

class NativeDifferential : public ::testing::TestWithParam<SeedAndArm>
{
};

TEST_P(NativeDifferential, NativeMatchesFastInterpreter)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    const auto [seed, armIdx] = GetParam();
    const Arm &arm = kArms[armIdx];

    GeneratorOptions opts;
    opts.seed = seed;
    std::unique_ptr<Module> mod = generateRandomModule(opts);

    Target target = arm.makeTarget();
    Compiler compiler(target, arm.makeConfig());
    compiler.compile(*mod);

    EquivalenceReport report = compareNativeEngine(*mod, target);
    EXPECT_TRUE(report.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << ": " << report.message;
}

std::string
armName(const ::testing::TestParamInfo<SeedAndArm> &info)
{
    const auto [seed, armIdx] = info.param;
    std::string cfg = kArms[armIdx].makeConfig().name;
    for (char &c : cfg)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return "seed" + std::to_string(seed) + "_" +
           kArms[armIdx].targetName + "_" + cfg;
}

// Seeds 500..700 (200 random programs) × 11 arms = 2200 compiled
// programs executed under both engines — disjoint from the other
// suites' seed ranges.
INSTANTIATE_TEST_SUITE_P(
    Sweep, NativeDifferential,
    ::testing::Combine(::testing::Range<uint64_t>(500, 700),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// A smaller sweep re-running a slice of the matrix with fusion off
// (fusion must be invisible to the native tier: records keep their
// srcOp and the compiled code is per-record either way) and on the
// *unoptimized* module shape (every check explicit).
class NativeDifferentialShapes
    : public ::testing::TestWithParam<SeedAndArm>
{
};

TEST_P(NativeDifferentialShapes, FusionOffAndUnoptimizedShapes)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    const auto [seed, armIdx] = GetParam();
    const Arm &arm = kArms[armIdx];

    GeneratorOptions opts;
    opts.seed = seed;
    std::unique_ptr<Module> mod = generateRandomModule(opts);
    Target target = arm.makeTarget();

    EquivalenceReport unopt = compareNativeEngine(*mod, target);
    EXPECT_TRUE(unopt.equivalent)
        << "seed " << seed << " unoptimized on " << arm.targetName
        << ": " << unopt.message;

    Compiler compiler(target, arm.makeConfig());
    compiler.compile(*mod);

    DecodeOptions noFuse;
    noFuse.fuse = false;
    EquivalenceReport plain = compareNativeEngine(*mod, target, noFuse);
    EXPECT_TRUE(plain.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << " (fusion off): " << plain.message;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NativeDifferentialShapes,
    ::testing::Combine(::testing::Range<uint64_t>(500, 520),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// ---------------------------------------------------------------------------
// Mixed native / interpreted call stacks
// ---------------------------------------------------------------------------

TEST(NativeMixedDispatch, FilteredFunctionsFallBackPerFunction)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();

    for (uint64_t seed = 500; seed < 510; ++seed) {
        GeneratorOptions opts;
        opts.seed = seed;
        auto mod = generateRandomModule(opts);
        Compiler compiler(target, config);
        compiler.compile(*mod);

        // Alternate functions native / interpreted: calls cross the
        // boundary in both directions.
        NativeEngineOptions alternate;
        alternate.nativeFilter = [](FunctionId id) { return id % 2 == 0; };
        EquivalenceReport mixed =
            compareNativeEngine(*mod, target, {}, alternate);
        EXPECT_TRUE(mixed.equivalent)
            << "seed " << seed << " mixed-dispatch: " << mixed.message;

        // Everything filtered: the engine must degrade to the fast
        // interpreter wholesale (the non-x86-64 code path, on x86-64).
        NativeEngineOptions none;
        none.nativeFilter = [](FunctionId) { return false; };
        EquivalenceReport fallback =
            compareNativeEngine(*mod, target, {}, none);
        EXPECT_TRUE(fallback.equivalent)
            << "seed " << seed << " full-fallback: " << fallback.message;
    }
}

// ---------------------------------------------------------------------------
// Machine-code shape: the implicit check really is zero instructions
// ---------------------------------------------------------------------------

/** main: one checked field read off a parameter-like local ref. */
std::unique_ptr<Module>
buildFieldReadModule(bool throughNull)
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId obj;
    if (throughNull) {
        obj = b.constNull();
    } else {
        obj = b.newObject(0, 24);
        b.putField(obj, 8, b.constInt(41));
    }
    ValueId v = b.getField(obj, 8, Type::I32);
    b.ret(b.binop(Opcode::IAdd, v, b.constInt(1)));
    return mod;
}

TEST(NativeCheckBytes, ImplicitChecksCompileToZeroInstructions)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(false);
    Compiler compiler(target, makeNoOptTrapConfig());
    compiler.compile(*mod);

    FunctionId entry = mod->findFunction("main");
    // Pin the baseline backend: these byte-layout assertions describe
    // the per-record lowering, and must not flip when the suite runs
    // under TRAPJIT_NATIVE_BACKEND=optimized.
    NativeEngineOptions baselineOpts;
    baselineOpts.backend = NativeBackend::Baseline;
    NativeEngine engine(*mod, target, {}, nullptr, {}, nullptr,
                        baselineOpts);
    const NativeCode *nc = engine.nativeCode(entry);
    ASSERT_NE(nullptr, nc) << engine.unsupportedReason(entry);
    ASSERT_GT(nc->implicitChecksCompiled, 0u)
        << "trap config did not produce implicit checks";
    EXPECT_EQ(0u, nc->implicitNullCheckBytes);

    // Record-level disassembly check: every implicit NullCheck record
    // is *exactly* the budget preamble — zero check instructions — and
    // every explicit one is preamble + slot load + compare-and-branch.
    auto df = decodeFunction(mod->function(entry), target);
    ASSERT_EQ(df->code.size() + 1, nc->recordOffsets.size());
    size_t implicitSeen = 0;
    for (size_t i = 0; i < df->code.size(); ++i) {
        if (df->code[i].srcOp != Opcode::NullCheck)
            continue;
        uint32_t bytes = nc->recordOffsets[i + 1] - nc->recordOffsets[i];
        if (df->code[i].flavor == CheckFlavor::Implicit) {
            EXPECT_EQ(kNativeBudgetPreambleBytes +
                          kNativeImplicitNullCheckBytes,
                      bytes)
                << "implicit check at record " << i
                << " emitted real instructions";
            ++implicitSeen;
        } else {
            EXPECT_EQ(kNativeBudgetPreambleBytes + 7 /* slot load */ +
                          kNativeExplicitNullCheckBytes,
                      bytes)
                << "explicit check at record " << i;
        }
    }
    EXPECT_GT(implicitSeen, 0u);

    // And the code still runs correctly.
    ExecResult r = engine.run(entry, {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(42, r.value.i);
}

TEST(NativeCheckBytes, ExplicitChecksCarryTheCompareAndBranch)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(false);
    Compiler compiler(target, makeNoOptNoTrapConfig());
    compiler.compile(*mod);

    FunctionId entry = mod->findFunction("main");
    NativeEngineOptions baselineOpts;
    baselineOpts.backend = NativeBackend::Baseline;
    NativeEngine engine(*mod, target, {}, nullptr, {}, nullptr,
                        baselineOpts);
    const NativeCode *nc = engine.nativeCode(entry);
    ASSERT_NE(nullptr, nc) << engine.unsupportedReason(entry);
    EXPECT_EQ(0u, nc->implicitChecksCompiled);
    ASSERT_GT(nc->explicitChecksCompiled, 0u);
    EXPECT_EQ(nc->explicitChecksCompiled * kNativeExplicitNullCheckBytes,
              nc->explicitNullCheckBytes);
}

// ---------------------------------------------------------------------------
// The trap path, for real
// ---------------------------------------------------------------------------

TEST(NativeTrap, GuardPageFaultBecomesTheInterpreterIdenticalNpe)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(true);
    Compiler compiler(target, makeNoOptTrapConfig());
    compiler.compile(*mod);

    FunctionId entry = mod->findFunction("main");

    // Both engines must agree on everything observable...
    EquivalenceReport report = compareNativeEngine(*mod, target);
    EXPECT_TRUE(report.equivalent) << report.message;

    // ...and the native run must have taken a *real* hardware trap.
    NativeEngine engine(*mod, target);
    const NativeCode *nc = engine.nativeCode(entry);
    ASSERT_NE(nullptr, nc) << engine.unsupportedReason(entry);
    ASSERT_GT(nc->implicitChecksCompiled, 0u);
    ExecResult r = engine.run(entry, {});
    EXPECT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
    EXPECT_EQ(1u, r.stats.trapsTaken);

    FastInterpreter fast(*mod, target);
    ExecResult fr = fast.run(entry, {});
    EXPECT_EQ(ExecResult::Outcome::Threw, fr.outcome);
    EXPECT_EQ(ExcKind::NullPointer, fr.exception);
    EXPECT_EQ(r.stats.trapsTaken, fr.stats.trapsTaken);
}

// ---------------------------------------------------------------------------
// Trap recovery under a chained foreign handler
// ---------------------------------------------------------------------------
//
// Native frames recover traps inside the SIGSEGV handler: it rewrites
// the faulting frame's RIP and returns, so sigreturn reinstates the
// interrupted signal mask.  A foreign handler installed on top of
// trapjit's — SIGSEGV in its sa_mask, no SA_NODEFER, forwarding to
// trapjit — would leave SIGSEGV blocked if recovery ever jumped out of
// the handler instead, and the next guard-page fault would kill the
// process.  The test runs in a forked child for that reason (the
// handler is testing/signal_chain.h's).

[[noreturn]] void
childFail(const char *what, const char *engine, int run)
{
    std::fprintf(stderr, "%s: %s (run %d)\n", engine, what, run);
    std::_Exit(1);
}

/**
 * In the forked child: chain a foreign handler over trapjit's, block
 * SIGUSR1, and run @p mod's main twice on each native engine (baseline,
 * optimized, and tiered with every function promoted up front) against
 * the fast interpreter's result.  Exits 0 only if every run matched,
 * took its traps through the foreign handler and left the thread's
 * signal mask exactly as it found it.
 */
[[noreturn]] void
runUnderChainedHandler(const Module &mod, const Target &target)
{
    FunctionId entry = mod.findFunction("main");
    FastInterpreter fast(mod, target);
    ExecResult want = fast.run(entry, {});
    uint64_t wantDigest = fast.heap().digest();

    NativeEngineOptions baselineOpts;
    baselineOpts.backend = NativeBackend::Baseline;
    NativeEngineOptions optimizedOpts;
    optimizedOpts.backend = NativeBackend::Optimized;
    // Constructing the engines installs trapjit's handler; the foreign
    // one goes on top and forwards to it.
    NativeEngine native(mod, target, {}, nullptr, {}, nullptr,
                        baselineOpts);
    NativeEngine optimized(mod, target, {}, nullptr, {}, nullptr,
                           optimizedOpts);
    TieredOptions manual;
    manual.threshold = 1u << 30;
    manual.synchronous = true;
    TieredEngine tiered(mod, target, {}, nullptr, {}, manual);
    for (FunctionId f = 0; f < mod.numFunctions(); ++f)
        tiered.promoteNow(f);

    if (!chainForeignSegvHandler())
        childFail("cannot chain over trapjit's handler", "setup", 0);

    sigset_t usr1;
    sigemptyset(&usr1);
    sigaddset(&usr1, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &usr1, nullptr);

    auto check = [&](auto &engine, const char *name) {
        for (int run = 1; run <= 2; ++run) {
            engine.reset();
            const sig_atomic_t entriesBefore = g_foreignSegvEntries;
            sigset_t before, after;
            pthread_sigmask(SIG_SETMASK, nullptr, &before);
            ExecResult got = engine.run(entry, {});
            pthread_sigmask(SIG_SETMASK, nullptr, &after);
            if (!sameSignalMask(before, after))
                childFail("signal mask changed across run()", name, run);
            if (g_foreignSegvEntries == entriesBefore)
                childFail("no trap went through the foreign handler",
                          name, run);
            if (got.outcome != want.outcome ||
                got.exception != want.exception ||
                got.value.i != want.value.i)
                childFail("result differs from the fast interpreter",
                          name, run);
            if (got.stats.instructions != want.stats.instructions ||
                got.stats.calls != want.stats.calls ||
                got.stats.allocations != want.stats.allocations ||
                got.stats.trapsTaken != want.stats.trapsTaken ||
                got.stats.speculativeReadsOfNull !=
                    want.stats.speculativeReadsOfNull)
                childFail("counters differ from the fast interpreter",
                          name, run);
            if (engine.heap().digest() != wantDigest)
                childFail("heap differs from the fast interpreter", name,
                          run);
        }
    };
    check(native, "native");
    check(optimized, "optimized");
    check(tiered, "tiered");
    std::_Exit(0);
}

TEST(NativeTrapMaskDeathTest, RecoveryStaysExactUnderChainedHandler)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    const WorkloadProfile *preset = findWorkloadProfile("null_storm");
    ASSERT_NE(preset, nullptr);

    // The first null_storm seed whose main takes hardware traps under
    // the trap arm (the fast interpreter counts them without faulting).
    std::unique_ptr<Module> mod;
    for (uint64_t seed = 900; seed < 932 && mod == nullptr; ++seed) {
        WorkloadProfile p = *preset;
        p.seed = seed;
        auto candidate = generateWorkloadModule(p);
        Compiler compiler(target, makeNoOptTrapConfig());
        compiler.compile(*candidate);
        FastInterpreter fast(*candidate, target);
        if (fast.run(candidate->findFunction("main"), {})
                .stats.trapsTaken >= 2)
            mod = std::move(candidate);
    }
    ASSERT_NE(mod, nullptr) << "no null_storm seed takes two traps";

    EXPECT_EXIT(runUnderChainedHandler(*mod, target),
                ::testing::ExitedWithCode(0), "");
}

// A fault outside JIT code is not ours, even while a native run scope
// is active and the fault address lies in the heap guard region: the
// handler must chain it to the handler installed before trapjit's.

constexpr int kPreviousHandlerExit = 42;

void
previousSegvHandler(int, siginfo_t *, void *)
{
    std::_Exit(kPreviousHandlerExit);
}

[[noreturn]] void
faultOutsideJitCodeInRunScope(const Module &mod, const Target &target)
{
    // A handler that claimed the fault would resume somewhere wrong and
    // could fault forever: SIGALRM ends such a child with a signal.
    alarm(10);
    struct sigaction previous;
    std::memset(&previous, 0, sizeof(previous));
    previous.sa_sigaction = previousSegvHandler;
    previous.sa_flags = SA_SIGINFO;
    sigemptyset(&previous.sa_mask);
    if (sigaction(SIGSEGV, &previous, nullptr) != 0)
        childFail("cannot install the previous handler", "setup", 0);

    // Installs trapjit's handler over the previous one.
    NativeEngine engine(mod, target);
    FunctionId entry = mod.findFunction("main");
    if (engine.run(entry, {}).stats.trapsTaken == 0)
        childFail("the engine took no trap", "native", 1);

    // The same scope run() enters, mapping main's compiled code.
    NativePcMapSlot map;
    map.add(*engine.nativeCode(entry));
    ExecStats stats;
    NativeRunScope scope(map.current(), stats, engine.heap());
    volatile const int32_t *guard =
        reinterpret_cast<const int32_t *>(engine.heap().hostBase() + 8);
    (void)*guard;
    childFail("the guard-region read did not fault", "native", 1);
}

TEST(NativeTrapChainDeathTest, FaultOutsideJitCodeReachesPreviousHandler)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(/*throughNull=*/true);
    Compiler compiler(target, makeNoOptTrapConfig());
    compiler.compile(*mod);
    EXPECT_EXIT(faultOutsideJitCodeInRunScope(*mod, target),
                ::testing::ExitedWithCode(kPreviousHandlerExit), "");
}

// ---------------------------------------------------------------------------
// Recycled engines: a run after reset() is a fresh run
// ---------------------------------------------------------------------------
//
// Every other differential check builds a fresh engine per case, so none
// reuses a heap.  reset() wipes only the pages the kernel reports as
// holding a private frame; a page it missed would leak one run's bytes
// into the next.  big_offset programs write a few places of ~512 KB
// objects (the sparse case) and mixed programs everything else.

/** Everything a run makes observable, for a bit-for-bit comparison. */
struct RunObservation
{
    bool hardFault = false;
    std::string fault;
    ExecResult result;
    std::vector<Event> events;
    uint64_t heapDigest = 0;
};

template <typename EngineT>
RunObservation
observeRun(EngineT &engine, FunctionId entry,
           const std::vector<RuntimeValue> &args = {})
{
    RunObservation obs;
    try {
        obs.result = engine.run(entry, args);
        obs.events = engine.trace().events();
        obs.heapDigest = engine.heap().digest();
    } catch (const HardFault &fault) {
        obs.hardFault = true;
        obs.fault = fault.what();
    }
    return obs;
}

/** First difference between two observations, or "" if identical. */
std::string
observationMismatch(const RunObservation &fresh,
                    const RunObservation &recycled)
{
    if (fresh.hardFault != recycled.hardFault ||
        fresh.fault != recycled.fault)
        return "HardFault differs: fresh \"" + fresh.fault +
               "\", recycled \"" + recycled.fault + "\"";
    const ExecResult &a = fresh.result;
    const ExecResult &b = recycled.result;
    if (a.outcome != b.outcome || a.exception != b.exception)
        return std::string("outcome differs: fresh ") +
               excName(a.exception) + ", recycled " +
               excName(b.exception);
    if (a.value.i != b.value.i ||
        std::bit_cast<uint64_t>(a.value.f) !=
            std::bit_cast<uint64_t>(b.value.f) ||
        a.value.ref != b.value.ref)
        return "return value differs";
    if (fresh.events != recycled.events)
        return "event trace differs";
    if (fresh.heapDigest != recycled.heapDigest)
        return "heap digest differs";
    if (a.stats.instructions != b.stats.instructions ||
        a.stats.calls != b.stats.calls ||
        a.stats.allocations != b.stats.allocations ||
        a.stats.trapsTaken != b.stats.trapsTaken ||
        a.stats.speculativeReadsOfNull != b.stats.speculativeReadsOfNull)
        return "semantic counters differ";
    return "";
}

/**
 * Run @p mod's main on a fresh engine from @p make, and twice on another
 * with reset() between; the second run must match the fresh one.
 */
template <typename MakeEngine>
void
expectRecycledRunMatchesFresh(const Module &mod, const char *engineName,
                              const std::string &program,
                              MakeEngine make)
{
    const FunctionId entry = mod.findFunction("main");
    auto fresh = make();
    const RunObservation want = observeRun(*fresh, entry);

    auto engine = make();
    observeRun(*engine, entry);
    engine->reset();
    const RunObservation got = observeRun(*engine, entry);
    EXPECT_EQ("", observationMismatch(want, got))
        << program << " on " << engineName;
}

TEST(NativeRecycledEngine, SecondRunAfterResetMatchesFreshEngine)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    InterpOptions options;
    options.recordTrace = true;
    NativeEngineOptions baseline;
    baseline.backend = NativeBackend::Baseline;
    NativeEngineOptions optimized;
    optimized.backend = NativeBackend::Optimized;
    const TieredOptions tiered{.threshold = 2, .synchronous = true};

    for (const char *presetName : {"big_offset", "mixed"}) {
        const WorkloadProfile *preset = findWorkloadProfile(presetName);
        ASSERT_NE(preset, nullptr) << presetName;
        for (uint64_t seed : {101, 202, 303, 404}) {
            WorkloadProfile p = *preset;
            p.seed = seed;
            std::unique_ptr<Module> mod = generateWorkloadModule(p);
            Compiler(target, makeNewFullConfig()).compile(*mod);
            const std::string program =
                std::string(presetName) + "#" + std::to_string(seed);

            expectRecycledRunMatchesFresh(*mod, "fast", program, [&] {
                return std::make_unique<FastInterpreter>(*mod, target,
                                                         options);
            });
            expectRecycledRunMatchesFresh(*mod, "native", program, [&] {
                return std::make_unique<NativeEngine>(
                    *mod, target, options, nullptr, DecodeOptions{},
                    nullptr, baseline);
            });
            expectRecycledRunMatchesFresh(*mod, "optimized", program, [&] {
                return std::make_unique<NativeEngine>(
                    *mod, target, options, nullptr, DecodeOptions{},
                    nullptr, optimized);
            });
            expectRecycledRunMatchesFresh(*mod, "tiered", program, [&] {
                return std::make_unique<TieredEngine>(
                    *mod, target, options, nullptr, DecodeOptions{},
                    tiered);
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Call-depth limit and frame-pool bounds
// ---------------------------------------------------------------------------

/**
 * rec(n) = n == 0 ? 0 : rec(n - 1) + 1, padded with temps.  As the
 * module's only function it has the widest slot file, so a chain of
 * rec frames fills the frame pool's rows exactly.
 */
std::unique_ptr<Module>
buildRecursionModule()
{
    auto mod = std::make_unique<Module>();
    Function &rec = mod->addFunction("rec", Type::I32);
    ValueId n = rec.addParam(Type::I32, "n");
    {
        IRBuilder b(rec);
        b.startBlock();
        BasicBlock &base = rec.newBlock();
        BasicBlock &step = rec.newBlock();
        b.branch(b.cmp(Opcode::ICmp, CmpPred::EQ, n, b.constInt(0)), base,
                 step);
        b.atEnd(base);
        b.ret(b.constInt(0));
        b.atEnd(step);
        ValueId r =
            b.callStatic(rec.id(),
                         {b.binop(Opcode::ISub, n, b.constInt(1))},
                         Type::I32);
        for (int k = 0; k < 24; ++k)
            r = b.binop(Opcode::IAdd, r, b.constInt(k == 0 ? 1 : 0));
        b.ret(r);
    }
    return mod;
}

TEST(NativeCallDepth, DepthLimitFaultsIdenticallyOnEveryEngine)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildRecursionModule();
    const FunctionId rec = mod->findFunction("rec");

    for (size_t maxDepth : {size_t{16}, InterpOptions{}.maxCallDepth}) {
        InterpOptions options;
        options.maxCallDepth = maxDepth;
        // rec(n) is the root at depth 0 and rec(0) runs at depth n, so
        // n = maxDepth reaches the limit exactly and n = maxDepth + 1
        // crosses it — after the frame at the limit staged its
        // argument in the pool's last row.
        const int64_t limit = static_cast<int64_t>(maxDepth);
        const std::vector<RuntimeValue> atLimit = {
            RuntimeValue::ofInt(limit)};
        const std::vector<RuntimeValue> pastLimit = {
            RuntimeValue::ofInt(limit + 1)};

        std::string want;
        {
            FastInterpreter fast(*mod, target, options);
            try {
                fast.run(rec, pastLimit);
                FAIL() << "fast engine did not hit the depth limit";
            } catch (const HardFault &fault) {
                want = fault.what();
            }
            ExecResult r = fast.run(rec, atLimit);
            ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
            ASSERT_EQ(limit, r.value.i);
        }
        EXPECT_EQ("call depth limit exceeded in rec", want);

        // Past the limit first, then at it: the same engine must come
        // back with a clean frame pool after the fault unwound.
        auto expectLimit = [&](auto &engine, const char *name) {
            for (int round = 0; round < 2; ++round) {
                try {
                    engine.run(rec, pastLimit);
                    ADD_FAILURE() << name << " did not hit the depth limit"
                                  << " (maxCallDepth " << maxDepth << ")";
                } catch (const HardFault &fault) {
                    EXPECT_EQ(want, fault.what())
                        << name << ", maxCallDepth " << maxDepth;
                }
                ExecResult r = engine.run(rec, atLimit);
                EXPECT_EQ(ExecResult::Outcome::Returned, r.outcome)
                    << name << ", maxCallDepth " << maxDepth;
                EXPECT_EQ(limit, r.value.i)
                    << name << ", maxCallDepth " << maxDepth;
            }
        };
        NativeEngineOptions baselineOpts;
        baselineOpts.backend = NativeBackend::Baseline;
        NativeEngine native(*mod, target, options, nullptr, {}, nullptr,
                            baselineOpts);
        ASSERT_NE(nullptr, native.nativeCode(rec));
        expectLimit(native, "native");

        NativeEngineOptions optimizedOpts;
        optimizedOpts.backend = NativeBackend::Optimized;
        NativeEngine optimized(*mod, target, options, nullptr, {},
                               nullptr, optimizedOpts);
        ASSERT_NE(nullptr, optimized.nativeCode(rec));
        expectLimit(optimized, "optimized");

        // Threshold 2, synchronous: rec promotes a few frames into the
        // first run, so the chain crosses interpreter and tiered
        // frames; the second round runs warm.
        TieredOptions tiered;
        tiered.threshold = 2;
        tiered.synchronous = true;
        TieredEngine tier(*mod, target, options, nullptr, {}, tiered);
        expectLimit(tier, "tiered");
        EXPECT_NE(nullptr, tier.registry()->published(rec));
    }
}

// ---------------------------------------------------------------------------
// One frame stack across tiers
// ---------------------------------------------------------------------------

/**
 * ping(n, p) and pong(n, p): at n == 0 each returns 0 for a null p and
 * p.<8> otherwise; above that, the other one's value at n - 1, plus
 * one.  Both are padded with temps to the same, widest slot file, so
 * a chain of them fills the frame pool's rows exactly.  Run with one
 * of the two native and the other interpreted, the chain changes tier
 * at every frame, on the one frame stack.  A p of 8 is a non-null
 * reference into the heap guard region: the access at the bottom
 * faults "getfield outside the object" in whichever tier it runs.
 */
std::unique_ptr<Module>
buildPingPongModule()
{
    auto mod = std::make_unique<Module>();
    Function &ping = mod->addFunction("ping", Type::I32);
    Function &pong = mod->addFunction("pong", Type::I32);
    for (auto [self, other] : {std::pair{&ping, &pong},
                               std::pair{&pong, &ping}}) {
        ValueId n = self->addParam(Type::I32, "n");
        ValueId p = self->addParam(Type::Ref, "p");
        IRBuilder b(*self);
        b.startBlock();
        BasicBlock &base = self->newBlock();
        BasicBlock &nil = self->newBlock();
        BasicBlock &read = self->newBlock();
        BasicBlock &step = self->newBlock();
        b.branch(b.cmp(Opcode::ICmp, CmpPred::EQ, n, b.constInt(0)), base,
                 step);
        b.atEnd(base);
        b.ifNull(p, nil, read);
        b.atEnd(nil);
        b.ret(b.constInt(0));
        b.atEnd(read);
        b.ret(b.getField(p, 8, Type::I32));
        b.atEnd(step);
        ValueId r = b.callStatic(
            other->id(), {b.binop(Opcode::ISub, n, b.constInt(1)), p},
            Type::I32);
        for (int k = 0; k < 24; ++k)
            r = b.binop(Opcode::IAdd, r, b.constInt(k == 0 ? 1 : 0));
        b.ret(r);
    }
    return mod;
}

/** ping native, pong on the fast-interpreter fallback. */
NativeEngineOptions
pingNativeOnly(const Module &mod, NativeBackend backend)
{
    NativeEngineOptions opts;
    opts.backend = backend;
    const FunctionId pong = mod.findFunction("pong");
    opts.nativeFilter = [pong](FunctionId id) { return id != pong; };
    return opts;
}

/** A tiered engine with ping published and pong held cold. */
std::unique_ptr<TieredEngine>
makePingTieredEngine(const Module &mod, const Target &target,
                     const InterpOptions &options)
{
    TieredOptions tiered;
    tiered.threshold = 1u << 30;
    tiered.synchronous = true;
    auto engine = std::make_unique<TieredEngine>(mod, target, options,
                                                 nullptr, DecodeOptions{},
                                                 tiered);
    engine->promoteNow(mod.findFunction("ping"));
    return engine;
}

TEST(NativeFrameStack, MixedChainAtAndPastTheDepthLimitOnEveryEngine)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildPingPongModule();
    const FunctionId ping = mod->findFunction("ping");

    for (size_t maxDepth : {size_t{16}, size_t{17},
                            InterpOptions{}.maxCallDepth}) {
        InterpOptions options;
        options.maxCallDepth = maxDepth;
        const int64_t limit = static_cast<int64_t>(maxDepth);
        const std::vector<RuntimeValue> atLimit = {
            RuntimeValue::ofInt(limit), RuntimeValue::ofRef(0)};
        const std::vector<RuntimeValue> pastLimit = {
            RuntimeValue::ofInt(limit + 1), RuntimeValue::ofRef(0)};
        // The frame at depth maxDepth + 1 is ping for an even depth.
        const std::string want =
            std::string("call depth limit exceeded in ") +
            ((maxDepth + 1) % 2 == 0 ? "ping" : "pong");

        FastInterpreter fast(*mod, target, options);
        const RunObservation fastPast = observeRun(fast, ping, pastLimit);
        EXPECT_EQ(want, fastPast.fault);
        const RunObservation fastAt = observeRun(fast, ping, atLimit);
        ASSERT_FALSE(fastAt.hardFault) << fastAt.fault;
        ASSERT_EQ(limit, fastAt.result.value.i);

        // Past the limit, then at it, twice: the same engine must come
        // back with an intact frame stack after the fault unwound.
        auto expectLimit = [&](auto &engine, const char *name) {
            for (int round = 0; round < 2; ++round) {
                const RunObservation past =
                    observeRun(engine, ping, pastLimit);
                EXPECT_EQ(want, past.fault)
                    << name << ", maxCallDepth " << maxDepth;
                const RunObservation at = observeRun(engine, ping, atLimit);
                EXPECT_FALSE(at.hardFault)
                    << name << ": " << at.fault << ", maxCallDepth "
                    << maxDepth;
                EXPECT_EQ(ExecResult::Outcome::Returned, at.result.outcome)
                    << name << ", maxCallDepth " << maxDepth;
                EXPECT_EQ(limit, at.result.value.i)
                    << name << ", maxCallDepth " << maxDepth;
            }
        };
        NativeEngine native(*mod, target, options, nullptr, {}, nullptr,
                            pingNativeOnly(*mod, NativeBackend::Baseline));
        ASSERT_NE(nullptr, native.nativeCode(ping));
        expectLimit(native, "native");

        NativeEngine optimized(*mod, target, options, nullptr, {}, nullptr,
                               pingNativeOnly(*mod,
                                              NativeBackend::Optimized));
        ASSERT_NE(nullptr, optimized.nativeCode(ping));
        expectLimit(optimized, "optimized");

        auto tiered = makePingTieredEngine(*mod, target, options);
        ASSERT_NE(nullptr, tiered->registry()->published(ping));
        expectLimit(*tiered, "tiered");
    }
}

TEST(NativeFrameStack, HardFaultDeepInMixedChainThenResetMatchesFresh)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildPingPongModule();
    const FunctionId ping = mod->findFunction("ping");
    InterpOptions options;
    options.recordTrace = true;

    // Depth 40 ends in ping, 41 in pong: the fault is raised once in a
    // native (or tiered) frame and once in an interpreted one.
    for (int64_t depth : {40, 41}) {
        const std::vector<RuntimeValue> faulting = {
            RuntimeValue::ofInt(depth), RuntimeValue::ofRef(8)};
        const std::vector<RuntimeValue> clean = {
            RuntimeValue::ofInt(depth), RuntimeValue::ofRef(0)};
        auto check = [&](const char *name, auto make) {
            auto fresh = make();
            const RunObservation want = observeRun(*fresh, ping, clean);
            ASSERT_FALSE(want.hardFault) << name << ": " << want.fault;
            EXPECT_EQ(depth, want.result.value.i) << name;

            auto engine = make();
            const RunObservation fault = observeRun(*engine, ping, faulting);
            EXPECT_EQ("getfield outside the object", fault.fault)
                << name << ", depth " << depth;
            engine->reset();
            const RunObservation got = observeRun(*engine, ping, clean);
            EXPECT_EQ("", observationMismatch(want, got))
                << name << ", depth " << depth;
        };
        check("fast", [&] {
            return std::make_unique<FastInterpreter>(*mod, target, options);
        });
        check("native", [&] {
            return std::make_unique<NativeEngine>(
                *mod, target, options, nullptr, DecodeOptions{}, nullptr,
                pingNativeOnly(*mod, NativeBackend::Baseline));
        });
        check("optimized", [&] {
            return std::make_unique<NativeEngine>(
                *mod, target, options, nullptr, DecodeOptions{}, nullptr,
                pingNativeOnly(*mod, NativeBackend::Optimized));
        });
        check("tiered",
              [&] { return makePingTieredEngine(*mod, target, options); });
    }
}

// ---------------------------------------------------------------------------
// Instruction-budget parity
// ---------------------------------------------------------------------------

TEST(NativeBudget, BudgetHardFaultMessageMatchesFastInterpreter)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    auto build = [] {
        auto mod = std::make_unique<Module>();
        Function &fn = mod->addFunction("main", Type::I32);
        IRBuilder b(fn);
        b.startBlock();
        ValueId i = fn.addLocal(Type::I32);
        b.move(i, b.constInt(0));
        BasicBlock &head = fn.newBlock();
        BasicBlock &body = fn.newBlock();
        BasicBlock &exit = fn.newBlock();
        b.jump(head);
        b.atEnd(head);
        ValueId cond = b.cmp(Opcode::ICmp, CmpPred::LT, i,
                             b.constInt(1000000));
        b.branch(cond, body, exit);
        b.atEnd(body);
        b.move(i, b.binop(Opcode::IAdd, i, b.constInt(1)));
        b.jump(head);
        b.atEnd(exit);
        b.ret(i);
        return mod;
    };

    Target target = makeIA32WindowsTarget();
    InterpOptions options;
    options.maxInstructions = 100;

    auto mod = build();
    std::string fastMessage;
    std::string nativeMessage;
    uint64_t fastCount = 0;
    uint64_t nativeCount = 0;
    {
        FastInterpreter fast(*mod, target, options);
        try {
            fast.run(mod->findFunction("main"), {});
            FAIL() << "fast engine did not hit the budget";
        } catch (const HardFault &fault) {
            fastMessage = fault.what();
            fastCount = fast.stats().instructions;
        }
    }
    {
        NativeEngine engine(*mod, target, options);
        try {
            engine.run(mod->findFunction("main"), {});
            FAIL() << "native engine did not hit the budget";
        } catch (const HardFault &fault) {
            nativeMessage = fault.what();
            nativeCount = engine.stats().instructions;
        }
    }
    EXPECT_EQ(fastMessage, nativeMessage);
    EXPECT_EQ(fastCount, nativeCount);
}

// ---------------------------------------------------------------------------
// The null-access verdicts, one directed program each
// ---------------------------------------------------------------------------
//
// classifyNullAccess decides what a null access does; every engine acts
// on that one verdict (the interpreters in software, baseline native
// and tiered code from the SIGSEGV path, optimized code by deopting
// into the fast interpreter) and reports faults through one message
// function.  Each case below drives one verdict through a hand-flagged
// GetField or virtual Call on main's Ref argument and runs it on the
// reference and fast interpreters and on the native, optimized and
// tiered engines: outcome, value, trap counters and HardFault text must
// agree, and the text must be the one the verdict prescribes.  The Wild
// cases fault through a non-null reference that reaches the guard
// region: the interpreters' bounds check and the native engines'
// SIGSEGV path (NullVerdict::OutsideObject) must name the same fault.

enum class Access : uint8_t
{
    Field,       ///< v = p.<offset> (I32)
    FieldStore,  ///< p.<offset> = 7 (I32), then v = 0
    VirtualCall, ///< get(p), then v = p.slot0() with no check before it
};

struct VerdictCase
{
    const char *name;
    Target (*makeTarget)();
    Access access;
    bool exceptionSite;
    bool speculative;
    int64_t offset;   ///< field offset (Field only)
    bool caught;      ///< inside a try region catching NullPointer
    Address receiver; ///< main's argument (0 = null)
    /** Expected HardFault text on every engine: "" = none; "%s" stands
     *  for the access's site id, "%t" for the target's name. */
    const char *fault;
    ExecResult::Outcome outcome;
    ExcKind exception;
    int64_t value;
    uint64_t trapsTaken;
    uint64_t specReads;
};

const VerdictCase kVerdictCases[] = {
    {"SpecSafeZero", makePPCAIXTarget, Access::Field, false, true, 8,
     false, 0, "", ExecResult::Outcome::Returned, ExcKind::None,
     0, 0, 1},
    {"TrapNpeCaught", makeIA32WindowsTarget, Access::Field, true, false, 8,
     true, 0, "", ExecResult::Outcome::Returned, ExcKind::None,
     42, 1, 0},
    {"TrapNpeUncaught", makeIA32WindowsTarget, Access::Field, true, false,
     8, false, 0, "", ExecResult::Outcome::Threw,
     ExcKind::NullPointer, 0, 1, 0},
    {"IllegalZero", makePPCAIXTarget, Access::Field, true, false, 8, false,
     0, "", ExecResult::Outcome::Returned, ExcKind::None, 0, 0, 0},
    {"SpecUnsafe", makeIA32WindowsTarget, Access::Field, false, true, 8,
     false, 0, "speculative access through null is not safe on %t (site %s)",
     ExecResult::Outcome::Returned, ExcKind::None, 0, 0, 0},
    {"NotTrapCovered", makeIA32WindowsTarget, Access::Field, true, false,
     8192, false, 0, "implicit check at site %s is not trap-covered on %t",
     ExecResult::Outcome::Returned, ExcKind::None, 0, 0, 0},
    {"Unchecked", makeIA32WindowsTarget, Access::Field, false, false, 8,
     false, 0, "unchecked null dereference: getfield at site %s",
     ExecResult::Outcome::Returned, ExcKind::None, 0, 0, 0},
    {"Wild", makeIA32WindowsTarget, Access::Field, true, false, 8, false, 8,
     "getfield outside the object", ExecResult::Outcome::Returned,
     ExcKind::None, 0, 0, 0},
    {"WildStore", makeIA32WindowsTarget, Access::FieldStore, true, false, 8,
     false, 8, "putfield outside the object", ExecResult::Outcome::Returned,
     ExcKind::None, 0, 0, 0},
    {"VirtualCallTrapNpeCaught", makeIA32WindowsTarget,
     Access::VirtualCall, true, false, 0, true, 0, "",
     ExecResult::Outcome::Returned, ExcKind::None, 42, 1, 0},
    {"VirtualCallIllegalZeroSkipsTheCall", makePPCAIXTarget,
     Access::VirtualCall, true, false, 0, false, 0, "",
     ExecResult::Outcome::Returned, ExcKind::None, 0, 0, 0},
    {"VirtualCallUnchecked", makeIA32WindowsTarget, Access::VirtualCall,
     false, false, 0, false, 0,
     "unchecked null dereference: call at site %s",
     ExecResult::Outcome::Returned, ExcKind::None, 0, 0, 0},
};

void
PrintTo(const VerdictCase &c, std::ostream *os)
{
    *os << c.name;
}

/**
 * main(Ref p): the case's access on p, then return its value (0 after a
 * store).  A caught case runs the access in a try region whose
 * NullPointer handler returns 42.  @p site receives the access's site id.
 */
std::unique_ptr<Module>
buildVerdictModule(const VerdictCase &c, SiteId &site)
{
    auto mod = std::make_unique<Module>();
    FunctionId callee = kNoFunction;
    if (c.access == Access::VirtualCall) {
        Function &get = mod->addFunction("get", Type::I32);
        get.addParam(Type::Ref, "this");
        IRBuilder gb(get);
        gb.startBlock();
        gb.ret(gb.constInt(5));
        callee = get.id();
    }
    Function &fn = mod->addFunction("main", Type::I32);
    ValueId p = fn.addParam(Type::Ref, "p");
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    TryRegionId region = 0;
    if (c.caught) {
        BasicBlock &handler = fn.newBlock();
        region = fn.addTryRegion(handler.id(), ExcKind::NullPointer);
        b.atEnd(handler);
        b.ret(b.constInt(42));
    }
    BasicBlock &body = fn.newBlock(region);
    b.atEnd(entry);
    b.jump(body);
    b.atEnd(body);
    // Emitted by hand: the builder would put an explicit NullCheck in
    // front, and the verdict is about the access's own null access.
    Instruction inst;
    ValueId stored = kNoValue;
    if (c.access == Access::Field) {
        inst.op = Opcode::GetField;
        inst.a = p;
        inst.imm = c.offset;
    } else if (c.access == Access::FieldStore) {
        stored = b.constInt(7);
        inst.op = Opcode::PutField;
        inst.a = p;
        inst.b = stored;
        inst.imm = c.offset;
    } else {
        // A call that returns first: it leaves 5 in the tiered
        // context's return slot, so a skipped call that failed to
        // keep its old destination would return 5, not 0.
        b.callStatic(callee, {p}, Type::I32);
        inst.op = Opcode::Call;
        inst.callKind = CallKind::Virtual;
        inst.imm = mod->addVirtualMethod(mod->addClass("C"), callee);
        inst.args = {p};
    }
    if (c.access != Access::FieldStore)
        inst.dst = fn.addTemp(Type::I32);
    inst.exceptionSite = c.exceptionSite;
    inst.speculative = c.speculative;
    Instruction &access = b.emit(std::move(inst));
    site = access.site;
    b.ret(access.dst != kNoValue ? access.dst : b.constInt(0));
    return mod;
}

/** What one engine's run of a verdict program showed. */
struct VerdictObserved
{
    std::string fault;
    ExecResult::Outcome outcome = ExecResult::Outcome::Returned;
    ExcKind exception = ExcKind::None;
    int64_t value = 0;
    uint64_t trapsTaken = 0;
    uint64_t specReads = 0;
};

template <class Engine>
VerdictObserved
observeVerdict(Engine &engine, FunctionId entry, Address receiver)
{
    VerdictObserved o;
    try {
        ExecResult r = engine.run(entry, {RuntimeValue::ofRef(receiver)});
        o.outcome = r.outcome;
        o.exception = r.exception;
        o.value = r.value.i;
    } catch (const HardFault &fault) {
        o.fault = fault.what();
    }
    o.trapsTaken = engine.stats().trapsTaken;
    o.specReads = engine.stats().speculativeReadsOfNull;
    return o;
}

/** @p pattern with %s replaced by @p site and %t by @p target. */
std::string
expandFault(std::string pattern, SiteId site, const std::string &target)
{
    for (auto [key, value] : {std::pair<std::string, std::string>{
                                  "%s", std::to_string(site)},
                              {"%t", target}}) {
        size_t at = pattern.find(key);
        if (at != std::string::npos)
            pattern.replace(at, key.size(), value);
    }
    return pattern;
}

class NativeNullVerdict : public ::testing::TestWithParam<VerdictCase>
{
};

TEST_P(NativeNullVerdict, SameOutcomeAndFaultOnEveryEngine)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    const VerdictCase &c = GetParam();
    const Target target = c.makeTarget();
    SiteId site = 0;
    auto mod = buildVerdictModule(c, site);
    const FunctionId entry = mod->findFunction("main");

    const std::string fault = expandFault(c.fault, site, target.name);

    auto expect = [&](const VerdictObserved &o, const std::string &want,
                      const char *engine) {
        EXPECT_EQ(want, o.fault) << engine;
        if (!want.empty())
            return; // a HardFault run has no outcome to compare
        EXPECT_EQ(c.outcome, o.outcome) << engine;
        EXPECT_EQ(c.exception, o.exception) << engine;
        EXPECT_EQ(c.value, o.value) << engine;
        EXPECT_EQ(c.trapsTaken, o.trapsTaken) << engine;
        EXPECT_EQ(c.specReads, o.specReads) << engine;
    };

    Interpreter reference(*mod, target);
    expect(observeVerdict(reference, entry, c.receiver), fault,
           "reference");
    FastInterpreter fast(*mod, target);
    expect(observeVerdict(fast, entry, c.receiver), fault, "fast");

    for (NativeBackend backend :
         {NativeBackend::Baseline, NativeBackend::Optimized}) {
        NativeEngineOptions opts;
        opts.backend = backend;
        NativeEngine engine(*mod, target, {}, nullptr, {}, nullptr, opts);
        ASSERT_NE(nullptr, engine.nativeCode(entry))
            << engine.unsupportedReason(entry);
        expect(observeVerdict(engine, entry, c.receiver), fault,
               backend == NativeBackend::Baseline ? "native" : "optimized");
    }

    // Audit off: the hand-flagged sites are what is under test, and the
    // block must publish so the run takes the SIGSEGV path in place.
    TieredOptions tiered;
    tiered.synchronous = true;
    tiered.audit = false;
    TieredEngine tier(*mod, target, {}, nullptr, {}, tiered);
    tier.promoteNow(entry);
    ASSERT_NE(nullptr, tier.registry()->published(entry));
    expect(observeVerdict(tier, entry, c.receiver), fault, "tiered");
}

INSTANTIATE_TEST_SUITE_P(
    Verdicts, NativeNullVerdict, ::testing::ValuesIn(kVerdictCases),
    [](const ::testing::TestParamInfo<VerdictCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Cache sharing with the compile service
// ---------------------------------------------------------------------------

TEST(NativeCodeCacheSharing, ServicePrecompilesAndEngineReuses)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    GeneratorOptions opts;
    opts.seed = 515151;
    auto mod = generateRandomModule(opts);
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();

    CompileServiceOptions serviceOpts;
    serviceOpts.numWorkers = 2;
    CompileService service(target, serviceOpts);
    ServiceReport report = service.compileModule(*mod, config);
    EXPECT_GT(report.counters.functionsNativeCompiled, 0u);
    EXPECT_GE(report.counters.nativeCompileSeconds, 0.0);
    EXPECT_GE(service.nativeCodeCache()->size(),
              report.counters.functionsNativeCompiled);

    // The service precompiles the trace-free variant the bench
    // harnesses execute; an engine running with recordTrace off shares
    // those entries, and a second compile of the identical module
    // compiles nothing new.
    InterpOptions traceFree;
    traceFree.recordTrace = false;
    NativeEngine engine(*mod, target, traceFree, service.decodedCache(),
                        DecodeOptions{}, service.nativeCodeCache());
    ExecResult r = engine.run(mod->findFunction("main"), {});
    (void)r;
    auto again = generateRandomModule(opts);
    ServiceReport second = service.compileModule(*again, config);
    EXPECT_EQ(0u, second.counters.functionsNativeCompiled);
}

// ---------------------------------------------------------------------------
// The big-offset regime: accesses beyond the protected area
// ---------------------------------------------------------------------------

// Figure 5's BigOffset rule: an access whose offset can land past the
// target's protected area must never ride the hardware trap — phase 2
// has to leave (or re-materialize) an explicit check.  The big_offset
// workload profile pins the generator to such offsets (16 KiB — past
// every target's trap area — and the >512 KB kMaxFieldOffset regime),
// so these sweeps hit the rule on every arm instead of relying on the
// occasional draw from the uniform generator.

/** Arms that convert explicit checks into trap-implicit ones. */
const Arm kTrapArms[] = {
    {"ia32", makeIA32WindowsTarget, makeNoOptTrapConfig},
    {"ia32", makeIA32WindowsTarget, makeNewFullConfig},
    {"sparc", makeSPARCTarget, makeNewFullConfig},
    {"s390", makeS390Target, makeNewFullConfig},
};

std::unique_ptr<Module>
buildBigOffsetModule(uint64_t seed)
{
    const WorkloadProfile *preset = findWorkloadProfile("big_offset");
    EXPECT_NE(preset, nullptr);
    WorkloadProfile p = *preset;
    p.seed = seed;
    return generateWorkloadModule(p);
}

// IR-shape half (host-independent, no native tier needed): after any
// trap-converting arm compiles a big-offset module, no field access at
// an offset the target cannot trap on may claim implicit coverage.
TEST(NativeBigOffset, BeyondGuardAccessesStayExplicitUnderTrapArms)
{
    for (const Arm &arm : kTrapArms) {
        Target target = arm.makeTarget();
        for (uint64_t seed = 700; seed < 712; ++seed) {
            auto mod = buildBigOffsetModule(seed);
            Compiler compiler(target, arm.makeConfig());
            compiler.compile(*mod);

            size_t beyondGuard = 0;
            for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
                const Function &fn = mod->function(f);
                for (BlockId bid = 0; bid < fn.numBlocks(); ++bid) {
                    for (const Instruction &inst :
                         fn.block(bid).insts()) {
                        if (inst.op != Opcode::GetField &&
                            inst.op != Opcode::PutField)
                            continue;
                        if (inst.imm < target.trapAreaBytes)
                            continue;
                        ++beyondGuard;
                        EXPECT_FALSE(inst.exceptionSite)
                            << "seed " << seed << " on "
                            << arm.targetName << " / "
                            << arm.makeConfig().name << ": " << fn.name()
                            << " claims a trap at offset " << inst.imm
                            << ", past the " << target.trapAreaBytes
                            << "-byte protected area";
                    }
                }
            }
            // The profile guarantees the regime is actually present.
            EXPECT_GT(beyondGuard, 0u) << "seed " << seed;
        }
    }
}

// Execution half: the compiled big-offset programs must still be
// bit-identical across fast and native engines — the explicit checks
// the rule preserves fire exactly like the interpreter's.
TEST(NativeBigOffset, BigOffsetProgramsMatchAcrossEngines)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    for (const Arm &arm : kTrapArms) {
        Target target = arm.makeTarget();
        for (uint64_t seed = 700; seed < 708; ++seed) {
            auto mod = buildBigOffsetModule(seed);
            Compiler compiler(target, arm.makeConfig());
            compiler.compile(*mod);
            EquivalenceReport report = compareNativeEngine(*mod, target);
            EXPECT_TRUE(report.equivalent)
                << "big_offset seed " << seed << " on " << arm.targetName
                << " / " << arm.makeConfig().name << ": "
                << report.message;
        }
    }
}

// ---------------------------------------------------------------------------
// Optimized backend: regalloc + section-5.4 speculation sweep
// ---------------------------------------------------------------------------

/** compareNativeEngine with the optimized backend pinned. */
EquivalenceReport
compareOptimized(Module &mod, const Target &target)
{
    NativeEngineOptions opts;
    opts.backend = NativeBackend::Optimized;
    return compareNativeEngine(mod, target, {}, opts);
}

class OptimizedDifferential : public ::testing::TestWithParam<SeedAndArm>
{
};

// The same 11-arm matrix as the baseline sweep, with linear-scan
// register allocation, batched budget runs and speculated loads in the
// code under test.  Every deopt side-exit replays on the fast
// interpreter, so bit-identity here covers the whole deopt protocol.
TEST_P(OptimizedDifferential, OptimizedMatchesFastInterpreter)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    const auto [seed, armIdx] = GetParam();
    const Arm &arm = kArms[armIdx];

    GeneratorOptions opts;
    opts.seed = seed;
    std::unique_ptr<Module> mod = generateRandomModule(opts);

    Target target = arm.makeTarget();
    Compiler compiler(target, arm.makeConfig());
    compiler.compile(*mod);

    EquivalenceReport report = compareOptimized(*mod, target);
    EXPECT_TRUE(report.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << " (optimized): " << report.message;
}

// Seeds 800..860 (disjoint from the baseline sweep) × 11 arms.
INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizedDifferential,
    ::testing::Combine(::testing::Range<uint64_t>(800, 860),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// Mid-loop deopt, for real: the null_storm profile pushes nulls through
// checked accesses, so under the no-opt trap arms (checks stay explicit
// — exactly what section-5.4 speculation pairs on) speculated loads
// actually trap and the frame must resume on the interpreter with the
// canonical slot file.  At least one seed must take a real deopt or the
// sweep is vacuous.
TEST(OptimizedDeopt, NullStormSpeculatedLoadsTrapAndReplay)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    const WorkloadProfile *preset = findWorkloadProfile("null_storm");
    ASSERT_NE(preset, nullptr);

    size_t deopts = 0;
    size_t speculated = 0;
    for (uint64_t seed = 900; seed < 916; ++seed) {
        WorkloadProfile p = *preset;
        p.seed = seed;
        auto mod = generateWorkloadModule(p);
        Compiler compiler(target, makeNoOptTrapConfig());
        compiler.compile(*mod);

        EquivalenceReport report = compareOptimized(*mod, target);
        EXPECT_TRUE(report.equivalent)
            << "null_storm seed " << seed << ": " << report.message;

        NativeEngineOptions opts;
        opts.backend = NativeBackend::Optimized;
        NativeEngine engine(*mod, target, {}, nullptr, {}, nullptr,
                            opts);
        ServiceCounters c;
        engine.run(mod->findFunction("main"), {});
        engine.addOptimizedCounters(c);
        deopts += c.deoptsTaken;
        speculated += c.loadsSpeculated;
    }
    EXPECT_GT(speculated, 0u)
        << "no null_storm seed produced a speculated load";
    EXPECT_GT(deopts, 0u)
        << "no null_storm seed took a deopt side-exit";
}

// The big-offset regime under the optimized backend: accesses past the
// protected area keep their explicit checks (they are never speculated
// — a trap there would not be a guard-page fault), and the programs
// stay bit-identical.
TEST(OptimizedDeopt, BigOffsetProgramsMatchUnderOptimizedBackend)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    for (const Arm &arm : kTrapArms) {
        Target target = arm.makeTarget();
        for (uint64_t seed = 700; seed < 708; ++seed) {
            auto mod = buildBigOffsetModule(seed);
            Compiler compiler(target, arm.makeConfig());
            compiler.compile(*mod);
            EquivalenceReport report = compareOptimized(*mod, target);
            EXPECT_TRUE(report.equivalent)
                << "big_offset seed " << seed << " on " << arm.targetName
                << " / " << arm.makeConfig().name
                << " (optimized): " << report.message;
        }
    }
}

/**
 * callee(a, b, c) = 3a + b - c, padded with temps its frame zero-fills;
 * main(z) keeps twelve locals live across a division by z inside a try
 * region whose handler calls callee twice and sums everything.  With
 * z = 0 the optimized frame deopts into the handler and makes its calls
 * from the interpreter: they stage past the resumed frame's slots, and
 * a callee that zero-filled any of them would change the sum.
 */
std::unique_ptr<Module>
buildDeoptThenCallModule()
{
    auto mod = std::make_unique<Module>();
    Function &callee = mod->addFunction("callee", Type::I32);
    {
        ValueId a = callee.addParam(Type::I32, "a");
        ValueId b2 = callee.addParam(Type::I32, "b");
        ValueId c = callee.addParam(Type::I32, "c");
        IRBuilder b(callee);
        b.startBlock();
        ValueId r = b.binop(Opcode::IMul, a, b.constInt(3));
        r = b.binop(Opcode::IAdd, r, b2);
        r = b.binop(Opcode::ISub, r, c);
        for (int k = 0; k < 32; ++k)
            r = b.binop(Opcode::IAdd, r, b.constInt(0));
        b.ret(r);
    }
    Function &fn = mod->addFunction("main", Type::I32);
    ValueId z = fn.addParam(Type::I32, "z");
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    std::vector<ValueId> locals;
    for (int k = 0; k < 12; ++k) {
        ValueId l = fn.addLocal(Type::I32);
        b.move(l, b.constInt(7 * k + 1));
        locals.push_back(l);
    }
    BasicBlock &handler = fn.newBlock();
    TryRegionId region = fn.addTryRegion(handler.id(), ExcKind::Arithmetic);
    BasicBlock &body = fn.newBlock(region);
    b.atEnd(entry);
    b.jump(body);
    b.atEnd(body);
    b.ret(b.binop(Opcode::IDiv, b.constInt(100), z));
    b.atEnd(handler);
    ValueId sum = b.callStatic(callee.id(),
                               {locals[0], locals[1], locals[2]}, Type::I32);
    sum = b.binop(Opcode::IAdd, sum,
                  b.callStatic(callee.id(), {locals[3], locals[4], locals[5]},
                               Type::I32));
    for (ValueId l : locals)
        sum = b.binop(Opcode::IAdd, sum, l);
    b.ret(sum);
    return mod;
}

TEST(OptimizedDeopt, ResumedFrameCallsWithoutClobberingItsSlots)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildDeoptThenCallModule();
    const FunctionId entry = mod->findFunction("main");
    const std::vector<RuntimeValue> zero = {RuntimeValue::ofInt(0)};

    FastInterpreter fast(*mod, target);
    const RunObservation want = observeRun(fast, entry, zero);
    ASSERT_FALSE(want.hardFault) << want.fault;

    NativeEngineOptions opts;
    opts.backend = NativeBackend::Optimized;
    NativeEngine engine(*mod, target, {}, nullptr, {}, nullptr, opts);
    ASSERT_NE(nullptr, engine.nativeCode(entry))
        << engine.unsupportedReason(entry);
    for (int round = 0; round < 2; ++round) {
        engine.reset();
        const RunObservation got = observeRun(engine, entry, zero);
        EXPECT_EQ("", observationMismatch(want, got)) << "round " << round;
        EXPECT_EQ(want.result.value.i, got.result.value.i);
        EXPECT_EQ(1u, engine.deoptsTaken()) << "round " << round;
    }
}

// Mixed dispatch under the optimized backend: deopt replays and
// interpreted callees share one frame protocol.
TEST(OptimizedDeopt, MixedDispatchMatchesUnderOptimizedBackend)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();
    for (uint64_t seed = 800; seed < 808; ++seed) {
        GeneratorOptions opts;
        opts.seed = seed;
        auto mod = generateRandomModule(opts);
        Compiler compiler(target, config);
        compiler.compile(*mod);

        NativeEngineOptions alternate;
        alternate.backend = NativeBackend::Optimized;
        alternate.nativeFilter = [](FunctionId id) { return id % 2 == 0; };
        EquivalenceReport mixed =
            compareNativeEngine(*mod, target, {}, alternate);
        EXPECT_TRUE(mixed.equivalent)
            << "seed " << seed
            << " optimized mixed-dispatch: " << mixed.message;
    }
}

// ---------------------------------------------------------------------------
// Engine selection
// ---------------------------------------------------------------------------

TEST(NativeBackendSelection, EnvVariablePicksOptimizedAndSpeculation)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();

    // Unset env: FromEnv resolves to the baseline.
    ASSERT_EQ(0, unsetenv("TRAPJIT_NATIVE_BACKEND"));
    ASSERT_EQ(0, unsetenv("TRAPJIT_SPECULATE"));
    {
        auto mod = buildFieldReadModule(false);
        Compiler compiler(target, makeNoOptTrapConfig());
        compiler.compile(*mod);
        NativeEngine engine(*mod, target);
        const NativeCode *nc = engine.nativeCode(mod->findFunction("main"));
        ASSERT_NE(nullptr, nc);
        EXPECT_FALSE(nc->optimized);
    }

    // TRAPJIT_NATIVE_BACKEND=optimized selects the optimized backend.
    ASSERT_EQ(0, setenv("TRAPJIT_NATIVE_BACKEND", "optimized", 1));
    {
        auto mod = buildFieldReadModule(false);
        Compiler compiler(target, makeNoOptTrapConfig());
        compiler.compile(*mod);
        NativeEngine engine(*mod, target);
        const NativeCode *nc = engine.nativeCode(mod->findFunction("main"));
        ASSERT_NE(nullptr, nc);
        EXPECT_TRUE(nc->optimized);
        ExecResult r = engine.run(mod->findFunction("main"), {});
        ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
        EXPECT_EQ(42, r.value.i);
    }

    // TRAPJIT_SPECULATE=0 keeps the backend but disables section 5.4.
    ASSERT_EQ(0, setenv("TRAPJIT_SPECULATE", "0", 1));
    {
        auto mod = buildFieldReadModule(false);
        Compiler compiler(target, makeNoOptNoTrapConfig());
        compiler.compile(*mod);
        NativeEngine engine(*mod, target);
        const NativeCode *nc = engine.nativeCode(mod->findFunction("main"));
        ASSERT_NE(nullptr, nc);
        EXPECT_TRUE(nc->optimized);
        EXPECT_EQ(0u, nc->loadsSpeculated);
    }

    ASSERT_EQ(0, unsetenv("TRAPJIT_NATIVE_BACKEND"));
    ASSERT_EQ(0, unsetenv("TRAPJIT_SPECULATE"));
}

TEST(NativeEngineSelection, EnvVariablePicksNative)
{
    ASSERT_EQ(0, setenv("TRAPJIT_INTERP", "native", 1));
    EXPECT_EQ(InterpEngineKind::Native, interpEngineFromEnv());
    ASSERT_EQ(0, unsetenv("TRAPJIT_INTERP"));
    EXPECT_EQ(InterpEngineKind::Fast, interpEngineFromEnv());
    EXPECT_STREQ("native", interpEngineName(InterpEngineKind::Native));
}

} // namespace
} // namespace trapjit
