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
 *     also when a foreign SIGSEGV handler chains into trapjit's),
 *     mixed native/interpreted call stacks, budget-fault and
 *     call-depth-fault message parity, and the TRAPJIT_INTERP
 *     selector.
 *
 * Everything execution-related skips on hosts without the native tier
 * and under AddressSanitizer (ASan's own SIGSEGV instrumentation is
 * incompatible with recovering from intentional guard-page faults).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>

#include "codegen/check_bytes.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/native_engine.h"
#include "codegen/native/tiered_engine.h"
#include "interp/decoded_program.h"
#include "interp/fast_interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "jit/compile_service.h"
#include "jit/compiler.h"
#include "testing/equivalence.h"
#include "testing/random_program.h"
#include "testing/workload_gen/workload_gen.h"

#if !defined(__SANITIZE_ADDRESS__) && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define __SANITIZE_ADDRESS__ 1
#endif
#endif

namespace trapjit
{
namespace
{

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsanActive = true;
#else
constexpr bool kAsanActive = false;
#endif

/** Skip (with notice) where native code cannot run: see file comment. */
#define TRAPJIT_REQUIRE_NATIVE_TIER()                                        \
    do {                                                                     \
        if (!nativeTierSupported())                                          \
            GTEST_SKIP() << "native tier requires x86-64 Linux";             \
        if (kAsanActive)                                                     \
            GTEST_SKIP()                                                     \
                << "guard-page SIGSEGV recovery is incompatible with ASan";  \
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
// Mask-free trap recovery under a chained foreign handler
// ---------------------------------------------------------------------------
//
// Native frames recover traps with sigsetjmp(jmp, 0): siglongjmp out of
// the handler keeps the handler's signal mask, and the engine restores
// the interrupted one from uc_sigmask.  A foreign handler installed on
// top of trapjit's — SIGSEGV in its sa_mask, no SA_NODEFER, forwarding
// to trapjit — leaves SIGSEGV blocked when trapjit's handler jumps out,
// so an engine that skipped the restore would be killed by the next
// guard-page fault.  The test runs in a forked child for that reason.

struct sigaction g_trapjitSegvAction;
volatile sig_atomic_t g_foreignSegvEntries = 0;

void
foreignSegvHandler(int signo, siginfo_t *info, void *context)
{
    g_foreignSegvEntries = g_foreignSegvEntries + 1;
    g_trapjitSegvAction.sa_sigaction(signo, info, context);
}

bool
sameSignalMask(const sigset_t &a, const sigset_t &b)
{
    for (int sig = 1; sig < NSIG; ++sig)
        if (sigismember(&a, sig) != sigismember(&b, sig))
            return false;
    return true;
}

[[noreturn]] void
childFail(const char *what, const char *engine, int run)
{
    std::fprintf(stderr, "%s: %s (run %d)\n", engine, what, run);
    std::_Exit(1);
}

/**
 * In the forked child: chain a foreign handler over trapjit's, block
 * SIGUSR1, and run @p mod's main twice per native backend against the
 * fast interpreter's result.  Exits 0 only if every run matched and
 * left the thread's signal mask exactly as it found it.
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

    struct sigaction foreign;
    std::memset(&foreign, 0, sizeof(foreign));
    foreign.sa_sigaction = foreignSegvHandler;
    foreign.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&foreign.sa_mask);
    sigaddset(&foreign.sa_mask, SIGSEGV);
    if (sigaction(SIGSEGV, &foreign, &g_trapjitSegvAction) != 0 ||
        !(g_trapjitSegvAction.sa_flags & SA_SIGINFO))
        childFail("cannot chain over trapjit's handler", "setup", 0);

    sigset_t usr1;
    sigemptyset(&usr1);
    sigaddset(&usr1, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &usr1, nullptr);

    auto check = [&](NativeEngine &engine, const char *name) {
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
