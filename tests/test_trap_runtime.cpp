/**
 * @file
 * Hardware-trap null checks across threads, and their semantics on the
 * fast path.  Native frames of every engine resolve guard-page SIGSEGVs
 * inside the process-wide handler against the faulting thread's run
 * scope (codegen/native/native_runtime.h); the concurrency test pins
 * that traps taken on many threads at once never cross over.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "arch/target.h"
#include "codegen/native/native_engine.h"
#include "codegen/native/tiered_engine.h"
#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "jit/compiler.h"
#include "testing/equivalence.h"
#include "testing/workload_gen/workload_gen.h"

namespace trapjit
{
namespace
{

TEST(TrapIsolation, ConcurrentEnginesRunTrapHeavyKernelsInIsolation)
{
    // Ten mutator threads simultaneously execute *different*
    // fuzz-generated trap-heavy programs, two threads per engine:
    // reference, fast, and — where the native tier exists — native,
    // optimized and tiered (every function promoted up front, so the
    // traps land in tiered blocks).  The native threads take real
    // guard-page SIGSEGVs, and every thread must reproduce the exact
    // single-threaded result: outcome, exception, return value, trap
    // count and final heap bytes.  A trap resolved against another
    // thread's run scope would corrupt one of them at once.
    constexpr int kEngines = 5;
    constexpr int kThreads = 2 * kEngines;
    constexpr int kItersPerThread = 6;

    constexpr bool nativeUsable = nativeTierSupported();

    Target target = makeIA32WindowsTarget();
    const WorkloadProfile *storm = findWorkloadProfile("null_storm");
    ASSERT_NE(storm, nullptr);

    struct Expected
    {
        std::unique_ptr<Module> mod;
        FunctionId entry = kNoFunction;
        ExecResult result;
        uint64_t heapDigest = 0;
    };
    std::vector<Expected> cases(kThreads);
    uint64_t expectedTraps = 0;
    for (int t = 0; t < kThreads; ++t) {
        WorkloadProfile p = *storm;
        p.seed = 420 + static_cast<uint64_t>(t);
        cases[t].mod = generateWorkloadModule(p);
        Compiler compiler(target, makeNewFullConfig());
        compiler.compile(*cases[t].mod);
        cases[t].entry = cases[t].mod->findFunction("main");
        Interpreter ref(*cases[t].mod, target);
        cases[t].result = ref.run(cases[t].entry, {});
        cases[t].heapDigest = ref.heap().digest();
        // Only the native threads' programs must trap.
        if (t % kEngines >= 2)
            expectedTraps += cases[t].result.stats.trapsTaken;
    }
    // The regime must actually exercise the trap path.
    ASSERT_GT(expectedTraps, 0u);

    std::atomic<int> mistakes{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const Expected &want = cases[t];
            const Module &mod = *want.mod;
            while (!go.load(std::memory_order_acquire)) {
            }
            auto runOn = [&](auto &engine, uint64_t &digest) {
                ExecResult got = engine.run(want.entry, {});
                digest = engine.heap().digest();
                return got;
            };
            for (int i = 0; i < kItersPerThread; ++i) {
                ExecResult got;
                uint64_t digest = 0;
                const int engine = nativeUsable ? t % kEngines : t % 2;
                if (engine == 0) {
                    Interpreter ref(mod, target);
                    got = runOn(ref, digest);
                } else if (engine == 1) {
                    FastInterpreter fast(mod, target);
                    got = runOn(fast, digest);
                } else if (engine == 4) {
                    TieredOptions manual;
                    manual.threshold = 1u << 30;
                    manual.synchronous = true;
                    TieredEngine tiered(mod, target, {}, nullptr, {},
                                        manual);
                    for (FunctionId f = 0; f < mod.numFunctions(); ++f)
                        tiered.promoteNow(f);
                    got = runOn(tiered, digest);
                } else {
                    NativeEngineOptions opts;
                    opts.backend = engine == 2 ? NativeBackend::Baseline
                                               : NativeBackend::Optimized;
                    NativeEngine native(mod, target, {}, nullptr, {},
                                        nullptr, opts);
                    got = runOn(native, digest);
                }
                const bool ok =
                    got.outcome == want.result.outcome &&
                    got.exception == want.result.exception &&
                    (got.outcome != ExecResult::Outcome::Returned ||
                     got.value.i == want.result.value.i) &&
                    got.stats.trapsTaken ==
                        want.result.stats.trapsTaken &&
                    digest == want.heapDigest;
                if (!ok)
                    mistakes.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(0, mistakes.load());
}

// ---------------------------------------------------------------------------
// Trap semantics on the fast path
// ---------------------------------------------------------------------------
//
// The pre-decoded engine bakes each memory access's trap verdict
// (exception site? trap-covered offset? speculation-safe read?) into
// flag bits at decode time instead of consulting the Target per access.
// These tests pin every edge of that decision table to the reference
// interpreter's behavior — same exception, same counters, and for
// miscompiles the same HardFault message.

/** A marked (implicit-check) getfield of `null.field(offset)`. */
std::unique_ptr<Module>
buildMarkedNullRead(int64_t offset, bool marked, bool speculative)
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = nil;
    gf.imm = offset;
    gf.exceptionSite = marked;
    gf.speculative = speculative;
    b.emit(gf);
    b.ret(gf.dst);
    return mod;
}

TEST(FastPathTrapSemantics, ImplicitCheckNPEMatchesReference)
{
    auto mod = buildMarkedNullRead(8, /*marked=*/true,
                                   /*speculative=*/false);
    Target ia32 = makeIA32WindowsTarget();
    EquivalenceReport report = compareEngines(*mod, ia32);
    EXPECT_TRUE(report.equivalent) << report.message;

    FastInterpreter fast(*mod, ia32);
    ExecResult r = fast.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
    EXPECT_EQ(1u, r.stats.trapsTaken);
}

TEST(FastPathTrapSemantics, SpeculativeNullReadYieldsZeroOnAIX)
{
    auto mod = buildMarkedNullRead(8, /*marked=*/false,
                                   /*speculative=*/true);
    Target aix = makePPCAIXTarget();
    EquivalenceReport report = compareEngines(*mod, aix);
    EXPECT_TRUE(report.equivalent) << report.message;

    FastInterpreter fast(*mod, aix);
    ExecResult r = fast.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(0, r.value.i);
    EXPECT_EQ(1u, r.stats.speculativeReadsOfNull);
    EXPECT_EQ(0u, r.stats.trapsTaken);
}

TEST(FastPathTrapSemantics, SpeculativeNullReadFaultsIdenticallyOnIA32)
{
    // The same speculative shape is a miscompile where reads through
    // the null page trap; both engines must agree on the exact fault.
    auto mod = buildMarkedNullRead(8, /*marked=*/false,
                                   /*speculative=*/true);
    Target ia32 = makeIA32WindowsTarget();
    EquivalenceReport report = compareEngines(*mod, ia32);
    EXPECT_TRUE(report.equivalent)
        << "both engines should hard-fault identically: "
        << report.message;

    std::string fastMessage;
    try {
        FastInterpreter fast(*mod, ia32);
        fast.run(mod->findFunction("main"), {});
        FAIL() << "speculative null read must fault on ia32";
    } catch (const HardFault &fault) {
        fastMessage = fault.what();
    }
    try {
        Interpreter ref(*mod, ia32);
        ref.run(mod->findFunction("main"), {});
        FAIL() << "speculative null read must fault on ia32";
    } catch (const HardFault &fault) {
        EXPECT_EQ(std::string(fault.what()), fastMessage);
    }
}

TEST(FastPathTrapSemantics, IllegalImplicitReadSilentZeroMatches)
{
    // Section 5.4 "Illegal Implicit": a marked *read* on a target that
    // only traps writes loses the NPE and silently yields zero.  The
    // decode-time kDecodedIllegalZero flag must reproduce this exactly.
    auto mod = buildMarkedNullRead(8, /*marked=*/true,
                                   /*speculative=*/false);
    Target aix = makePPCAIXTarget();
    EquivalenceReport report = compareEngines(*mod, aix);
    EXPECT_TRUE(report.equivalent) << report.message;

    FastInterpreter fast(*mod, aix);
    ExecResult r = fast.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(0, r.value.i);
    EXPECT_EQ(0u, r.stats.trapsTaken);
}

TEST(FastPathTrapSemantics, HardFaultMessagesMatchReference)
{
    // Unmarked null dereference (plain miscompile) and a marked access
    // beyond the protected page (Figure 5 BigOffset rule): in both
    // cases the engines must throw HardFault with the same text.
    Target ia32 = makeIA32WindowsTarget();
    struct Shape
    {
        int64_t offset;
        bool marked;
    };
    for (const Shape &shape : {Shape{8, false}, Shape{8192, true}}) {
        auto mod = buildMarkedNullRead(shape.offset, shape.marked,
                                       /*speculative=*/false);
        EquivalenceReport report = compareEngines(*mod, ia32);
        EXPECT_TRUE(report.equivalent)
            << "offset " << shape.offset << " marked " << shape.marked
            << ": " << report.message;

        std::string refMessage;
        std::string fastMessage;
        try {
            Interpreter ref(*mod, ia32);
            ref.run(mod->findFunction("main"), {});
        } catch (const HardFault &fault) {
            refMessage = fault.what();
        }
        try {
            FastInterpreter fast(*mod, ia32);
            fast.run(mod->findFunction("main"), {});
        } catch (const HardFault &fault) {
            fastMessage = fault.what();
        }
        EXPECT_FALSE(refMessage.empty());
        EXPECT_EQ(refMessage, fastMessage);
    }
}

} // namespace
} // namespace trapjit
