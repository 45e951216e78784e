#ifndef TRAPJIT_CODEGEN_NATIVE_TIERED_ENGINE_H_
#define TRAPJIT_CODEGEN_NATIVE_TIERED_ENGINE_H_

/**
 * @file
 * Profile-guided mixed-mode engine (TRAPJIT_INTERP=tiered).
 *
 * Every function starts in the fast interpreter, which counts calls
 * and taken back-edges into a per-engine hotness array.  Crossing
 * TRAPJIT_TIER_THRESHOLD hands the function to the TierController,
 * which compiles a *tiered* native block on a background worker (or
 * inline under TRAPJIT_TIER_SYNC=1), audits its trap-site tables and
 * publishes it in the shared CodeRegistry; the requesting frame keeps
 * interpreting and only later calls enter the block.
 *
 * Tiered blocks differ from the classic per-frame native tier in three
 * ways that make hot call chains cheap:
 *
 *  - One persistent NativeContext is shared by the whole call tree.
 *    A callee's slot file is carved from the engine's FramePool by
 *    the block prologue's bump of ctx.poolTop; call arguments are
 *    staged directly into what becomes the callee's parameter slots
 *    (zero copies).  Classic frames share the pool layout but set up
 *    a context per call in C++.
 *  - Calls between published blocks are patchable rel32 near-calls:
 *    the registry links a site straight at the callee's entry when it
 *    publishes and unlinks it back to the per-site slow stub on
 *    invalidation.  Unlinked or data-driven (virtual/special) calls go
 *    through trapjitTieredSlowCall, which enters published callees
 *    directly or falls back to the interpreter — bumping hotness.
 *  - There is no per-frame sigsetjmp: the SIGSEGV handler resolves a
 *    null-check trap in place against the registry's pc-map and
 *    rewrites RIP to the resume point (or the block's unwind exit for
 *    the hard-fault cases, parking the reason in the context).
 *
 * Observable semantics (heap, trace, exceptions, instructions, calls,
 * allocations, traps) are bit-identical to the fast and reference
 * engines — including mid-run promotion, invalidation and
 * re-promotion; cycles are not modeled in native frames, matching the
 * classic native tier.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "codegen/native/code_registry.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/native_runtime.h"
#include "interp/fast_interpreter.h"
#include "jit/stats.h"
#include "jit/tier_controller.h"

namespace trapjit
{

/** Tiering-policy knobs (see tieredOptionsFromEnv). */
struct TieredOptions
{
    /** Hotness (calls + back-edges) that triggers promotion. */
    uint32_t threshold = 64;
    /** Compile inside the requesting call (TRAPJIT_TIER_SYNC=1). */
    bool synchronous = false;
    /** Background compile workers (ignored when synchronous). */
    size_t workers = 2;
    /** Patch direct rel32 calls between published blocks. */
    bool linkBlocks = true;
    /** auditNativeTrapSites every block before publishing. */
    bool audit = true;
};

/**
 * TieredOptions from TRAPJIT_TIER_THRESHOLD (positive integer) and
 * TRAPJIT_TIER_SYNC (non-"0" enables synchronous promotion).
 */
TieredOptions tieredOptionsFromEnv();

/**
 * The tiered engine; mirrors the FastInterpreter / NativeEngine
 * surface so call sites switch between engines with a branch.  Not
 * thread-safe per instance, but the registry and controller may be
 * shared across engines on different threads.
 */
class TieredEngine final : public FastInterpreter::TierHooks
{
  public:
    /**
     * @param registry    shared published-block registry; created
     *                    privately when null
     * @param controller  shared promotion controller; created privately
     *                    (against @p registry) when null.  When given,
     *                    it must use the same registry.
     */
    TieredEngine(const Module &mod, const Target &target,
                 InterpOptions options = {},
                 std::shared_ptr<DecodedProgramCache> decoded_cache = nullptr,
                 DecodeOptions decode_options = {},
                 TieredOptions tiered_options = {},
                 std::shared_ptr<CodeRegistry> registry = nullptr,
                 std::shared_ptr<TierController> controller = nullptr);
    ~TieredEngine() override;

    TieredEngine(const TieredEngine &) = delete;
    TieredEngine &operator=(const TieredEngine &) = delete;

    /** Execute @p func with @p args; resets nothing between calls. */
    ExecResult run(FunctionId func, const std::vector<RuntimeValue> &args);

    Heap &heap() { return fi_.heap_; }
    EventTrace &trace() { return fi_.trace_; }
    const ExecStats &stats() const { return fi_.stats_; }

    /** Clear heap, trace, stats and hotness; published blocks stay. */
    void reset();

    // ---- tiering control / introspection ----------------------------
    const std::shared_ptr<CodeRegistry> &registry() const
    {
        return registry_;
    }
    const std::shared_ptr<TierController> &controller() const
    {
        return controller_;
    }

    /** Block until every in-flight background promotion settled. */
    void drainPromotions() { controller_->drain(); }

    /** Request promotion of @p fn and wait for it to settle. */
    void promoteNow(FunctionId fn);

    /** Unpublish @p fn (unlinking its inbound call sites) and clear
     *  its hotness so it can re-tier from cold. */
    void invalidate(FunctionId fn);

    /** Fold this engine's tiering counters into @p counters. */
    void addTieringCounters(ServiceCounters &counters) const;

    // ---- helpers called from JIT code via the extern "C" trampolines.
    // None of these may throw: they run below frames with no unwind
    // info.  Hard faults are parked in the engine, flagged in the
    // context and reported as status 1.
    uint32_t helperNewObject(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperNewArray(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperMath(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperTraceFieldWrite(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperTraceArrayWrite(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperBudgetFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperDepthFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperPoolFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperSlowCall(NativeContext &ctx, uint32_t recIdx);

  private:
    using Slot = FastInterpreter::Slot;
    using FrameResult = FastInterpreter::FrameResult;

    // FastInterpreter::TierHooks
    bool tierInvoke(FunctionId callee, std::vector<Slot> &&args,
                    size_t depth, FrameResult &out) override;
    void tierPromote(FunctionId fn) override;

    /** Route one frame: published block or interpreter fallback. */
    FrameResult callFrame(FunctionId id, std::vector<Slot> args,
                          size_t depth);
    /** Bridge C++ -> tiered code: stage args in the pool, set up the
     *  context and TieredRun scope, enter, convert the result. */
    FrameResult enterTiered(const DecodedFunction &df,
                            const NativeCode &nc, std::vector<Slot> args,
                            size_t depth);
    /** Fold budget + linked-call counts from the context into stats. */
    void syncStatsFromCtx(NativeContext &ctx);
    /** Turn a handler-parked TieredPark code into the engine message. */
    void consumePark(NativeContext &ctx);
    void parkHardFault(std::string msg);
    uint32_t decideNullAccess(NativeContext &ctx, const DecodedInst &d);
    void bumpHotness(FunctionId fn);

    const Module &mod_;
    const Target &target_;
    InterpOptions options_;
    TieredOptions tieredOptions_;
    std::shared_ptr<CodeRegistry> registry_;
    std::shared_ptr<TierController> controller_;
    FastInterpreter fi_;
    bool handlerInstalled_ = false;

    /** Persistent context every tiered frame of this engine shares. */
    NativeContext ctx_;
    /** Every tiered frame's slot file; ctx_.poolTop bumps through it. */
    FramePool pool_;
    /** Per-function hotness (calls + back-edges); fi_.tierHot_. */
    std::vector<uint32_t> hotness_;

    bool hardFaultPending_ = false;
    std::string hardFaultMsg_;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_TIERED_ENGINE_H_
