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
 * Tiered blocks differ from the classic per-frame native tier in two
 * ways that make hot call chains cheap:
 *
 *  - One persistent NativeContext is shared by the whole call tree.
 *    A callee's slot file is carved from the engine's one frame stack
 *    (the FramePool interpreted frames run on too) by the block
 *    prologue's bump of ctx.poolTop; call arguments are staged
 *    directly into what becomes the callee's parameter slots (zero
 *    copies), whether the callee then runs native or interpreted.
 *    Classic frames share the pool layout but set up a context per
 *    call in C++.
 *  - Calls between published blocks are patchable rel32 near-calls:
 *    the registry links a site straight at the callee's entry when it
 *    publishes and unlinks it back to the per-site slow stub on
 *    invalidation.  Unlinked or data-driven (virtual/special) calls go
 *    through trapjitTieredSlowCall, which enters published callees
 *    directly or falls back to the interpreter — bumping hotness.
 *
 * Traps take the one protocol of every native frame (native_runtime.h):
 * each request's run scope names the registry's pc map, and the
 * SIGSEGV handler resolves a trap in place.
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
#include "codegen/native/native_core.h"
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
class TieredEngine final : public NativeCore,
                           public FastInterpreter::TierHooks
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

    /** Execute @p func with @p args; resets nothing between calls. */
    ExecResult run(FunctionId func, const std::vector<RuntimeValue> &args);

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

    // ---- the tiered-only JIT helpers (trapjitTiered*); the shared
    // ones are NativeCore's.  None of these may throw.
    uint32_t helperDepthFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperPoolFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperSlowCall(NativeContext &ctx, uint32_t recIdx);

  private:
    // FastInterpreter::TierHooks
    bool tierInvoke(FunctionId callee, Slot *args, size_t depth,
                    FrameResult &out) override;
    void tierPromote(FunctionId fn) override;

    /** Route one root frame (arguments at @p args in the pool):
     *  published block or interpreter fallback, either in place. */
    FrameResult callFrame(FunctionId id, Slot *args, size_t depth);
    /** Bridge C++ -> tiered code: set up the context, enter on
     *  @p slots (where the arguments were staged), restore the outer
     *  chain's depth and stack top, convert the result. */
    FrameResult enterTiered(const DecodedFunction &df,
                            const NativeCode &nc, Slot *slots,
                            size_t depth);
    void bumpHotness(FunctionId fn);

    TieredOptions tieredOptions_;
    std::shared_ptr<CodeRegistry> registry_;
    std::shared_ptr<TierController> controller_;

    /** Persistent context every tiered frame of this engine shares. */
    NativeContext ctx_;
    /** Per-function hotness (calls + back-edges); fi_.tierHot_. */
    std::vector<uint32_t> hotness_;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_TIERED_ENGINE_H_
