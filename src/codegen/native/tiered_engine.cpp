#include "codegen/native/tiered_engine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "codegen/native/code_buffer_pool.h"
#include "support/diagnostics.h"

namespace trapjit
{

TieredOptions
tieredOptionsFromEnv()
{
    TieredOptions opts;
    if (const char *env = std::getenv("TRAPJIT_TIER_THRESHOLD")) {
        long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            opts.threshold = static_cast<uint32_t>(v);
    }
    if (const char *env = std::getenv("TRAPJIT_TIER_SYNC"))
        opts.synchronous = std::strcmp(env, "0") != 0;
    return opts;
}

TieredEngine::TieredEngine(const Module &mod, const Target &target,
                           InterpOptions options,
                           std::shared_ptr<DecodedProgramCache> decoded_cache,
                           DecodeOptions decode_options,
                           TieredOptions tiered_options,
                           std::shared_ptr<CodeRegistry> registry,
                           std::shared_ptr<TierController> controller)
    : NativeCore(mod, target, options, std::move(decoded_cache),
                 decode_options),
      tieredOptions_(tiered_options),
      registry_(registry ? std::move(registry)
                         : std::make_shared<CodeRegistry>(
                               mod.numFunctions())),
      controller_(std::move(controller))
{
    if (tieredOptions_.threshold == 0)
        tieredOptions_.threshold = 1;
    if (controller_ == nullptr) {
        TierControllerOptions copts;
        copts.synchronous = tieredOptions_.synchronous;
        copts.workers = tieredOptions_.workers;
        copts.linkBlocks = tieredOptions_.linkBlocks;
        copts.audit = tieredOptions_.audit;
        copts.recordTrace = options.recordTrace;
        controller_ = std::make_shared<TierController>(
            mod, target, registry_, fi_.cache_, decode_options, copts);
    }
    TRAPJIT_ASSERT(controller_->registry() == registry_,
                   "controller bound to a different registry");

    hotness_.assign(mod_.numFunctions(), 0);

    ctx_.engine = this;
    ctx_.poolTop = fi_.pool_.begin();
    ctx_.poolEnd = fi_.pool_.end();

    // Wire the interpreter's tiering hooks (friend access).
    fi_.tierHooks_ = this;
    fi_.tierHot_ = hotness_.data();
    fi_.tierThreshold_ = tieredOptions_.threshold;
}

TieredEngine::~TieredEngine()
{
    // Settle background compiles before members they touch die.
    controller_->drain();
}

void
TieredEngine::reset()
{
    controller_->drain();
    resetCore();
    std::fill(hotness_.begin(), hotness_.end(), 0);
    ctx_.poolTop = fi_.pool_.begin();
    ctx_.hardFault = 0;
    ctx_.parkDf = nullptr;
    ctx_.pendingKind = 0;
    ctx_.pendingSite = 0;
    ctx_.linkedCalls = 0;
}

void
TieredEngine::promoteNow(FunctionId fn)
{
    controller_->requestPromotion(fn);
    controller_->drain();
}

void
TieredEngine::invalidate(FunctionId fn)
{
    registry_->invalidate(fn);
    hotness_[fn] = 0; // let the function re-tier from cold
}

void
TieredEngine::addTieringCounters(ServiceCounters &counters) const
{
    counters.functionsPromoted += controller_->functionsPromoted();
    counters.tierUpLatencySeconds +=
        controller_->tierUpLatencySeconds();
    counters.blocksLinked += registry_->blocksLinked();
    counters.slotsPatched += registry_->slotsPatched();
    counters.blocksInvalidated += registry_->blocksInvalidated();
    counters.blocksEvicted += registry_->blocksEvicted();
    uint64_t live = globalCodeBufferPool().bytesLive();
    if (live > counters.codeBytesLive)
        counters.codeBytesLive = live; // gauge: merge with max
}

void
TieredEngine::bumpHotness(FunctionId fn)
{
    // >= rather than ==: after an invalidation the counter may already
    // sit past the threshold (another engine reset only its own array),
    // and re-requests of a non-Cold function fail fast in the registry.
    if (++hotness_[fn] >= tieredOptions_.threshold)
        controller_->requestPromotion(fn);
}

void
TieredEngine::tierPromote(FunctionId fn)
{
    controller_->requestPromotion(fn);
}

ExecResult
TieredEngine::run(FunctionId func, const std::vector<RuntimeValue> &args)
{
    ctx_.hardFault = 0;
    ctx_.parkDf = nullptr;
    ctx_.pendingKind = 0;
    ctx_.pendingSite = 0;
    ctx_.linkedCalls = 0;
    // Unwinds restore the bump pointer frame by frame, so this is a
    // no-op unless a previous run died mid-flight.
    ctx_.poolTop = fi_.pool_.begin();
    Slot *argv = beginRun(func, args);
    NativeRunScope scope(registry_->pcMap(), fi_.stats_, fi_.heap_);
    return finishRun(func, callFrame(func, argv, 0));
}

TieredEngine::FrameResult
TieredEngine::callFrame(FunctionId id, Slot *args, size_t depth)
{
    const DecodedFunction &df = fi_.decoded(id);
    const NativeCode *nc = registry_->published(id);
    if (nc != nullptr)
        return enterTiered(df, *nc, args, depth);
    // Cold (or invalidated, or unsupported): interpret in place,
    // counting this entry toward the function's hotness.
    bumpHotness(id);
    return interpret(df, args, depth);
}

TieredEngine::FrameResult
TieredEngine::enterTiered(const DecodedFunction &df, const NativeCode &nc,
                          Slot *slots, size_t depth)
{
    // The checks the block's prologue would fail are made here with
    // the interpreter's exact messages, depth first (the interpreter
    // faults on depth first).
    if (depth > options_.maxCallDepth) {
        parkHardFault("call depth limit exceeded in " + df.name);
        return FrameResult{};
    }
    if (!fi_.pool_.fits(slots, df.numValues)) {
        parkHardFault("frame pool overflow in " + df.name);
        return FrameResult{};
    }

    // Nested roots (a native chain -> interpreter -> hot callee) find
    // depthRemaining describing the *outer* chain; retarget it to this
    // bridge's depth and restore on the way out.  The stack top too:
    // the block's epilogue leaves poolTop at @p slots, the end of the
    // interpreted caller's frame, while the outer chain's next call
    // must stage at the end of its own innermost native frame.
    const int64_t savedDepthRemaining = ctx_.depthRemaining;
    uint8_t *const savedPoolTop = ctx_.poolTop;
    ctx_.depthRemaining =
        static_cast<int64_t>(options_.maxCallDepth) + 1 -
        static_cast<int64_t>(depth);
    ctx_.budgetRemaining = budgetLeft();
    const uint32_t status = nc.entry()(&ctx_, slots, fi_.heap_.hostBase());

    ctx_.depthRemaining = savedDepthRemaining;
    ctx_.poolTop = savedPoolTop;
    syncStats(ctx_);
    if (status != 0)
        consumePark(ctx_);

    FrameResult result;
    if (status == 0) {
        result.value.bits = ctx_.retBits;
    } else if (ctx_.hardFault == 0 && ctx_.pendingKind != 0) {
        result.exc =
            ThrownExc{static_cast<ExcKind>(ctx_.pendingKind),
                      static_cast<SiteId>(ctx_.pendingSite)};
        ctx_.pendingKind = 0;
        ctx_.pendingSite = 0;
    }
    // ctx_.hardFault stays set on faults: when this bridge sits below
    // an outer native chain (entered from its slow-call helper through
    // the interpreter), the outer status stubs must still observe it.
    return result;
}

bool
TieredEngine::tierInvoke(FunctionId callee, Slot *args, size_t depth,
                         FrameResult &out)
{
    const NativeCode *nc = registry_->published(callee);
    if (nc == nullptr) {
        // Cold: count the call and let the interpreter execute it.
        bumpHotness(callee);
        return false;
    }
    out = enterTiered(fi_.decoded(callee), *nc, args, depth);
    // Hard faults must unwind the interpreter frames above this call;
    // whoever catches (callFrame or the slow-call helper) re-parks.
    if (hardFaultPending_)
        throw HardFault(hardFaultMsg_);
    return true;
}

// ---- tiered-only helpers called from JIT code -----------------------
// None of these may throw: they run below frames with no unwind info.

uint32_t
TieredEngine::helperSlowCall(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    // The call site staged the arguments contiguously at the pool top
    // (the region a native callee would adopt as its slot file).
    Slot *staged = reinterpret_cast<Slot *>(ctx.poolTop);

    FunctionId callee;
    uint32_t status = resolveCallee(
        ctx, rec, rec.argsCount > 0 ? staged[0].ref : 0, callee);
    if (callee == kNoFunction) {
        // A null virtual receiver that reads as zero skips the call:
        // the interpreter leaves dst untouched, so feed the site's
        // unconditional result store the old destination bits.
        if (status == 0)
            ctx.retBits =
                rec.dst != kNoValue
                    ? static_cast<Slot *>(ctx.activeSlots)[rec.dst].bits
                    : 0;
        return status;
    }

    const NativeCode *nc = registry_->published(callee);
    if (nc != nullptr) {
        // Resolved to a published block (virtual dispatch, or a static
        // site the patcher has not reached / could not reach): enter
        // it directly, zero-copy — the staged args already sit where
        // its prologue expects the frame base.
        return nc->entry()(&ctx, staged, fi_.heap_.hostBase());
    }

    // Interpreter fallback for a cold callee, on the staged slots.
    // Budget and call counts move ctx -> stats for the interpreted
    // subtree, then back.
    const DecodedFunction &cdf = fi_.decoded(callee);
    TRAPJIT_ASSERT(rec.argsCount == cdf.numParams,
                   "bad argument count calling ", cdf.name);
    bumpHotness(callee);
    syncStats(ctx);
    const size_t depth = static_cast<size_t>(
        static_cast<int64_t>(options_.maxCallDepth) + 1 -
        ctx.depthRemaining);
    FrameResult sub = interpret(cdf, staged, depth);
    ctx.budgetRemaining = budgetLeft();
    if (hardFaultPending_) {
        ctx.hardFault = 1;
        return 2;
    }
    if (sub.exc.pending()) {
        ctx.pendingKind = static_cast<int32_t>(sub.exc.kind);
        ctx.pendingSite = sub.exc.site;
        return 1;
    }
    ctx.retBits = sub.value.bits;
    return 0;
}

uint32_t
TieredEngine::helperDepthFault(NativeContext &ctx, uint32_t)
{
    // The prologue publishes activeDf before the depth check, so the
    // message names the callee that overflowed — like the interpreter.
    return fail(ctx, "call depth limit exceeded in " + ctx.activeDf->name);
}

uint32_t
TieredEngine::helperPoolFault(NativeContext &ctx, uint32_t)
{
    return fail(ctx, "frame pool overflow in " + ctx.activeDf->name);
}

// ---- extern "C" trampolines the compiler takes the address of -------

static TieredEngine &
tieredEngineOf(NativeContext *ctx)
{
    return *static_cast<TieredEngine *>(ctx->engine);
}

extern "C" uint32_t
trapjitTieredDepthFault(NativeContext *ctx, uint32_t rec)
{
    return tieredEngineOf(ctx).helperDepthFault(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredPoolFault(NativeContext *ctx, uint32_t rec)
{
    return tieredEngineOf(ctx).helperPoolFault(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredSlowCall(NativeContext *ctx, uint32_t rec)
{
    return tieredEngineOf(ctx).helperSlowCall(*ctx, rec);
}

} // namespace trapjit
