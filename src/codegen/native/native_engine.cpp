#include "codegen/native/native_engine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "jit/timing.h"
#include "support/diagnostics.h"

namespace trapjit
{

NativeEngine::NativeEngine(const Module &mod, const Target &target,
                           InterpOptions options,
                           std::shared_ptr<DecodedProgramCache> decoded_cache,
                           DecodeOptions decode_options,
                           std::shared_ptr<NativeCodeCache> native_cache,
                           NativeEngineOptions engine_options)
    : NativeCore(mod, target, options, std::move(decoded_cache),
                 decode_options),
      decodeOptions_(decode_options),
      engineOptions_(std::move(engine_options)),
      nativeCache_(native_cache ? std::move(native_cache)
                                : std::make_shared<NativeCodeCache>())
{
    nativeOptions_.recordTrace = options.recordTrace;
    NativeBackend backend = engineOptions_.backend;
    if (backend == NativeBackend::FromEnv) {
        const char *env = std::getenv("TRAPJIT_NATIVE_BACKEND");
        backend = (env != nullptr && std::strcmp(env, "optimized") == 0)
                      ? NativeBackend::Optimized
                      : NativeBackend::Baseline;
    }
    if (backend == NativeBackend::Optimized) {
        nativeOptions_.optimized = true;
        if (engineOptions_.speculate >= 0) {
            nativeOptions_.speculate = engineOptions_.speculate != 0;
        } else {
            const char *spec = std::getenv("TRAPJIT_SPECULATE");
            nativeOptions_.speculate =
                !(spec != nullptr && std::strcmp(spec, "0") == 0);
        }
    }
}

void
NativeEngine::reset()
{
    resetCore();
    deoptsTaken_ = 0;
}

void
NativeEngine::addOptimizedCounters(ServiceCounters &c) const
{
    c.functionsRegalloc += functionsRegalloc_;
    c.spillsEmitted += spillsEmitted_;
    c.loadsSpeculated += loadsSpeculated_;
    c.deoptsTaken += deoptsTaken_;
    c.regallocSeconds += regallocSeconds_;
}

const NativeCodeCache::Entry &
NativeEngine::ensureCompiled(FunctionId id)
{
    if (compiled_.size() <= id)
        compiled_.resize(mod_.numFunctions());
    if (!compiled_[id]) {
        if (engineOptions_.nativeFilter && !engineOptions_.nativeFilter(id)) {
            // Engine-local decision; keep it out of the shared cache.
            compiled_[id] = std::make_shared<NativeCodeCache::Entry>(
                NativeCodeCache::Entry{nullptr,
                                       "filtered out by engine options"});
            return *compiled_[id];
        }
        const Function &fn = mod_.function(id);
        Hash128 key =
            nativeCodeKey(fn, target_, decodeOptions_, nativeOptions_);
        if (auto hit = nativeCache_->lookup(key)) {
            compiled_[id] = std::move(hit);
        } else {
            Stopwatch watch;
            NativeCompileResult result =
                compileNative(fn, fi_.decoded(id), nativeOptions_);
            if (result.code) {
                double elapsed = watch.elapsed();
                fi_.stats_.nativeCompileSeconds += elapsed;
                ++fi_.stats_.functionsNativeCompiled;
                if (result.code->optimized) {
                    ++functionsRegalloc_;
                    spillsEmitted_ += result.code->spillsEmitted;
                    loadsSpeculated_ += result.code->loadsSpeculated;
                    regallocSeconds_ += elapsed;
                }
            }
            compiled_[id] = nativeCache_->insert(key, std::move(result));
        }
        // Mapped before it can run: its traps resolve from here on.
        if (compiled_[id]->code)
            pcMap_.add(*compiled_[id]->code);
    }
    return *compiled_[id];
}

const NativeCode *
NativeEngine::nativeCode(FunctionId id)
{
    return ensureCompiled(id).code.get();
}

std::string
NativeEngine::unsupportedReason(FunctionId id)
{
    return ensureCompiled(id).unsupportedReason;
}

ExecResult
NativeEngine::run(FunctionId func, const std::vector<RuntimeValue> &args)
{
    Slot *argv = beginRun(func, args);
    NativeRunScope scope(pcMap_.current(), fi_.stats_, fi_.heap_);
    return finishRun(func, callFrame(func, argv, 0));
}

NativeEngine::FrameResult
NativeEngine::callFrame(FunctionId id, Slot *frame, size_t depth)
{
    const NativeCodeCache::Entry &entry = ensureCompiled(id);
    const DecodedFunction &df = fi_.decoded(id);
    if (entry.code)
        return invokeFrame(df, *entry.code, frame, depth);
    // Fallback: the whole subtree below this frame runs interpreted,
    // starting on the slots the arguments were staged in.
    return interpret(df, frame, depth);
}

bool
NativeEngine::claimFrame(const DecodedFunction &df, Slot *regs,
                         size_t depth)
{
    if (depth > options_.maxCallDepth) {
        parkHardFault("call depth limit exceeded in " + df.name);
        return false;
    }
    if (!fi_.pool_.fits(regs, df.numValues)) {
        parkHardFault("frame pool overflow in " + df.name);
        return false;
    }
    std::fill(regs + df.numParams, regs + df.numValues, Slot{});
    return true;
}

NativeEngine::FrameResult
NativeEngine::invokeFrame(const DecodedFunction &df, const NativeCode &nc,
                          Slot *regs, size_t depth)
{
    if (!claimFrame(df, regs, depth))
        return FrameResult{};

    NativeContext ctx;
    ctx.budgetRemaining = budgetLeft();
    ctx.activeDf = &df;
    ctx.activeSlots = regs;
    ctx.engine = this;
    ctx.depth = static_cast<uint32_t>(depth);

    const uint32_t status = nc.entry()(&ctx, regs, fi_.heap_.hostBase());
    syncStats(ctx);
    consumePark(ctx);

    if (status == 2 || status == 3) {
        ++deoptsTaken_;
        ThrownExc pend;
        if (status == 3) {
            pend = ThrownExc{static_cast<ExcKind>(ctx.pendingKind),
                             static_cast<SiteId>(ctx.pendingSite)};
        }
        // The slot file is canonical (write-through homes) and the
        // deopt stub (or, for a trap, the SIGSEGV handler) refunded
        // every un-retired record, so the interpreter replay is exact:
        // budget faults, traps and null-access decisions land on the
        // same records with the same messages as a pure interpreter
        // run.  It resumes on the
        // frame's own slots; its calls stage past them.
        try {
            return fi_.resumeFrame(df, regs, depth, ctx.deoptRecord, pend);
        } catch (const HardFault &fault) {
            parkHardFault(fault.what());
            return FrameResult{};
        }
    }

    FrameResult result;
    if (status == 0) {
        result.value.bits = ctx.retBits;
    } else if (!hardFaultPending_ && ctx.pendingKind != 0) {
        result.exc = ThrownExc{static_cast<ExcKind>(ctx.pendingKind),
                               static_cast<SiteId>(ctx.pendingSite)};
    }
    return result;
}

uint32_t
NativeEngine::helperCall(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedFunction &df = *ctx.activeDf;
    const DecodedInst &rec = df.code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);

    // The instruction budget lives in the context while native code
    // runs; hand it back to the stats block around the callee (both
    // engines account there), then reload.
    syncStats(ctx);

    ++fi_.stats_.calls;
    const ValueId *cargs = df.argPool.data() + rec.argsBegin;
    FunctionId callee;
    uint32_t status = resolveCallee(
        ctx, rec, rec.argsCount > 0 ? r[cargs[0]].ref : 0, callee);
    if (callee == kNoFunction)
        return status;

    // Stage the arguments straight into the callee's parameter slots:
    // its slot file starts where this frame's ends.
    const DecodedFunction &cdf = fi_.decoded(callee);
    TRAPJIT_ASSERT(rec.argsCount == cdf.numParams,
                   "bad argument count calling ", cdf.name);
    Slot *staged = r + df.numValues;
    if (!fi_.pool_.fits(staged, rec.argsCount))
        return fail(ctx, "frame pool overflow in " + cdf.name);
    for (uint32_t k = 0; k < rec.argsCount; ++k)
        staged[k] = r[cargs[k]];
    FrameResult sub = callFrame(callee, staged, ctx.depth + 1);

    ctx.budgetRemaining = budgetLeft();
    if (hardFaultPending_)
        return 2;
    if (sub.exc.pending()) {
        ctx.pendingKind = static_cast<int32_t>(sub.exc.kind);
        ctx.pendingSite = sub.exc.site;
        return 1;
    }
    if (rec.dst != kNoValue)
        r[rec.dst] = sub.value;
    return 0;
}

extern "C" uint32_t
trapjitNativeCall(NativeContext *ctx, uint32_t rec)
{
    return static_cast<NativeEngine *>(ctx->engine)->helperCall(*ctx, rec);
}

} // namespace trapjit
