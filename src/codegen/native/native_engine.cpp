#include "codegen/native/native_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "interp/java_semantics.h"
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
    : mod_(mod), target_(target), options_(options),
      decodeOptions_(decode_options),
      engineOptions_(std::move(engine_options)),
      nativeCache_(native_cache ? std::move(native_cache)
                                : std::make_shared<NativeCodeCache>()),
      // Always hand the fallback interpreter a DecodedProgramCache:
      // the per-function fallback and compileNative then share one
      // decode per function, and an externally shared cache (compile
      // service, tier controller, sibling engines) makes that decode
      // happen at most once per process instead of once per engine.
      fi_(mod, target, options,
          decoded_cache ? std::move(decoded_cache)
                        : std::make_shared<DecodedProgramCache>(),
          decode_options),
      pool_(mod, options.maxCallDepth)
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
    if (nativeTierSupported()) {
        nativeInstallSegvHandler();
        handlerInstalled_ = true;
    }
}

NativeEngine::~NativeEngine()
{
    if (handlerInstalled_)
        nativeUninstallSegvHandler();
}

void
NativeEngine::reset()
{
    fi_.reset();
    hardFaultPending_ = false;
    hardFaultMsg_.clear();
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

void
NativeEngine::parkHardFault(std::string msg)
{
    if (!hardFaultPending_) {
        hardFaultPending_ = true;
        hardFaultMsg_ = std::move(msg);
    }
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
    hardFaultPending_ = false;
    hardFaultMsg_.clear();

    const DecodedFunction &df = fi_.decoded(func);
    const Function &fn = mod_.function(func);
    TRAPJIT_ASSERT(args.size() == df.numParams,
                   "bad argument count calling ", df.name);

    // The root frame's slot file is the bottom of the pool.
    Slot *argv = reinterpret_cast<Slot *>(pool_.begin());
    for (size_t i = 0; i < args.size(); ++i) {
        switch (fn.value(static_cast<ValueId>(i)).type) {
          case Type::F64: argv[i].f = args[i].f; break;
          case Type::Ref: argv[i].ref = args[i].ref; break;
          default: argv[i].i = args[i].i; break;
        }
    }

    FrameResult frame = callFrame(func, argv, 0);
    if (hardFaultPending_)
        throw HardFault(hardFaultMsg_);

    ExecResult result;
    if (frame.exc.pending()) {
        result.outcome = ExecResult::Outcome::Threw;
        result.exception = frame.exc.kind;
        fi_.trace_.recordEscapedException(frame.exc.kind);
    } else {
        result.outcome = ExecResult::Outcome::Returned;
        switch (df.returnType) {
          case Type::F64: result.value.f = frame.value.f; break;
          case Type::Ref: result.value.ref = frame.value.ref; break;
          case Type::Void: break;
          default: result.value.i = frame.value.i; break;
        }
    }
    result.stats = fi_.stats_;
    return result;
}

NativeEngine::FrameResult
NativeEngine::callFrame(FunctionId id, Slot *frame, size_t depth)
{
    const NativeCodeCache::Entry &entry = ensureCompiled(id);
    const DecodedFunction &df = fi_.decoded(id);
    if (entry.code) {
        if (entry.code->optimized)
            return optimizedInvokeFrame(df, *entry.code, frame, depth);
        return nativeInvokeFrame(df, *entry.code, frame, depth);
    }
    // Fallback: the whole subtree below this frame runs interpreted.
    // execFrame can throw HardFault; when native frames sit above us on
    // the C++ stack the throw must not cross their JIT frames, so it is
    // parked here and rethrown by run().
    try {
        return fi_.execFrame(
            df, std::vector<Slot>(frame, frame + df.numParams), depth);
    } catch (const HardFault &fault) {
        parkHardFault(fault.what());
        return FrameResult{};
    }
}

bool
NativeEngine::claimFrame(const DecodedFunction &df, Slot *regs,
                         size_t depth)
{
    if (depth > options_.maxCallDepth) {
        parkHardFault("call depth limit exceeded in " + df.name);
        return false;
    }
    if (!pool_.fits(regs, df.numValues)) {
        parkHardFault("native frame pool overflow in " + df.name);
        return false;
    }
    std::fill(regs + df.numParams, regs + df.numValues, Slot{});
    return true;
}

uint32_t
NativeEngine::decideNullAccess(NativeContext &ctx, const DecodedInst &d)
{
    if (d.flags & kDecodedSpeculative) {
        if (d.flags & kDecodedSpecSafe) {
            ++fi_.stats_.speculativeReadsOfNull;
            return 0;
        }
        parkHardFault("speculative access through null is not safe on " +
                      target_.name + " (site " + std::to_string(d.site) +
                      ")");
        return 2;
    }
    if (d.flags & kDecodedExceptionSite) {
        if (d.flags & kDecodedTrapCovered) {
            ++fi_.stats_.trapsTaken;
            ctx.pendingKind =
                static_cast<int32_t>(ExcKind::NullPointer);
            ctx.pendingSite = d.site;
            return 1;
        }
        if (d.flags & kDecodedIllegalZero)
            return 0;
        parkHardFault("implicit check at site " + std::to_string(d.site) +
                      " is not trap-covered on " + target_.name);
        return 2;
    }
    parkHardFault(std::string("unchecked null dereference: ") +
                  opcodeName(d.srcOp) + " at site " +
                  std::to_string(d.site));
    return 2;
}

NativeEngine::FrameResult
NativeEngine::nativeInvokeFrame(const DecodedFunction &df,
                                const NativeCode &nc, Slot *regs,
                                size_t depth)
{
    if (!claimFrame(df, regs, depth))
        return FrameResult{};

    NativeContext ctx;
    ctx.budgetRemaining =
        static_cast<int64_t>(options_.maxInstructions) -
        static_cast<int64_t>(fi_.stats_.instructions);
    NativeFrame frame{&df, &nc, regs, nullptr};
    ctx.frame = &frame;
    ctx.engine = this;
    ctx.depth = static_cast<uint32_t>(depth);

    NativeActivation act;
    act.codeLo = reinterpret_cast<uintptr_t>(nc.buffer.base());
    act.codeHi = act.codeLo + nc.codeSize;
    act.guardLo = fi_.heap_.guardLo();
    act.guardHi = fi_.heap_.guardHi();

    const void *resume = nullptr;
    uint32_t status;
    for (;;) {
        nativePushActivation(&act);
        if (sigsetjmp(act.jmp, 0) == 0) {
            status = nc.entry()(&ctx, regs, fi_.heap_.hostBase(), resume);
            nativePopActivation(&act);
            break;
        }
        nativePopActivation(&act);
        pthread_sigmask(SIG_SETMASK, &act.faultMask, nullptr);

        // The budget count was register-resident (r14) at the fault;
        // write it back so the stats sync below sees it and so the
        // prologue's reload hands it to the resumed code.
        ctx.budgetRemaining = act.faultBudget;

        // A hardware trap.  Map the fault PC to the guarded access; a
        // PC outside any trap site, or a site whose reference operand
        // is not actually null, means the code itself is broken — the
        // native analogue of the interpreters' FAULT paths.
        const NativeTrapSite *site =
            nc.findSite(static_cast<uint32_t>(act.faultPc - act.codeLo));
        const DecodedInst *rec =
            site ? &df.code[site->recordIndex] : nullptr;
        if (rec == nullptr || regs[rec->a].ref != 0) {
            parkHardFault("wild native memory access in " + df.name);
            status = 1;
            break;
        }

        uint32_t decision = decideNullAccess(ctx, *rec);
        if (decision == 2) {
            status = 1;
            break;
        }
        // Loads (and ArrayLength) substitute the zero the interpreter
        // writes through handleNullAccess's return value — including
        // on the trap-NPE path, where the write precedes dispatch.
        if (rec->dst != kNoValue &&
            (rec->srcOp == Opcode::GetField ||
             rec->srcOp == Opcode::ArrayLength ||
             rec->srcOp == Opcode::ArrayLoad))
            regs[rec->dst] = Slot{};
        if (decision == 1) {
            int32_t handler = nativeFindHandlerIndex(
                df, rec->tryRegion, ExcKind::NullPointer);
            if (handler < 0) {
                status = 1; // frame throws; pending already in ctx
                break;
            }
            ctx.pendingKind = 0;
            ctx.pendingSite = 0;
            resume = nc.buffer.base() + nc.recordOffsets[handler];
        } else {
            resume = nc.buffer.base() + site->resumeNext;
        }
    }

    fi_.stats_.instructions =
        static_cast<uint64_t>(
            static_cast<int64_t>(options_.maxInstructions) -
            ctx.budgetRemaining);

    FrameResult result;
    if (status == 0) {
        result.value.bits = ctx.retBits;
    } else if (!hardFaultPending_ && ctx.pendingKind != 0) {
        result.exc = ThrownExc{static_cast<ExcKind>(ctx.pendingKind),
                               static_cast<SiteId>(ctx.pendingSite)};
    }
    return result;
}

NativeEngine::FrameResult
NativeEngine::optimizedInvokeFrame(const DecodedFunction &df,
                                   const NativeCode &nc, Slot *regs,
                                   size_t depth)
{
    if (!claimFrame(df, regs, depth))
        return FrameResult{};

    NativeContext ctx;
    ctx.budgetRemaining =
        static_cast<int64_t>(options_.maxInstructions) -
        static_cast<int64_t>(fi_.stats_.instructions);
    NativeFrame frame{&df, &nc, regs, nullptr};
    ctx.frame = &frame;
    ctx.engine = this;
    ctx.depth = static_cast<uint32_t>(depth);

    NativeActivation act;
    act.codeLo = reinterpret_cast<uintptr_t>(nc.buffer.base());
    act.codeHi = act.codeLo + nc.codeSize;
    act.guardLo = fi_.heap_.guardLo();
    act.guardHi = fi_.heap_.guardHi();

    // Single-shot: a guard trap never resumes native code here.  The
    // write-through register allocator keeps the slot file canonical at
    // every record boundary, so a speculated load's fault (or any cold
    // path) becomes a deopt — the run's pre-charged budget is refunded
    // and the frame replays on the fast interpreter from the check
    // record.  Statuses 2 and 3 are the stub-side equivalents.
    uint32_t status;
    nativePushActivation(&act);
    if (sigsetjmp(act.jmp, 0) == 0) {
        status = nc.entry()(&ctx, regs, fi_.heap_.hostBase(), nullptr);
        nativePopActivation(&act);
    } else {
        nativePopActivation(&act);
        pthread_sigmask(SIG_SETMASK, &act.faultMask, nullptr);
        const NativeTrapSite *site =
            nc.findSite(static_cast<uint32_t>(act.faultPc - act.codeLo));
        const DecodedInst *rec =
            site ? &df.code[site->recordIndex] : nullptr;
        if (rec == nullptr || site->deoptIndex < 0 ||
            regs[rec->a].ref != 0) {
            ctx.budgetRemaining = act.faultBudget;
            parkHardFault("wild native memory access in " + df.name);
            status = 1;
        } else {
            const NativeDeoptInfo &info =
                nc.deopts[static_cast<size_t>(site->deoptIndex)];
            ctx.budgetRemaining = act.faultBudget + info.budgetAdjust;
            ctx.deoptRecord = info.deoptRecord;
            status = 2;
        }
    }

    fi_.stats_.instructions =
        static_cast<uint64_t>(
            static_cast<int64_t>(options_.maxInstructions) -
            ctx.budgetRemaining);

    if (status == 2 || status == 3) {
        ++deoptsTaken_;
        ThrownExc pend;
        if (status == 3) {
            pend = ThrownExc{static_cast<ExcKind>(ctx.pendingKind),
                             static_cast<SiteId>(ctx.pendingSite)};
        }
        // The slot file is canonical (write-through homes) and the
        // deopt stub refunded every un-retired record, so the
        // interpreter replay is exact: budget faults, traps and
        // null-access decisions land on the same records with the same
        // messages as a pure interpreter run.
        try {
            return fi_.resumeFrame(
                df, std::vector<Slot>(regs, regs + df.numValues), depth,
                ctx.deoptRecord, pend);
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

// ---- helpers called from JIT code -----------------------------------
// None of these may throw: they run below frames with no unwind info.

uint32_t
NativeEngine::helperNewObject(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.frame->df->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.frame->slots);
    ++fi_.stats_.allocations;
    Address ref = heap().allocateObject(static_cast<ClassId>(rec.imm),
                                        rec.imm2);
    if (ref == 0) {
        ctx.pendingKind = static_cast<int32_t>(ExcKind::OutOfMemory);
        ctx.pendingSite = rec.site;
        return 1;
    }
    fi_.trace_.recordAllocation(ref, static_cast<uint64_t>(rec.imm2));
    r[rec.dst].ref = ref;
    return 0;
}

uint32_t
NativeEngine::helperNewArray(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.frame->df->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.frame->slots);
    int64_t len = static_cast<int32_t>(r[rec.a].i);
    if (len < 0) {
        ctx.pendingKind =
            static_cast<int32_t>(ExcKind::NegativeArraySize);
        ctx.pendingSite = rec.site;
        return 1;
    }
    ++fi_.stats_.allocations;
    Address ref =
        heap().allocateArray(rec.type, static_cast<int32_t>(len));
    if (ref == 0) {
        ctx.pendingKind = static_cast<int32_t>(ExcKind::OutOfMemory);
        ctx.pendingSite = rec.site;
        return 1;
    }
    fi_.trace_.recordAllocation(
        ref, static_cast<uint64_t>(len) * typeSize(rec.type));
    r[rec.dst].ref = ref;
    return 0;
}

uint32_t
NativeEngine::helperCall(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedFunction &df = *ctx.frame->df;
    const DecodedInst &rec = df.code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.frame->slots);

    // The instruction budget lives in the context while native code
    // runs; hand it back to the stats block around the callee (both
    // engines account there), then reload.
    fi_.stats_.instructions =
        static_cast<uint64_t>(
            static_cast<int64_t>(options_.maxInstructions) -
            ctx.budgetRemaining);

    ++fi_.stats_.calls;
    const ValueId *cargs = df.argPool.data() + rec.argsBegin;
    FunctionId callee = kNoFunction;
    if (rec.callKind == CallKind::Virtual) {
        Address recv = r[cargs[0]].ref;
        if (recv == 0)
            return decideNullAccess(ctx, rec); // call skipped on 0
        ClassId cid = heap().classOf(recv);
        if (cid >= mod_.numClasses()) {
            parkHardFault("corrupt object header");
            return 2;
        }
        const auto &vtable = mod_.cls(cid).vtable;
        if (static_cast<size_t>(rec.imm) >= vtable.size()) {
            parkHardFault("vtable slot out of range");
            return 2;
        }
        callee = vtable[rec.imm];
    } else {
        if (rec.callKind == CallKind::Special && r[cargs[0]].ref == 0) {
            parkHardFault("special call with null receiver (site " +
                          std::to_string(rec.site) + ")");
            return 2;
        }
        callee = static_cast<FunctionId>(rec.imm);
    }
    if (callee == kNoFunction || callee >= mod_.numFunctions()) {
        parkHardFault("call target unresolved");
        return 2;
    }

    // Stage the arguments straight into the callee's parameter slots:
    // its slot file starts where this frame's ends.
    const DecodedFunction &cdf = fi_.decoded(callee);
    TRAPJIT_ASSERT(rec.argsCount == cdf.numParams,
                   "bad argument count calling ", cdf.name);
    Slot *staged = r + df.numValues;
    if (!pool_.fits(staged, rec.argsCount)) {
        parkHardFault("native frame pool overflow in " + cdf.name);
        return 2;
    }
    for (uint32_t k = 0; k < rec.argsCount; ++k)
        staged[k] = r[cargs[k]];
    FrameResult sub = callFrame(callee, staged, ctx.depth + 1);

    ctx.budgetRemaining =
        static_cast<int64_t>(options_.maxInstructions) -
        static_cast<int64_t>(fi_.stats_.instructions);
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

uint32_t
NativeEngine::helperMath(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.frame->df->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.frame->slots);
    switch (rec.srcOp) {
      case Opcode::FExp: r[rec.dst].f = std::exp(r[rec.a].f); break;
      case Opcode::FSin: r[rec.dst].f = std::sin(r[rec.a].f); break;
      case Opcode::FCos: r[rec.dst].f = std::cos(r[rec.a].f); break;
      case Opcode::FLog: r[rec.dst].f = std::log(r[rec.a].f); break;
      case Opcode::F2I: {
        int64_t v = javaF2I(r[rec.a].f);
        r[rec.dst].i = (rec.flags & kDecodedNarrowDst)
                           ? static_cast<int32_t>(v)
                           : v;
        break;
      }
      default:
        TRAPJIT_PANIC("bad math helper opcode");
    }
    return 0;
}

uint32_t
NativeEngine::helperTraceFieldWrite(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.frame->df->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.frame->slots);
    Address addr = r[rec.a].ref + static_cast<Address>(rec.imm);
    switch (rec.type) {
      case Type::I32:
        fi_.trace_.recordWrite(
            addr,
            static_cast<uint32_t>(static_cast<int32_t>(r[rec.b].i)), 4);
        break;
      case Type::I64:
        fi_.trace_.recordWrite(addr, static_cast<uint64_t>(r[rec.b].i),
                               8);
        break;
      case Type::F64:
        fi_.trace_.recordWrite(addr, std::bit_cast<uint64_t>(r[rec.b].f),
                               8);
        break;
      case Type::Ref:
        fi_.trace_.recordWrite(addr, r[rec.b].ref, 8);
        break;
      default:
        TRAPJIT_PANIC("bad putfield type");
    }
    return 0;
}

uint32_t
NativeEngine::helperTraceArrayWrite(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.frame->df->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.frame->slots);
    int64_t idx = static_cast<int32_t>(r[rec.b].i);
    Address addr = r[rec.a].ref + kArrayDataOffset +
                   static_cast<Address>(idx) * typeSize(rec.type);
    switch (rec.type) {
      case Type::I32:
        fi_.trace_.recordWrite(
            addr,
            static_cast<uint32_t>(static_cast<int32_t>(r[rec.c].i)), 4);
        break;
      case Type::I64:
        fi_.trace_.recordWrite(addr, static_cast<uint64_t>(r[rec.c].i),
                               8);
        break;
      case Type::F64:
        fi_.trace_.recordWrite(addr, std::bit_cast<uint64_t>(r[rec.c].f),
                               8);
        break;
      case Type::Ref:
        fi_.trace_.recordWrite(addr, r[rec.c].ref, 8);
        break;
      default:
        TRAPJIT_PANIC("bad element type");
    }
    return 0;
}

uint32_t
NativeEngine::helperBudgetFault(NativeContext &ctx, uint32_t)
{
    parkHardFault("instruction budget exceeded in " +
                  ctx.frame->df->name);
    return 2;
}

// ---- extern "C" trampolines the compiler takes the address of -------

extern "C" uint32_t
trapjitNativeNewObject(NativeContext *ctx, uint32_t rec)
{
    return ctx->engine->helperNewObject(*ctx, rec);
}

extern "C" uint32_t
trapjitNativeNewArray(NativeContext *ctx, uint32_t rec)
{
    return ctx->engine->helperNewArray(*ctx, rec);
}

extern "C" uint32_t
trapjitNativeCall(NativeContext *ctx, uint32_t rec)
{
    return ctx->engine->helperCall(*ctx, rec);
}

extern "C" uint32_t
trapjitNativeMath(NativeContext *ctx, uint32_t rec)
{
    return ctx->engine->helperMath(*ctx, rec);
}

extern "C" uint32_t
trapjitNativeTraceFieldWrite(NativeContext *ctx, uint32_t rec)
{
    return ctx->engine->helperTraceFieldWrite(*ctx, rec);
}

extern "C" uint32_t
trapjitNativeTraceArrayWrite(NativeContext *ctx, uint32_t rec)
{
    return ctx->engine->helperTraceArrayWrite(*ctx, rec);
}

extern "C" uint32_t
trapjitNativeBudgetFault(NativeContext *ctx, uint32_t rec)
{
    return ctx->engine->helperBudgetFault(*ctx, rec);
}

} // namespace trapjit
