#include "codegen/native/native_core.h"

#include <cmath>

#include "codegen/native/native_compiler.h"
#include "interp/java_semantics.h"
#include "support/diagnostics.h"

namespace trapjit
{

NativeCore::NativeCore(const Module &mod, const Target &target,
                       InterpOptions options,
                       std::shared_ptr<DecodedProgramCache> decoded_cache,
                       DecodeOptions decode_options)
    : mod_(mod), target_(target), options_(options),
      // Always hand the fallback interpreter a DecodedProgramCache: the
      // per-function fallback and the native compilers then share one
      // decode per function, and an externally shared cache (compile
      // service, tier controller, sibling engines) makes that decode
      // happen at most once per process instead of once per engine.
      fi_(mod, target, options,
          decoded_cache ? std::move(decoded_cache)
                        : std::make_shared<DecodedProgramCache>(),
          decode_options)
{
    if (nativeTierSupported()) {
        nativeInstallSegvHandler();
        handlerInstalled_ = true;
    }
}

NativeCore::~NativeCore()
{
    if (handlerInstalled_)
        nativeUninstallSegvHandler();
}

void
NativeCore::resetCore()
{
    fi_.reset();
    hardFaultPending_ = false;
    hardFaultMsg_.clear();
}

NativeCore::Slot *
NativeCore::beginRun(FunctionId func, const std::vector<RuntimeValue> &args)
{
    hardFaultPending_ = false;
    hardFaultMsg_.clear();
    Slot *argv = reinterpret_cast<Slot *>(fi_.pool_.begin());
    fi_.marshalArgs(func, args, argv);
    return argv;
}

ExecResult
NativeCore::finishRun(FunctionId func, const FrameResult &frame)
{
    if (hardFaultPending_)
        throw HardFault(hardFaultMsg_);
    return fi_.toExecResult(fi_.decoded(func), frame);
}

void
NativeCore::parkHardFault(std::string msg)
{
    if (!hardFaultPending_) {
        hardFaultPending_ = true;
        hardFaultMsg_ = std::move(msg);
    }
}

uint32_t
NativeCore::fail(NativeContext &ctx, std::string msg)
{
    parkHardFault(std::move(msg));
    ctx.hardFault = 1;
    return 2;
}

void
NativeCore::consumePark(NativeContext &ctx)
{
    if (ctx.parkDf == nullptr)
        return;
    const DecodedFunction &df = *ctx.parkDf;
    ctx.parkDf = nullptr;
    parkHardFault(nullAccessMessage(ctx.parkVerdict, df,
                                    df.code[ctx.parkRec], target_));
}

uint32_t
NativeCore::nullAccess(NativeContext &ctx, const DecodedInst &d)
{
    switch (NullVerdict v = classifyNullAccess(d.flags)) {
      case NullVerdict::SpecSafeZero:
        ++fi_.stats_.speculativeReadsOfNull;
        return 0;
      case NullVerdict::TrapNpe:
        ++fi_.stats_.trapsTaken;
        ctx.pendingKind = static_cast<int32_t>(ExcKind::NullPointer);
        ctx.pendingSite = d.site;
        return 1;
      case NullVerdict::IllegalZero:
        return 0;
      default:
        return fail(ctx, nullAccessMessage(v, *ctx.activeDf, d, target_));
    }
}

NativeCore::FrameResult
NativeCore::interpret(const DecodedFunction &df, Slot *regs, size_t depth)
{
    // execFrame can throw HardFault; when native frames sit above us
    // on the C++ stack the throw must not cross their JIT frames, so
    // it is parked here and rethrown by run().  Interpreted frames
    // keep no stack top of their own (a frame ends at its base plus
    // its slot count), so the unwind leaves the frame stack as the
    // caller had it.
    try {
        return fi_.execFrame(df, regs, depth);
    } catch (const HardFault &fault) {
        parkHardFault(fault.what());
        return FrameResult{};
    }
}

// ---- helpers called from JIT code -----------------------------------

uint32_t
NativeCore::helperNewObject(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    ++fi_.stats_.allocations;
    Address ref = fi_.heap_.allocateObject(static_cast<ClassId>(rec.imm),
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
NativeCore::helperNewArray(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    int64_t len = static_cast<int32_t>(r[rec.a].i);
    if (len < 0) {
        ctx.pendingKind =
            static_cast<int32_t>(ExcKind::NegativeArraySize);
        ctx.pendingSite = rec.site;
        return 1;
    }
    ++fi_.stats_.allocations;
    Address ref =
        fi_.heap_.allocateArray(rec.type, static_cast<int32_t>(len));
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
NativeCore::helperMath(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
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

namespace
{

/** Trace a heap store of the slot bits @p bits as a @p type value. */
void
recordStore(EventTrace &trace, Address addr, Type type, uint64_t bits)
{
    switch (type) {
      case Type::I32:
        trace.recordWrite(addr, static_cast<uint32_t>(bits), 4);
        break;
      case Type::I64:
      case Type::F64:
      case Type::Ref:
        trace.recordWrite(addr, bits, 8);
        break;
      default:
        TRAPJIT_PANIC("bad store type");
    }
}

} // namespace

uint32_t
NativeCore::helperTraceFieldWrite(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    recordStore(fi_.trace_, r[rec.a].ref + static_cast<Address>(rec.imm),
                rec.type, r[rec.b].bits);
    return 0;
}

uint32_t
NativeCore::helperTraceArrayWrite(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    int64_t idx = static_cast<int32_t>(r[rec.b].i);
    recordStore(fi_.trace_,
                r[rec.a].ref + kArrayDataOffset +
                    static_cast<Address>(idx) * typeSize(rec.type),
                rec.type, r[rec.c].bits);
    return 0;
}

uint32_t
NativeCore::helperBudgetFault(NativeContext &ctx, uint32_t)
{
    return fail(ctx, "instruction budget exceeded in " + ctx.activeDf->name);
}

// ---- extern "C" trampolines the compilers take the address of -------

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
