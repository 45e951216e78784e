#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_CORE_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_CORE_H_

/**
 * @file
 * The execution core both native engines are built on.
 *
 * NativeEngine (classic per-frame entry, codegen/native/native_engine.h)
 * and TieredEngine (linked blocks, codegen/native/tiered_engine.h)
 * differ in how a frame is entered and how it calls.  Everything else
 * is here, once:
 *
 *  - the fallback FastInterpreter, and through it the one heap, event
 *    trace, statistics block and frame stack (FramePool) mixed native /
 *    interpreted call stacks share; and the SIGSEGV handler's install /
 *    uninstall;
 *  - HardFault parking: compiled frames carry no C++ unwind tables, so
 *    nothing may throw across them.  A fault detected while native
 *    frames are on the stack is parked (first message wins), the
 *    frames unwind via their status-code exit, and run() rethrows it;
 *  - run()'s argument marshalling and ExecResult conversion (shared
 *    with FastInterpreter::run);
 *  - callee resolution for native call sites, and the null-access
 *    verdict for a null virtual receiver;
 *  - the helpers JIT code calls out to (trapjitNative* in
 *    native_runtime.h), which find their frame through
 *    NativeContext::activeDf / activeSlots in both modes.
 */

#include <string>
#include <vector>

#include "codegen/native/native_runtime.h"
#include "interp/fast_interpreter.h"

namespace trapjit
{

class NativeCore
{
  public:
    NativeCore(const NativeCore &) = delete;
    NativeCore &operator=(const NativeCore &) = delete;

    Heap &heap() { return fi_.heap_; }
    EventTrace &trace() { return fi_.trace_; }
    const ExecStats &stats() const { return fi_.stats_; }

    // ---- the helpers behind the extern "C" trampolines --------------
    // None of these may throw: they run below frames with no unwind
    // info.  Status protocol: native_runtime.h.
    uint32_t helperNewObject(NativeContext &ctx, uint32_t rec);
    uint32_t helperNewArray(NativeContext &ctx, uint32_t rec);
    uint32_t helperMath(NativeContext &ctx, uint32_t rec);
    uint32_t helperTraceFieldWrite(NativeContext &ctx, uint32_t rec);
    uint32_t helperTraceArrayWrite(NativeContext &ctx, uint32_t rec);
    uint32_t helperBudgetFault(NativeContext &ctx, uint32_t rec);

  protected:
    using Slot = FastInterpreter::Slot;
    using FrameResult = FastInterpreter::FrameResult;

    NativeCore(const Module &mod, const Target &target,
               InterpOptions options,
               std::shared_ptr<DecodedProgramCache> decoded_cache,
               DecodeOptions decode_options);
    ~NativeCore();

    /** Clear heap, trace, statistics and any parked HardFault. */
    void resetCore();

    /**
     * Start a root call: clear the parked HardFault and marshal @p args
     * into the bottom row of the frame stack (fi_.pool_), which becomes
     * the root frame's parameter slots.
     */
    Slot *beginRun(FunctionId func, const std::vector<RuntimeValue> &args);

    /** Finish a root call: rethrow a parked HardFault, else convert
     *  @p frame into the run's ExecResult. */
    ExecResult finishRun(FunctionId func, const FrameResult &frame);

    /** Park @p msg as the run's HardFault (first message wins). */
    void parkHardFault(std::string msg);

    /** Park @p msg and flag it in @p ctx; returns status 2. */
    uint32_t fail(NativeContext &ctx, std::string msg);

    /** Park the HardFault the SIGSEGV handler left in @p ctx, if any
     *  (only a frame that unwound can have one). */
    void consumePark(NativeContext &ctx);

    /**
     * The null-access verdict for record @p d of @p ctx's frame, as a
     * helper status: 0 = continue (silent zero), 1 = trap NPE pending
     * in @p ctx, 2 = HardFault (see fail).
     */
    uint32_t nullAccess(NativeContext &ctx, const DecodedInst &d);

    /**
     * Resolve the callee of Call record @p rec in @p ctx's frame, whose
     * receiver (first argument) is @p receiver.  Returns 0 with
     * @p callee set; 0 with @p callee = kNoFunction when a null virtual
     * receiver reads as zero and the call is skipped; otherwise the
     * status of the NPE or HardFault that ends the call.  Forced
     * inline: it runs on every C++-dispatched call, and a call of its
     * own costs those paths several percent.
     */
    [[gnu::always_inline]] uint32_t
    resolveCallee(NativeContext &ctx, const DecodedInst &rec,
                  Address receiver, FunctionId &callee)
    {
        callee = kNoFunction;
        if (rec.callKind == CallKind::Virtual) {
            if (receiver == 0)
                return nullAccess(ctx, rec); // the call is skipped on 0
            ClassId cid = fi_.heap_.classOf(receiver);
            if (cid >= mod_.numClasses())
                return fail(ctx, "corrupt object header");
            const auto &vtable = mod_.cls(cid).vtable;
            if (static_cast<size_t>(rec.imm) >= vtable.size())
                return fail(ctx, "vtable slot out of range");
            callee = vtable[rec.imm];
        } else {
            if (rec.callKind == CallKind::Special && receiver == 0)
                return fail(ctx, "special call with null receiver (site " +
                                     std::to_string(rec.site) + ")");
            callee = static_cast<FunctionId>(rec.imm);
        }
        if (callee == kNoFunction || callee >= mod_.numFunctions()) {
            callee = kNoFunction;
            return fail(ctx, "call target unresolved");
        }
        return 0;
    }

    /** Run @p df on the fallback interpreter, on slot file @p regs (its
     *  arguments already staged there), parking its HardFault. */
    FrameResult interpret(const DecodedFunction &df, Slot *regs,
                          size_t depth);

    /** The global instruction budget left, as JIT code counts it. */
    int64_t
    budgetLeft() const
    {
        return static_cast<int64_t>(options_.maxInstructions) -
               static_cast<int64_t>(fi_.stats_.instructions);
    }

    /** Fold @p ctx's budget and linked-call counts into the stats. */
    void
    syncStats(NativeContext &ctx)
    {
        fi_.stats_.instructions = static_cast<uint64_t>(
            static_cast<int64_t>(options_.maxInstructions) -
            ctx.budgetRemaining);
        // Calls retired by linked tiered call sites (counted caller-side
        // in the emitted code, mirroring the interpreter's ++calls).
        fi_.stats_.calls += ctx.linkedCalls;
        ctx.linkedCalls = 0;
    }

    const Module &mod_;
    const Target &target_;
    InterpOptions options_;
    FastInterpreter fi_;
    bool hardFaultPending_ = false;
    std::string hardFaultMsg_;

  private:
    bool handlerInstalled_ = false;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_NATIVE_CORE_H_
