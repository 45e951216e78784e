#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_ENGINE_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_ENGINE_H_

/**
 * @file
 * The execution engine of the native x86-64 tier.
 *
 * NativeEngine mirrors the Interpreter / FastInterpreter surface (run /
 * heap / trace / stats / reset) and executes each function either as
 * compiled machine code (codegen/native/native_compiler.h) or — when
 * the function is unsupported, filtered out, or the host is not
 * x86-64/Linux — on an embedded FastInterpreter, per function, sharing
 * one heap, one event trace and one statistics block, so mixed native /
 * interpreted call stacks observe a single coherent world.
 *
 * Semantics contract: outcome, typed return value, exception kind,
 * observable event trace and final heap digest are bit-identical to the
 * interpreters (tests/test_native_differential.cpp enforces it across
 * every config arm).  The cycle cost model is *not* simulated — this
 * tier measures real time — and the engine-side dynamic counters
 * (dispatches, check counts) are not maintained by native code.
 *
 * HardFault discipline: compiled frames carry no C++ unwind tables, so
 * nothing may throw across them.  Any miscompilation detected while
 * native frames are on the stack is *parked* (first message wins), the
 * native frames unwind via their status-code exit, and run() rethrows
 * the parked HardFault with the interpreter-identical message.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "codegen/native/native_compiler.h"
#include "codegen/native/native_runtime.h"
#include "interp/fast_interpreter.h"
#include "jit/stats.h"

namespace trapjit
{

/** Which native lowering the engine compiles with. */
enum class NativeBackend : uint8_t
{
    /** Resolve from TRAPJIT_NATIVE_BACKEND ("optimized" selects the
     *  optimized backend, anything else — including unset — the
     *  baseline); TRAPJIT_SPECULATE=0 then disables section-5.4 load
     *  speculation within the optimized backend. */
    FromEnv,
    Baseline,  ///< slot-resident tier (native_compiler.cpp)
    Optimized, ///< regalloc + speculation (optimized_compiler.cpp)
};

/** Engine-level knobs (testing hooks, not part of the cache key). */
struct NativeEngineOptions
{
    /**
     * When set, functions for which this returns false execute on the
     * fast-interpreter fallback even though they compile fine — the
     * mixed-dispatch differential tests force arbitrary native /
     * interpreted call-stack interleavings with it.
     */
    std::function<bool(FunctionId)> nativeFilter;
    /** Backend selection; resolved once in the constructor. */
    NativeBackend backend = NativeBackend::FromEnv;
    /**
     * Section-5.4 load speculation override for the optimized backend:
     * -1 follows TRAPJIT_SPECULATE (default on), 0 forces it off, 1
     * forces it on.  Ignored under the baseline backend.
     */
    int speculate = -1;
};

/** Executes a module with the native tier (+ per-function fallback). */
class NativeEngine
{
  public:
    NativeEngine(const Module &mod, const Target &target,
                 InterpOptions options = {},
                 std::shared_ptr<DecodedProgramCache> decoded_cache = nullptr,
                 DecodeOptions decode_options = {},
                 std::shared_ptr<NativeCodeCache> native_cache = nullptr,
                 NativeEngineOptions engine_options = {});
    ~NativeEngine();

    NativeEngine(const NativeEngine &) = delete;
    NativeEngine &operator=(const NativeEngine &) = delete;

    /** Execute @p func with @p args; resets nothing between calls. */
    ExecResult run(FunctionId func, const std::vector<RuntimeValue> &args);

    Heap &heap() { return fi_.heap(); }
    EventTrace &trace() { return fi_.trace(); }
    const ExecStats &stats() const { return fi_.stats(); }

    /** Clear heap, trace and statistics (compiled code is kept). */
    void reset();

    /**
     * The machine code @p id executes (compiling on demand), or null
     * when the function runs on the fallback interpreter; test
     * introspection (check-byte assertions, fallback coverage).
     */
    const NativeCode *nativeCode(FunctionId id);

    /** Why @p id is not native ("" when it is). */
    std::string unsupportedReason(FunctionId id);

    /** Deopt side-exits taken since construction / the last reset(). */
    size_t deoptsTaken() const { return deoptsTaken_; }

    /**
     * Fold this engine's optimized-backend totals into @p c: compile
     * side (functionsRegalloc / spillsEmitted / loadsSpeculated /
     * regallocSeconds, counted on native-cache misses like
     * functionsNativeCompiled) and runtime deoptsTaken.
     */
    void addOptimizedCounters(ServiceCounters &c) const;

    // ---- internal protocol, called by the extern "C" JIT helpers ----
    uint32_t helperNewObject(NativeContext &ctx, uint32_t rec);
    uint32_t helperNewArray(NativeContext &ctx, uint32_t rec);
    uint32_t helperCall(NativeContext &ctx, uint32_t rec);
    uint32_t helperMath(NativeContext &ctx, uint32_t rec);
    uint32_t helperTraceFieldWrite(NativeContext &ctx, uint32_t rec);
    uint32_t helperTraceArrayWrite(NativeContext &ctx, uint32_t rec);
    uint32_t helperBudgetFault(NativeContext &ctx, uint32_t rec);

  private:
    using Slot = FastInterpreter::Slot;
    using FrameResult = FastInterpreter::FrameResult;

    /**
     * Dispatch one frame whose arguments sit in the first numParams
     * slots at @p frame (a point in pool_ just past the caller's slot
     * file): native frames adopt it as their slot file, the
     * fast-interpreter fallback copies the arguments out.  Never
     * throws — HardFaults are parked.
     */
    FrameResult callFrame(FunctionId id, Slot *frame, size_t depth);

    /**
     * The interpreter's depth check, then claim @p regs as @p df's slot
     * file: it must fit in pool_, and its non-parameter slots are
     * zeroed like execFrame's fresh register vector.  False (with the
     * HardFault parked) when the frame may not run.
     */
    bool claimFrame(const DecodedFunction &df, Slot *regs, size_t depth);

    /**
     * Run one compiled frame inside the sigsetjmp trap-recovery loop;
     * applies the interpreter's null-access decision table to guard
     * faults and resumes at the next record / the catch handler.
     */
    FrameResult nativeInvokeFrame(const DecodedFunction &df,
                                  const NativeCode &nc, Slot *regs,
                                  size_t depth);

    /**
     * Run one optimized-backend frame.  Single-shot sigsetjmp: a trap
     * never resumes native code — it becomes a deopt, and the frame
     * continues on the fast interpreter (FastInterpreter::resumeFrame)
     * with a copy of the canonical slot file.  Entry statuses: 0 =
     * returned, 1 = unwound (pending exception or parked HardFault),
     * 2 = deopt, replay ctx->deoptRecord, 3 = deopt, dispatch the
     * pending exception from ctx->deoptRecord's try region (the record
     * was already retired by its helper).
     */
    FrameResult optimizedInvokeFrame(const DecodedFunction &df,
                                     const NativeCode &nc, Slot *regs,
                                     size_t depth);

    /**
     * FastInterpreter::handleNullAccess, native calling convention:
     * 0 = continue (silent zero), 1 = NPE pending in @p ctx, 2 = hard
     * unwind (message parked).  Shared by the trap wrapper and the
     * call helper (null virtual receiver).
     */
    uint32_t decideNullAccess(NativeContext &ctx, const DecodedInst &d);

    /** Park @p msg as the run's HardFault (first message wins). */
    void parkHardFault(std::string msg);

    /** Compiled entry for @p id (compiling/caching on demand). */
    const NativeCodeCache::Entry &ensureCompiled(FunctionId id);

    const Module &mod_;
    const Target &target_;
    InterpOptions options_;
    DecodeOptions decodeOptions_;
    NativeCompileOptions nativeOptions_;
    NativeEngineOptions engineOptions_;
    std::shared_ptr<NativeCodeCache> nativeCache_;
    std::vector<std::shared_ptr<const NativeCodeCache::Entry>> compiled_;
    FastInterpreter fi_; ///< fallback engine and shared heap/trace/stats
    /** Every native frame's slot file (see FramePool). */
    FramePool pool_;
    bool handlerInstalled_ = false;
    bool hardFaultPending_ = false;
    std::string hardFaultMsg_;

    // ---- optimized-backend counters ---------------------------------
    // Compile-side totals accumulate on native-cache misses (mirroring
    // functionsNativeCompiled); deoptsTaken_ is a runtime statistic and
    // clears with reset() like the ExecStats block.
    size_t deoptsTaken_ = 0;
    size_t functionsRegalloc_ = 0;
    size_t spillsEmitted_ = 0;
    size_t loadsSpeculated_ = 0;
    double regallocSeconds_ = 0.0;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_NATIVE_ENGINE_H_
