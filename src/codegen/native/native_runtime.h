#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_

/**
 * @file
 * Runtime support for the native x86-64 tier: the context block JIT
 * code addresses directly, the per-request run scope and pc map, the
 * SIGSEGV handler that turns guard-page faults into exception dispatch
 * or deopts, and the out-of-line helpers compiled code calls for the
 * operations that stay in C++ (allocation, calls, trace recording,
 * libm).
 *
 * Protocol between JIT code and the helpers:
 *
 *  - every helper takes (NativeContext*, recordIndex) and returns a
 *    status: 0 = continue with the next record, 1 = a Java-level
 *    exception is pending in the context (the caller jumps to the
 *    in-code dispatch stub with the record's try region), 2 = hard
 *    unwind (HardFault parked in the engine and ctx->hardFault set;
 *    the caller jumps to the frame's unwind exit).  Classic status
 *    stubs test the status, tiered ones test ctx->hardFault, so one
 *    helper serves both lowerings.
 *  - helpers find the executing frame through ctx->activeDf and
 *    ctx->activeSlots: a tiered block's prologue (and the code after
 *    each call) publishes them; classic frames get a context of their
 *    own, filled in C++ before entry.
 *  - helpers NEVER throw C++ exceptions: JIT frames carry no unwind
 *    tables, so a throw crossing them would terminate the process.
 *    HardFaults are parked in the engine (NativeCore) and rethrown at
 *    the top of run().
 *
 * Trap recovery: one protocol for every native frame, resolved inside
 * the SIGSEGV handler.  An engine enters a NativeRunScope once per
 * request; the scope names the pc map of every piece of code the
 * engine may run (the engine's compiled functions, or the registry's
 * published blocks), the statistics block and the heap guard region.
 * A fault whose PC lies in a mapped range is decided from the pinned
 * registers alone — r12 = NativeContext* (whose activeDf names the
 * frame's function), rbx = the frame's slot file, r14 = the budget
 * count — and the handler returns by rewriting RIP:
 *
 *  - baseline and tiered code: resolveNullTrap decides the trap, and
 *    execution resumes at the next record or the catch handler, or
 *    leaves the frame through its exit with status 1;
 *  - optimized code never resumes: a null access at a site with a deopt
 *    record refunds the pre-charged budget in r14, stores the record in
 *    ctx->deoptRecord and leaves with status 2 (the engine replays the
 *    frame on the fast interpreter); any other fault leaves with
 *    status 1.
 *
 * Faults that don't match a trap site — or whose reference slot is not
 * actually null — are parked in the context as a HardFault verdict
 * (NullVerdict::OutsideObject or Wild) instead of corrupting state.
 * Nothing is armed per frame, so a frame that takes no trap pays
 * nothing for recovery; the handler returns normally, so sigreturn
 * reinstates the signal mask the fault interrupted.  The handler runs on a
 * per-thread alternate stack (runtime/signal_stack.h) and chains to the
 * previously installed handler for faults outside JIT code.
 *
 * Slot files: every frame of an engine — interpreted, baseline,
 * optimized or tiered — sits on the one FramePool
 * (runtime/frame_pool.h) its FastInterpreter owns.  A callee's slot
 * file starts where its caller's ends, and every call, whichever tier
 * makes it, stages its arguments straight into what becomes the
 * callee's parameter slots; the callee runs there in whatever tier it
 * is in.  A trap that deoptimizes an optimized frame resumes the fast
 * interpreter on that frame's own slots.  Tiered code keeps the stack
 * top in NativeContext::poolTop; an interpreted frame's top is its base
 * plus its slot count, so a bridge from an interpreted frame into
 * tiered code enters at the staged arguments and restores poolTop on
 * the way out.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "interp/decoded_program.h"
#include "interp/interpreter.h"
#include "ir/function.h"
#include "runtime/heap.h"

namespace trapjit
{

class NativeCore;
struct NativeCode;

/**
 * The block JIT code addresses through r12.  The first 80 bytes are
 * the hot fields with hard-coded displacements (static_asserts below);
 * everything after is only touched from C++.  The pool, depth and
 * linked-call fields are dead weight for the classic per-frame engine,
 * which never reads them.
 */
struct NativeContext
{
    /** maxInstructions minus instructions retired; faults below zero. */
    int64_t budgetRemaining = 0;
    /** Return-value bits, written by compiled Return. */
    uint64_t retBits = 0;
    /** Pending exception (ExcKind as int32; 0 = none) + its site. */
    int32_t pendingKind = 0;
    uint32_t pendingSite = 0;
    /** Message parked in the engine; tiered status stubs test this. */
    uint32_t hardFault = 0;
    uint32_t pad_ = 0;
    /** Function of the currently executing frame. */
    const DecodedFunction *activeDf = nullptr;
    /** Slot base (rbx) of the currently executing frame. */
    void *activeSlots = nullptr;
    /** Frame-pool bump pointer / limit (tiered frames only). */
    uint8_t *poolTop = nullptr;
    uint8_t *poolEnd = nullptr;
    /** maxCallDepth + 1 minus current depth; faults below zero. */
    int64_t depthRemaining = 0;
    /** Calls retired by linked tiered code since the last sync. */
    uint64_t linkedCalls = 0;
    /**
     * Record index the optimized backend's deopt stubs (and the SIGSEGV
     * handler, for a trap) leave behind:
     * where the fast interpreter should pick the frame up (entry
     * status 2 = re-execute that record, 3 = dispatch the pending
     * exception from its try region without re-executing).
     */
    uint32_t deoptRecord = 0;
    uint32_t pad2_ = 0;

    // ---- cold, C++-only fields --------------------------------------
    NativeCore *engine = nullptr;
    /** Call depth of a classic frame (tiered frames use depthRemaining). */
    uint32_t depth = 0;
    /**
     * A faulting access the SIGSEGV handler left behind (parkDf null
     * = none): the engine turns it into the HardFault message once the
     * frame has unwound, since the handler may not allocate.
     */
    NullVerdict parkVerdict = NullVerdict::Wild;
    uint32_t parkRec = 0;
    const DecodedFunction *parkDf = nullptr;
};

constexpr uint8_t kNativeCtxBudgetOffset = 0;
constexpr uint8_t kNativeCtxRetOffset = 8;
constexpr uint8_t kNativeCtxPendingKindOffset = 16;
constexpr uint8_t kNativeCtxPendingSiteOffset = 20;
constexpr uint8_t kNativeCtxHardFaultOffset = 24;
constexpr uint8_t kNativeCtxActiveDfOffset = 32;
constexpr uint8_t kNativeCtxActiveSlotsOffset = 40;
constexpr uint8_t kNativeCtxPoolTopOffset = 48;
constexpr uint8_t kNativeCtxPoolEndOffset = 56;
constexpr uint8_t kNativeCtxDepthRemainingOffset = 64;
constexpr uint8_t kNativeCtxLinkedCallsOffset = 72;
constexpr uint8_t kNativeCtxDeoptRecordOffset = 80;

static_assert(offsetof(NativeContext, budgetRemaining) ==
              kNativeCtxBudgetOffset);
static_assert(offsetof(NativeContext, retBits) == kNativeCtxRetOffset);
static_assert(offsetof(NativeContext, pendingKind) ==
              kNativeCtxPendingKindOffset);
static_assert(offsetof(NativeContext, pendingSite) ==
              kNativeCtxPendingSiteOffset);
static_assert(offsetof(NativeContext, hardFault) ==
              kNativeCtxHardFaultOffset);
static_assert(offsetof(NativeContext, activeDf) ==
              kNativeCtxActiveDfOffset);
static_assert(offsetof(NativeContext, activeSlots) ==
              kNativeCtxActiveSlotsOffset);
static_assert(offsetof(NativeContext, poolTop) ==
              kNativeCtxPoolTopOffset);
static_assert(offsetof(NativeContext, poolEnd) ==
              kNativeCtxPoolEndOffset);
static_assert(offsetof(NativeContext, depthRemaining) ==
              kNativeCtxDepthRemainingOffset);
static_assert(offsetof(NativeContext, linkedCalls) ==
              kNativeCtxLinkedCallsOffset);
static_assert(offsetof(NativeContext, deoptRecord) ==
              kNativeCtxDeoptRecordOffset);

/** One piece of native code's range (for fault-PC lookup). */
struct NativeCodeRange
{
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    const NativeCode *nc = nullptr;
};

/** Immutable, sorted snapshot of the code ranges one engine may run. */
struct NativePcMap
{
    std::vector<NativeCodeRange> ranges; ///< sorted by lo, disjoint
    /** Async-signal-safe binary search; null when pc is outside. */
    const NativeCodeRange *find(uintptr_t pc) const;
};

/**
 * The published pc map of one engine or registry.  add() swaps in a
 * fresh snapshot with one more range; old snapshots stay alive as long
 * as the slot, so a handler's acquire load is always safe.  Callers
 * serialize add().
 */
class NativePcMapSlot
{
  public:
    /** Publish @p nc's range (no-op when it is already mapped). */
    void add(const NativeCode &nc);

    const std::atomic<const NativePcMap *> &
    current() const
    {
        return map_;
    }

  private:
    std::vector<std::unique_ptr<NativePcMap>> history_;
    std::atomic<const NativePcMap *> map_{nullptr};
};

/**
 * The calling thread's fault-resolution scope, active for one engine
 * request (LIFO per thread).  The handler does a fresh acquire load of
 * @p pcMap per fault, so code compiled or published mid-request is
 * recognized at once.
 */
struct NativeRunScope
{
    NativeRunScope(const std::atomic<const NativePcMap *> &pcMap,
                   ExecStats &stats, const Heap &heap);
    ~NativeRunScope();
    NativeRunScope(const NativeRunScope &) = delete;
    NativeRunScope &operator=(const NativeRunScope &) = delete;

    const std::atomic<const NativePcMap *> *pcMap;
    ExecStats *stats; ///< trap and speculative-read counts
    uintptr_t guardLo, guardHi;
    NativeRunScope *prev;
};

/**
 * Install / remove the process-wide SIGSEGV handler (refcounted; the
 * previous disposition is restored when the last engine uninstalls).
 */
void nativeInstallSegvHandler();
void nativeUninstallSegvHandler();

/**
 * Walk @p df's try-region parent chain from @p region for an handler
 * catching @p kind; returns the handler's stream index or -1.  The
 * shared L_dispatch stub calls this (through trapjitNativeFindHandler)
 * and the SIGSEGV handler calls it directly for trap NPEs.
 */
int32_t nativeFindHandlerIndex(const DecodedFunction &df,
                               TryRegionId region, ExcKind kind);

// ---- helpers called from JIT code (see protocol above) --------------
extern "C" {
uint32_t trapjitNativeNewObject(NativeContext *ctx, uint32_t rec);
uint32_t trapjitNativeNewArray(NativeContext *ctx, uint32_t rec);
uint32_t trapjitNativeCall(NativeContext *ctx, uint32_t rec);
/** FExp / FSin / FCos / FLog / F2I, switched on the record's srcOp. */
uint32_t trapjitNativeMath(NativeContext *ctx, uint32_t rec);
uint32_t trapjitNativeTraceFieldWrite(NativeContext *ctx, uint32_t rec);
uint32_t trapjitNativeTraceArrayWrite(NativeContext *ctx, uint32_t rec);
/** Budget exhausted: parks the HardFault message; always returns 2. */
uint32_t trapjitNativeBudgetFault(NativeContext *ctx, uint32_t rec);
/** Handler index for the pending exception, or -1 (clears pending). */
int32_t trapjitNativeFindHandler(NativeContext *ctx, uint32_t tryRegion);

// ---- tiered-only helpers (defined in tiered_engine.cpp) ---------------
uint32_t trapjitTieredDepthFault(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredPoolFault(NativeContext *ctx, uint32_t rec);
/**
 * Unlinked-call trampoline target: resolves the callee and either
 * enters its published block directly or interprets it.  Arguments
 * were staged by the call site at ctx->poolTop.
 */
uint32_t trapjitTieredSlowCall(NativeContext *ctx, uint32_t rec);
}

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_
