#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_

/**
 * @file
 * Runtime support for the native x86-64 tier: the context block JIT
 * code addresses directly, the per-frame trap activation records, the
 * SIGSEGV handler that turns guard-page faults into exception
 * dispatch, and the out-of-line helpers compiled code calls for the
 * operations that stay in C++ (allocation, calls, trace recording,
 * libm).
 *
 * Protocol between JIT code and the helpers:
 *
 *  - every helper takes (NativeContext*, recordIndex) and returns a
 *    status: 0 = continue with the next record, 1 = a Java-level
 *    exception is pending in the context (the caller jumps to the
 *    in-code dispatch stub with the record's try region), 2 = hard
 *    unwind (HardFault recorded engine-side; the caller jumps to the
 *    frame's unwind exit).
 *  - helpers NEVER throw C++ exceptions: JIT frames carry no unwind
 *    tables, so a throw crossing them would terminate the process.
 *    HardFaults are parked in the engine and rethrown at the top of
 *    NativeEngine::run.
 *
 * Trap recovery: each classic native frame enters its code under a
 * mask-free sigsetjmp(jmp, 0) with a NativeActivation on a thread-local
 * stack, so a call that takes no trap makes no syscall.  The SIGSEGV
 * handler checks whether the faulting PC lies in the innermost
 * activation's code range; if so it records PC, fault address and the
 * interrupted signal mask (uc_sigmask) and siglongjmps back (value 1
 * for a fault inside the heap guard region, 2 for any other address).
 * siglongjmp leaves the handler's mask in place, so the recovery
 * branch restores the recorded one with a single pthread_sigmask —
 * one syscall per trap instead of one per frame, and exact even when
 * a foreign handler that blocks SIGSEGV chains into ours.  The frame wrapper maps the PC to the faulting
 * record's trap site and applies the same null-access decision table
 * as the interpreters (FastInterpreter::handleNullAccess).  Faults
 * that don't match a trap site — or whose reference slot is not
 * actually null — are reported as a HardFault instead of corrupting
 * state.  The handler runs on a per-thread alternate stack
 * (runtime/signal_stack.h) and chains to the previously installed
 * handler for faults outside any activation.
 *
 * Slot files: both native engines carve every frame's slot file from
 * one FramePool (below); a call stages its arguments straight into
 * what becomes the callee's parameter slots.
 */

#include <atomic>
#include <csetjmp>
#include <csignal>
#include <cstdint>
#include <vector>

#include "interp/decoded_program.h"
#include "ir/function.h"

namespace trapjit
{

class Module;
class NativeEngine;
class TieredEngine;
struct NativeCode;

/** Per-frame execution state the C++ helpers reach through. */
struct NativeFrame
{
    const DecodedFunction *df = nullptr;
    const NativeCode *nc = nullptr;
    void *slots = nullptr; ///< FastInterpreter::Slot[numValues]
    NativeFrame *parent = nullptr;
};

/**
 * The block JIT code addresses through r12.  The first 80 bytes are
 * the hot fields with hard-coded displacements (static_asserts below);
 * everything after is only touched from C++.  The tiered tier's extra
 * fields (activeDf .. linkedCalls) are dead weight for the classic
 * per-frame native engine, which never reads them.
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
    /** Function owning the currently executing tiered block. */
    const DecodedFunction *activeDf = nullptr;
    /** Slot base (rbx) of the currently executing tiered frame. */
    void *activeSlots = nullptr;
    /** Frame-pool bump pointer / limit (tiered frames only). */
    uint8_t *poolTop = nullptr;
    uint8_t *poolEnd = nullptr;
    /** maxCallDepth + 1 minus current depth; faults below zero. */
    int64_t depthRemaining = 0;
    /** Calls retired by linked tiered code since the last sync. */
    uint64_t linkedCalls = 0;
    /**
     * Record index the optimized backend's deopt stubs leave behind:
     * where the fast interpreter should pick the frame up (entry
     * status 2 = re-execute that record, 3 = dispatch the pending
     * exception from its try region without re-executing).
     */
    uint32_t deoptRecord = 0;
    uint32_t pad2_ = 0;

    // ---- cold, C++-only fields --------------------------------------
    NativeFrame *frame = nullptr;
    NativeEngine *engine = nullptr;
    TieredEngine *tieredEngine = nullptr;
    uint32_t depth = 0;
    /** TieredPark reason left by the SIGSEGV handler (0 = none). */
    int32_t parkCode = 0;
    /** Record index of the parked fault inside parkDf. */
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

/** One native frame's trap-recovery record (thread-local stack). */
struct NativeActivation
{
    sigjmp_buf jmp;
    uintptr_t codeLo = 0, codeHi = 0;   ///< this frame's code range
    uintptr_t guardLo = 0, guardHi = 0; ///< the heap guard region
    uintptr_t faultPc = 0, faultAddr = 0;
    /** r14 (the register-resident budget count) at the fault. */
    int64_t faultBudget = 0;
    /**
     * The signal mask the fault interrupted (uc_sigmask).  The recovery
     * branch of sigsetjmp(jmp, 0) reinstates it: siglongjmp out of the
     * handler does not, and a chained foreign handler may have blocked
     * SIGSEGV on the way in.
     */
    sigset_t faultMask;
    NativeActivation *prev = nullptr;
};

/** Push/pop the calling thread's activation stack. */
void nativePushActivation(NativeActivation *act);
void nativePopActivation(NativeActivation *act);

/**
 * The slot-file stack both native engines carve their frames from:
 * (maxCallDepth + 2) x the module's widest slot file — one row per
 * live frame at depths 0..maxCallDepth plus the row a call at the
 * depth limit stages its arguments into before the callee's depth
 * check faults.  A callee's slot file starts where its caller's ends,
 * so frames never overlap and a frame that fits its row always fits
 * the pool; anything else is a "native frame pool overflow" HardFault
 * at the frame that would not fit, never a write past the end.
 *
 * The memory is a reserved anonymous mapping: the kernel commits (and
 * zero-fills) a page only when a frame first touches it, so a shallow
 * call tree costs resident memory only for the rows it reached.
 */
class FramePool
{
  public:
    FramePool(const Module &mod, size_t maxCallDepth);
    ~FramePool();

    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    uint8_t *begin() const { return base_; }
    uint8_t *end() const { return base_ + bytes_; }

    /** Whether @p numSlots 8-byte slots starting at @p at (a point
     *  inside the pool) fit before its end. */
    bool fits(const void *at, size_t numSlots) const
    {
        const auto *p = static_cast<const uint8_t *>(at);
        return numSlots <= static_cast<size_t>(end() - p) / 8;
    }

  private:
    uint8_t *base_ = nullptr;
    size_t bytes_ = 0;
};

// ---- tiered-tier trap recovery --------------------------------------
//
// Tiered blocks do NOT run under a per-frame sigsetjmp: the handler
// resolves the fault in place and rewrites RIP to the resume point (or
// the block's unwind exit), so a hot tiered call chain pays zero
// setup per frame.  The handler reaches everything it needs through
// the faulting thread's TieredRun descriptor plus the pinned registers
// (r12 = NativeContext*, rbx = current frame's Slot*).

/** One published tiered block's code range (for fault-PC lookup). */
struct TieredBlockRange
{
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    const NativeCode *nc = nullptr;
    const DecodedFunction *df = nullptr;
};

/**
 * Immutable, sorted snapshot of every tiered block ever published.
 * The registry swaps in a fresh snapshot on publish; old snapshots are
 * kept alive forever so the handler's acquire load is always safe.
 */
struct TieredPcMap
{
    std::vector<TieredBlockRange> blocks; ///< sorted by lo, disjoint
    /** Async-signal-safe binary search; null when pc is outside. */
    const TieredBlockRange *find(uintptr_t pc) const;
};

/** Why the SIGSEGV handler hard-unwound a tiered frame. */
enum class TieredPark : int32_t
{
    None = 0,
    Wild = 1,           ///< PC without site, or reference not null
    SpecUnsafe = 2,     ///< speculative access, target forbids it
    NotTrapCovered = 3, ///< exception site outside the trap area
    Unchecked = 4,      ///< null dereference with no check at all
};

/**
 * Thread-scoped fault-resolution descriptor, active while a tiered
 * root call runs.  pcMap is a pointer to the registry's atomic map
 * slot — the handler does a fresh acquire load per fault so blocks
 * published mid-run are visible immediately.
 */
struct TieredRun
{
    const std::atomic<const TieredPcMap *> *pcMap = nullptr;
    uint64_t *trapsTaken = nullptr; ///< ExecStats::trapsTaken
    uint64_t *specReads = nullptr;  ///< ExecStats::speculativeReadsOfNull
    uintptr_t guardLo = 0, guardHi = 0;
    TieredRun *prev = nullptr;
};

/** Enter/exit the calling thread's tiered-run scope (LIFO). */
void tieredEnterRun(TieredRun *run);
void tieredExitRun(TieredRun *run);

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
 * and the trap wrapper calls it directly for trap NPEs.
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

// ---- tiered-tier helpers (defined in tiered_engine.cpp) -------------
// Same status protocol, but status 2 never crosses JIT code: hard
// faults set ctx->hardFault and return 1, and the status stubs test
// hardFault to pick unwind over dispatch.
uint32_t trapjitTieredNewObject(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredNewArray(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredMath(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredTraceFieldWrite(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredTraceArrayWrite(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredBudgetFault(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredDepthFault(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredPoolFault(NativeContext *ctx, uint32_t rec);
/**
 * Unlinked-call trampoline target: resolves the callee and either
 * enters its published block directly or interprets it.  Arguments
 * were staged by the call site at ctx->poolTop.
 */
uint32_t trapjitTieredSlowCall(NativeContext *ctx, uint32_t rec);
/** trapjitNativeFindHandler, but against ctx->activeDf. */
int32_t trapjitTieredFindHandler(NativeContext *ctx, uint32_t tryRegion);
}

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_
