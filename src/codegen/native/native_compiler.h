#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_COMPILER_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_COMPILER_H_

/**
 * @file
 * The native x86-64 tier: lowers a DecodedFunction into real,
 * executable machine code with the paper's hardware-trap implicit null
 * checks.  One lowering (native_compiler.cpp) serves three modes: the
 * baseline, its tiered ABI (options.tiered, DESIGN.md section 14) and
 * the optimized backend (options.optimized, DESIGN.md section 15:
 * write-through register homes, budget charged per straight-line run,
 * section 5.4 load speculation and deopt side-exits).  Each opcode is
 * lowered once; the modes differ only in a few hooks — operand read
 * and def, budget charge, cold exit, and the reload after a helper.
 *
 * Baseline design (see DESIGN.md section 11 for the full story):
 *
 *  - Slot-resident baseline: every IR value lives at [rbx + id*8] in
 *    the frame's slot array; no value is cached in a register across
 *    record boundaries.  That makes *every* record boundary a safe
 *    re-entry point, which is what lets the SIGSEGV handler resume
 *    execution at the next record after a null-access trap without any
 *    state reconstruction.
 *  - Register convention: rbx = Slot*, r12 = NativeContext*, r13 =
 *    heap host bias (host address of simulated address 0); rax, rcx,
 *    rdx and xmm0/xmm1 are per-record scratch.
 *  - Every record starts with the instruction-budget preamble
 *    (dec r14; js <budget stub>), kNativeBudgetPreambleBytes
 *    long.  An *implicit null check compiles to exactly those bytes
 *    and nothing else* — the check itself is zero instructions; the
 *    following memory access faults on the heap guard page instead.
 *    Explicit checks compile to test+jz (kNativeExplicitNullCheckBytes
 *    of hot-path compare-and-branch, asserted against
 *    codegen/check_bytes.h on every emission).
 *  - Memory accesses record a TrapSite covering the single faulting
 *    instruction; the SIGSEGV path maps the fault PC back to the
 *    record (codegen/native/native_runtime.h).
 *  - Java-level exceptions dispatch through one shared stub that calls
 *    trapjitNativeFindHandler and indirect-jumps through an in-buffer
 *    table of absolute record addresses.
 *
 * Functions containing anything the tier cannot lower (none on
 * x86-64/Linux today, every srcOp is covered — but the set is checked,
 * and non-x86-64 hosts reject everything) compile to "unsupported" and
 * execute on the fast interpreter instead (NativeEngine's per-function
 * fallback).
 */

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/native/code_buffer.h"
#include "interp/decoded_program.h"
#include "ir/function.h"
#include "support/hash.h"

namespace trapjit
{

struct NativeContext;

/** dec r14; js <stub> — every record's budget preamble. */
constexpr size_t kNativeBudgetPreambleBytes = 9;

/** Fault-PC map entry: one guarded memory-access instruction. */
struct NativeTrapSite
{
    uint32_t accessBegin = 0; ///< code offset of the faulting insn
    uint32_t accessEnd = 0;
    uint32_t recordIndex = 0; ///< DecodedFunction::code index
    uint32_t resumeNext = 0;  ///< code offset of the next record
    /**
     * Index into NativeCode::deopts, or -1 in the baseline backend.
     * Optimized-backend traps never resume in native code; the SIGSEGV
     * handler ends the frame with a deopt to the fast interpreter at
     * the record named by the deopt info instead.
     */
    int32_t deoptIndex = -1;
};

/**
 * Deopt metadata of one optimized-backend trap site: where the fast
 * interpreter picks the frame up, and how to reconstruct the
 * interpreter's budget from the register-resident r14 value the trap
 * captured (the optimized backend pre-charges whole straight-line runs,
 * so at a trap r14 has already paid for records the interpreter has
 * yet to re-charge; see DESIGN.md section 15).
 */
struct NativeDeoptInfo
{
    /** Record the interpreter re-executes (the speculated access's
     *  guarding NullCheck for speculated sites, the faulting record
     *  itself otherwise). */
    uint32_t deoptRecord = 0;
    /** Records pre-charged at/after @p deoptRecord in its budget run:
     *  budget at deopt = trapped r14 + budgetAdjust. */
    uint32_t budgetAdjust = 0;
    /** True when the access ran *above* its guarding explicit
     *  NullCheck (the paper's section 5.4 speculation). */
    bool speculated = false;
};

/** Register home of one IR value in an optimized-backend function. */
struct NativeRegLoc
{
    uint32_t value = 0; ///< DecodedFunction value id
    uint8_t reg = 0;    ///< X64Reg hardware encoding
};

/**
 * One patchable call displacement in a tiered block.  The rel32 field
 * at @p rel32Offset is 4-byte aligned (the compiler NOP-pads to make
 * it so) and initially resolves to the per-site slow stub at
 * @p stubOffset; the code registry retargets it with a single aligned
 * 32-bit release store when @p callee publishes, and back again on
 * invalidation.  Both targets are valid at every instant.
 */
struct NativeCallSlot
{
    uint32_t rel32Offset = 0; ///< offset of the 4-byte displacement
    uint32_t stubOffset = 0;  ///< the slow stub this site falls back to
    FunctionId callee = kNoFunction; ///< kNoFunction = never patched
};

/** Compiled form of one function. */
struct NativeCode
{
    /**
     * Entry protocol of every lowering: (ctx, frameBase, heapHostBase).
     * Returns 0 when the frame returned (value in ctx->retBits), 1 when
     * it unwound (pending exception in ctx, or ctx->hardFault set);
     * optimized code also returns the deopt statuses 2 and 3 (see
     * NativeEngine::invokeFrame).  A trap never re-enters through the
     * entry: the SIGSEGV handler resumes the frame in place, or leaves
     * it through exitOffset (native_runtime.h).
     */
    using EntryFn = uint32_t (*)(NativeContext *, void *, uint8_t *);

    CodeBuffer buffer;
    size_t codeSize = 0; ///< instruction bytes (table excluded)
    std::vector<uint32_t> recordOffsets; ///< per record, + end sentinel
    std::vector<NativeTrapSite> sites;   ///< sorted by accessBegin

    // ---- optimized-backend extras (empty/zero in baseline) ----------
    /** Compiled by the optimized (regalloc + speculation) backend. */
    bool optimized = false;
    /** Deopt records, indexed by NativeTrapSite::deoptIndex and by the
     *  in-code deopt stubs (via NativeContext::deoptRecord). */
    std::vector<NativeDeoptInfo> deopts;
    /** Register homes assigned by linear scan (audited; the write-
     *  through discipline keeps slots canonical regardless). */
    std::vector<NativeRegLoc> regLocs;
    size_t loadsSpeculated = 0; ///< section 5.4 hoisted loads
    size_t spillsEmitted = 0;   ///< ranked values left slot-resident
    size_t regsAllocated = 0;   ///< values given register homes

    /**
     * Code offset of the frame's exit, where the status is in eax: the
     * SIGSEGV handler sets eax and rewrites RIP here when a trap ends
     * the frame.
     */
    uint32_t exitOffset = 0;

    // ---- tiered-mode extras (empty/zero in classic mode) ------------
    bool tiered = false;
    /** Static-call sites the registry may link/unlink. */
    std::vector<NativeCallSlot> callSlots;

    // Check-size accounting, asserted against codegen/check_bytes.h.
    size_t explicitNullCheckBytes = 0;
    size_t implicitNullCheckBytes = 0;
    size_t boundCheckBytes = 0;
    size_t explicitChecksCompiled = 0;
    size_t implicitChecksCompiled = 0;
    /**
     * Checked accesses whose null + bound checks were dropped entirely
     * because an earlier access of the same (ref, index) pair provably
     * re-executes first on every path (Section 4's elimination, applied
     * at the quad level).  Zero bytes in both check flavors.
     */
    size_t checksEliminated = 0;

    explicit NativeCode(CodeBuffer buf) : buffer(std::move(buf)) {}

    /** Returns the buffer to the global CodeBufferPool.  Callers only
     *  destroy a NativeCode once no thread can still execute it (the
     *  registry graveyard enforces that for tiered blocks). */
    ~NativeCode();

    NativeCode(const NativeCode &) = delete;
    NativeCode &operator=(const NativeCode &) = delete;

    EntryFn
    entry() const
    {
        return reinterpret_cast<EntryFn>(buffer.base());
    }

    /** Site whose [accessBegin, accessEnd) contains @p off, or null. */
    const NativeTrapSite *findSite(uint32_t off) const;
};

/** Knobs that change the emitted code (part of the cache key). */
struct NativeCompileOptions
{
    /** Emit event-trace recording after heap stores. */
    bool recordTrace = true;
    /**
     * Tiered lowering: a self-contained frame setup (depth check,
     * frame claimed from the pool top), pool-staged call arguments and
     * patchable rel32 call slots (see DESIGN.md section 14).  Tiered
     * blocks bake the DecodedFunction address into the code, so they
     * must never go into the content-addressed NativeCodeCache — the
     * code registry owns them together with a keepalive of the decoded
     * function.
     */
    bool tiered = false;
    /**
     * Optimized backend: linear-scan register allocation over the
     * callee-saved + caller-saved GPR file, batched budget runs, and
     * deopt side-exits instead of in-code exception dispatch (see
     * DESIGN.md section 15).  Mutually exclusive with @p tiered.
     */
    bool optimized = false;
    /** Hoist loads above their guarding explicit null checks (section
     *  5.4).  Only read when @p optimized is set. */
    bool speculate = true;
};

/** What compiling one function produced. */
struct NativeCompileResult
{
    std::shared_ptr<const NativeCode> code; ///< null when unsupported
    std::string unsupportedReason;          ///< why, when null
};

/**
 * Lower @p df (the decoded form of @p fn) to machine code.  Never
 * throws for unsupported input — it reports the reason so the engine
 * can fall back per function.
 */
NativeCompileResult compileNative(const Function &fn,
                                  const DecodedFunction &df,
                                  const NativeCompileOptions &options);

/** True when this build can execute natively compiled code at all. */
constexpr bool
nativeTierSupported()
{
#if defined(__x86_64__) && defined(__linux__)
    return true;
#else
    return false;
#endif
}

/**
 * Content address of the native code of @p fn: the decoded-program key
 * (which already covers the serialized function, target and fusion
 * flag) extended with the native compile options.  Equal keys imply
 * bit-identical machine code up to load addresses.
 */
Hash128 nativeCodeKey(const Function &fn, const Target &target,
                      const DecodeOptions &decode_options,
                      const NativeCompileOptions &native_options);

/**
 * Thread-safe content-addressed store of compiled native code, shared
 * between the compile service (pre-compilation) and engines.  First
 * writer wins.  A lookup miss after an insert of an *unsupported*
 * function is recorded too, so callers don't recompile known-bad
 * functions: unsupported entries store a null code pointer.
 */
class NativeCodeCache
{
  public:
    struct Entry
    {
        std::shared_ptr<const NativeCode> code; ///< null = unsupported
        std::string unsupportedReason;
    };

    /** Returns nullptr when the key was never inserted. */
    std::shared_ptr<const Entry>
    lookup(const Hash128 &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        return it == entries_.end() ? nullptr : it->second;
    }

    std::shared_ptr<const Entry>
    insert(const Hash128 &key, NativeCompileResult result)
    {
        auto entry = std::make_shared<Entry>(
            Entry{std::move(result.code),
                  std::move(result.unsupportedReason)});
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = entries_.emplace(key, std::move(entry));
        return it->second;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
    }

  private:
    mutable std::mutex mutex_;
    std::unordered_map<Hash128, std::shared_ptr<const Entry>,
                       Hash128Hasher>
        entries_;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_NATIVE_COMPILER_H_
