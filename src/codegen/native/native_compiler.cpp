#include "codegen/native/native_compiler.h"

#include <algorithm>
#include <cstring>

#include "codegen/check_bytes.h"
#include "codegen/native/code_buffer_pool.h"
#include "codegen/native/native_mutation_hooks.h"
#include "codegen/native/native_runtime.h"
#include "codegen/native/x64_emitter.h"
#include "ir/layout.h"
#include "runtime/heap.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

using R = X64Reg;
using CC = X64Cond;
using Alu = X64Emitter::Alu;

/**
 * Cold side-exit of one record.  Baseline code raises @c kind through
 * the in-code dispatch; optimized code deopts (status 2) and the fast
 * interpreter replays @c record, which it has not yet retired.
 */
struct ExitStub
{
    int label;
    uint32_t record;
    ExcKind kind;    ///< baseline: the exception raised
    uint32_t refund; ///< optimized: pre-charged records at/after `record`
};

/** Cold path of a helper's nonzero status; the helper retired `record`. */
struct StatusStub
{
    int label;
    uint32_t record;
    uint32_t refund; ///< optimized: pre-charged records after `record`
};

/**
 * Ops eligible for integer-chain fusion: pure two-address ALU records
 * whose result can stay live in rax for the next record.  Shifts are
 * excluded (they need the count in cl, which would clobber the
 * accumulator protocol), as is everything that can raise.
 */
bool
isIntChainOp(Opcode op)
{
    switch (op) {
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMul:
      case Opcode::IAnd:
      case Opcode::IOr:
      case Opcode::IXor:
      case Opcode::INeg:
        return true;
      default:
        return false;
    }
}

bool
isCommutativeAlu(Opcode op)
{
    switch (op) {
      case Opcode::IAdd:
      case Opcode::IMul:
      case Opcode::IAnd:
      case Opcode::IOr:
      case Opcode::IXor:
        return true;
      default:
        return false;
    }
}

/** Condition after swapping the compare's operands (a<b ⟺ b>a). */
X64Cond
swapIcmpCond(X64Cond cond)
{
    switch (cond) {
      case CC::L: return CC::G;
      case CC::G: return CC::L;
      case CC::LE: return CC::GE;
      case CC::GE: return CC::LE;
      default: return cond; // E / NE are symmetric
    }
}

/**
 * Ops with no side effect beyond their destination slot: when the
 * destination is never read, the whole body can be elided — only the
 * budget accounting remains, because the interpreters still retire the
 * instruction.  Anything that can raise, fault, allocate, touch the
 * heap or the trace stays.
 */
bool
isPureOp(Opcode op)
{
    switch (op) {
      case Opcode::ConstInt:
      case Opcode::ConstFloat:
      case Opcode::ConstNull:
      case Opcode::Move:
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMul:
      case Opcode::INeg:
      case Opcode::IAnd:
      case Opcode::IOr:
      case Opcode::IXor:
      case Opcode::IShl:
      case Opcode::IShr:
      case Opcode::IUshr:
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FNeg:
      case Opcode::FExp:
      case Opcode::FSqrt:
      case Opcode::FSin:
      case Opcode::FCos:
      case Opcode::FAbs:
      case Opcode::FLog:
      case Opcode::I2F:
      case Opcode::F2I:
      case Opcode::I2L:
      case Opcode::L2I:
      case Opcode::ICmp:
      case Opcode::FCmp:
        return true;
      default:
        return false;
    }
}

/**
 * "" when every record of @p df has a lowering, else why not.  Every
 * srcOp the decoder produces is lowerable today; the scan stays so a
 * future opcode degrades to the interpreter fallback, never to
 * miscompilation.
 */
std::string
unsupportedOpcodeReason(const DecodedFunction &df)
{
    for (const DecodedInst &rec : df.code) {
        switch (rec.srcOp) {
          case Opcode::ConstInt:
          case Opcode::ConstFloat:
          case Opcode::ConstNull:
          case Opcode::Move:
          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IMul:
          case Opcode::IDiv:
          case Opcode::IRem:
          case Opcode::INeg:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
          case Opcode::IShl:
          case Opcode::IShr:
          case Opcode::IUshr:
          case Opcode::FAdd:
          case Opcode::FSub:
          case Opcode::FMul:
          case Opcode::FDiv:
          case Opcode::FNeg:
          case Opcode::FExp:
          case Opcode::FSqrt:
          case Opcode::FSin:
          case Opcode::FCos:
          case Opcode::FAbs:
          case Opcode::FLog:
          case Opcode::I2F:
          case Opcode::F2I:
          case Opcode::I2L:
          case Opcode::L2I:
          case Opcode::ICmp:
          case Opcode::FCmp:
          case Opcode::NullCheck:
          case Opcode::BoundCheck:
          case Opcode::GetField:
          case Opcode::PutField:
          case Opcode::ArrayLength:
          case Opcode::ArrayLoad:
          case Opcode::ArrayStore:
          case Opcode::NewObject:
          case Opcode::NewArray:
          case Opcode::Call:
          case Opcode::Jump:
          case Opcode::Branch:
          case Opcode::IfNull:
          case Opcode::Return:
          case Opcode::Throw:
          case Opcode::Nop:
            break;
          default:
            return std::string("unsupported opcode ") +
                   opcodeName(rec.srcOp);
        }
    }
    return "";
}

/** The signed condition code of integer compare predicate @p pred. */
X64Cond
icmpCond(CmpPred pred)
{
    switch (pred) {
      case CmpPred::EQ: return CC::E;
      case CmpPred::NE: return CC::NE;
      case CmpPred::LT: return CC::L;
      case CmpPred::LE: return CC::LE;
      case CmpPred::GT: return CC::G;
      case CmpPred::GE: return CC::GE;
    }
    TRAPJIT_PANIC("bad predicate");
}

/** The absolute address JIT code calls helper @p fn at. */
uint64_t
helperAddr(uint32_t (*fn)(NativeContext *, uint32_t))
{
    return reinterpret_cast<uint64_t>(fn);
}

/** Defs the SSE path writes straight to the slot, bypassing any home. */
bool
isSlotOnlyDefOp(Opcode op)
{
    switch (op) {
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FNeg:
      case Opcode::FAbs:
      case Opcode::FSqrt:
      case Opcode::I2F:
        return true;
      default:
        return false;
    }
}

/** Records lowered through a C helper call (clobbers caller-saved). */
bool
isHelperOp(Opcode op, bool recordTrace)
{
    switch (op) {
      case Opcode::FExp:
      case Opcode::FSin:
      case Opcode::FCos:
      case Opcode::FLog:
      case Opcode::F2I:
      case Opcode::NewObject:
      case Opcode::NewArray:
      case Opcode::Call:
        return true;
      case Opcode::PutField:
      case Opcode::ArrayStore:
        return recordTrace;
      default:
        return false;
    }
}

/** Records after which a budget run must end (control leaves). */
bool
isRunTerminator(Opcode op)
{
    switch (op) {
      case Opcode::Jump:
      case Opcode::Branch:
      case Opcode::IfNull:
      case Opcode::Return:
      case Opcode::Throw:
        return true;
      default:
        return false;
    }
}

bool
isCallerSavedHome(R r)
{
    switch (r) {
      case R::RSI:
      case R::RDI:
      case R::R8:
      case R::R9:
      case R::R10:
      case R::R11:
        return true;
      default:
        return false;
    }
}

/**
 * Optimized mode's budget runs: runEnd[i] is one past the last record
 * of the run holding record i.  A run is a maximal straight-line span:
 * it breaks at jump targets (an entering edge must not pay for records
 * before it) and after terminators.  Call is a singleton run because
 * its helper reads ctx->budgetRemaining to hand the callee the live
 * global budget — a mid-run pre-charge would under-report it.  The
 * other helpers (alloc / libm / trace) never read the budget, so they
 * batch fine.
 */
std::vector<uint32_t>
partitionBudgetRuns(const DecodedFunction &df,
                    const std::vector<bool> &jumpTarget)
{
    const size_t nrec = df.code.size();
    std::vector<uint32_t> runEnd(nrec, 0);
    size_t s = 0;
    while (s < nrec) {
        size_t t = s + 1;
        if (df.code[s].srcOp != Opcode::Call) {
            while (t < nrec && !jumpTarget[t] &&
                   df.code[t].srcOp != Opcode::Call &&
                   !isRunTerminator(df.code[t - 1].srcOp))
                ++t;
        }
        for (size_t k = s; k < t; ++k)
            runEnd[k] = static_cast<uint32_t>(t);
        s = t;
    }
    return runEnd;
}

/**
 * Section 5.4 speculation pairing: an explicit NullCheck whose guarded
 * load follows immediately (and nothing jumps between them) is elided;
 * the load runs first and *is* the check.  Coverability mirrors the
 * decoder's trap model: ArrayLength reads a small fixed offset,
 * GetField must stay inside the guard region for a null base.  The
 * result names, per record, the elided check of the speculated access
 * there, or -1.
 */
std::vector<int32_t>
pairSpeculatedLoads(const DecodedFunction &df,
                    const std::vector<bool> &jumpTarget)
{
    const size_t nrec = df.code.size();
    std::vector<int32_t> specCheck(nrec, -1);
    for (size_t i = 0; i + 1 < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        if (rec.srcOp != Opcode::NullCheck ||
            rec.flavor != CheckFlavor::Explicit || jumpTarget[i + 1])
            continue;
        const DecodedInst &ax = df.code[i + 1];
        bool coverable = false;
        if (ax.srcOp == Opcode::ArrayLength && ax.a == rec.a)
            coverable = true;
        else if (ax.srcOp == Opcode::GetField && ax.a == rec.a &&
                 ax.imm >= 0 &&
                 ax.imm + 8 <= static_cast<int64_t>(kHeapBase))
            coverable = true;
        if (coverable)
            specCheck[i + 1] = static_cast<int32_t>(i);
    }
    return specCheck;
}

/** Optimized mode's register homes (home[v] = X64Reg, or -1). */
struct RegHomes
{
    std::vector<int8_t> home;
    std::vector<NativeRegLoc> locs;
    size_t spills = 0;
};

/**
 * Linear scan over the decoded records.  Candidates are values with at
 * least one GPR-path use whose every def goes through the accumulator
 * (the SSE ops store slots directly and would leave a home stale).
 * Live intervals are the textual hull of all occurrences, widened to
 * enclose any loop whose back edge they overlap; they only steer
 * *preference* — a value crossing a helper call wants a callee-saved
 * home so the C call doesn't force a reload.
 */
RegHomes
allocateRegHomes(const DecodedFunction &df, bool recordTrace)
{
    const size_t nrec = df.code.size();
    std::vector<uint32_t> gprUses(df.numValues, 0);
    auto addGprUse = [&](ValueId v) {
        if (v != kNoValue)
            ++gprUses[v];
    };
    for (const DecodedInst &rec : df.code) {
        switch (rec.srcOp) {
          case Opcode::Move:
          case Opcode::INeg:
          case Opcode::I2L:
          case Opcode::L2I:
          case Opcode::NullCheck:
          case Opcode::GetField:
          case Opcode::ArrayLength:
          case Opcode::Branch:
          case Opcode::IfNull:
          case Opcode::Return:
            addGprUse(rec.a);
            break;
          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IMul:
          case Opcode::IDiv:
          case Opcode::IRem:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
          case Opcode::IShl:
          case Opcode::IShr:
          case Opcode::IUshr:
          case Opcode::ICmp:
          case Opcode::BoundCheck:
          case Opcode::PutField:
          case Opcode::ArrayLoad:
            addGprUse(rec.a);
            addGprUse(rec.b);
            break;
          case Opcode::ArrayStore:
            addGprUse(rec.a);
            addGprUse(rec.b);
            addGprUse(rec.c);
            break;
          default:
            break;
        }
    }
    std::vector<bool> slotOnlyDef(df.numValues, false);
    for (const DecodedInst &rec : df.code)
        if (rec.dst != kNoValue && isSlotOnlyDefOp(rec.srcOp))
            slotOnlyDef[rec.dst] = true;

    constexpr uint32_t kNoPos = ~0u;
    std::vector<uint32_t> liveLo(df.numValues, kNoPos);
    std::vector<uint32_t> liveHi(df.numValues, 0);
    auto occur = [&](ValueId v, uint32_t at) {
        if (v == kNoValue)
            return;
        liveLo[v] = std::min(liveLo[v], at);
        liveHi[v] = std::max(liveHi[v], at);
    };
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        uint32_t at = static_cast<uint32_t>(i);
        occur(rec.dst, at);
        occur(rec.a, at);
        occur(rec.b, at);
        occur(rec.c, at);
        for (uint32_t k = 0; k < rec.argsCount; ++k)
            occur(df.argPool[rec.argsBegin + k], at);
    }
    // Parameters are live from entry.
    for (uint32_t p = 0; p < df.numParams; ++p)
        if (liveLo[p] != kNoPos)
            liveLo[p] = 0;
    // Back-edge widening to a fixed point: a value live anywhere in a
    // loop body is live across the whole loop.
    std::vector<std::pair<uint32_t, uint32_t>> backEdges;
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        uint32_t at = static_cast<uint32_t>(i);
        if (rec.srcOp == Opcode::Jump) {
            if (rec.target <= at)
                backEdges.emplace_back(rec.target, at);
        } else if (rec.srcOp == Opcode::Branch ||
                   rec.srcOp == Opcode::IfNull) {
            if (rec.target <= at)
                backEdges.emplace_back(rec.target, at);
            if (rec.target2 <= at)
                backEdges.emplace_back(rec.target2, at);
        }
    }
    bool changed = !backEdges.empty();
    while (changed) {
        changed = false;
        for (ValueId v = 0; v < df.numValues; ++v) {
            if (liveLo[v] == kNoPos)
                continue;
            for (const auto &be : backEdges) {
                if (liveLo[v] <= be.second && liveHi[v] >= be.first) {
                    if (liveLo[v] > be.first) {
                        liveLo[v] = be.first;
                        changed = true;
                    }
                    if (liveHi[v] < be.second) {
                        liveHi[v] = be.second;
                        changed = true;
                    }
                }
            }
        }
    }
    std::vector<uint32_t> helperPrefix(nrec + 1, 0);
    for (size_t i = 0; i < nrec; ++i)
        helperPrefix[i + 1] =
            helperPrefix[i] +
            (isHelperOp(df.code[i].srcOp, recordTrace) ? 1 : 0);
    auto spansHelper = [&](ValueId v) {
        return liveLo[v] != kNoPos &&
               helperPrefix[liveHi[v] + 1] > helperPrefix[liveLo[v]];
    };

    struct Cand
    {
        ValueId v;
        uint32_t uses;
        bool spans;
    };
    std::vector<Cand> cands;
    for (ValueId v = 0; v < df.numValues; ++v)
        if (gprUses[v] > 0 && !slotOnlyDef[v])
            cands.push_back(Cand{v, gprUses[v], spansHelper(v)});
    std::sort(cands.begin(), cands.end(),
              [](const Cand &a, const Cand &b) {
                  return a.uses != b.uses ? a.uses > b.uses : a.v < b.v;
              });

    // Callee-saved homes survive helper calls; caller-saved homes are
    // cheaper to spare but reload after every helper.  rbx/r12/r13/r14
    // are pinned, rax/rcx/rdx are per-record scratch; that leaves 8.
    std::vector<R> calleePool = {R::R15, R::RBP};
    std::vector<R> callerPool = {R::R11, R::R10, R::R9, R::R8,
                                 R::RDI, R::RSI};
    RegHomes out;
    out.home.assign(df.numValues, -1);
    for (const Cand &c : cands) {
        std::vector<R> *first = c.spans ? &calleePool : &callerPool;
        std::vector<R> *second = c.spans ? &callerPool : &calleePool;
        std::vector<R> *pool =
            !first->empty() ? first : (!second->empty() ? second : nullptr);
        if (pool == nullptr) {
            ++out.spills;
            continue;
        }
        R reg = pool->back();
        pool->pop_back();
        out.home[c.v] = static_cast<int8_t>(reg);
        out.locs.push_back(NativeRegLoc{c.v, static_cast<uint8_t>(reg)});
    }
    return out;
}

} // namespace

NativeCode::~NativeCode()
{
    globalCodeBufferPool().release(std::move(buffer));
}

const NativeTrapSite *
NativeCode::findSite(uint32_t off) const
{
    auto it = std::upper_bound(
        sites.begin(), sites.end(), off,
        [](uint32_t o, const NativeTrapSite &s) {
            return o < s.accessBegin;
        });
    if (it == sites.begin())
        return nullptr;
    --it;
    return (off >= it->accessBegin && off < it->accessEnd) ? &*it
                                                           : nullptr;
}

Hash128
nativeCodeKey(const Function &fn, const Target &target,
              const DecodeOptions &decode_options,
              const NativeCompileOptions &native_options)
{
    Hash128 base = decodedProgramKey(fn, target, decode_options);
    Hasher h;
    h.update(std::string_view("native-code-v1"));
    h.update(base.hi);
    h.update(base.lo);
    h.update(static_cast<uint64_t>(native_options.recordTrace ? 1 : 0));
    h.update(static_cast<uint64_t>(native_options.tiered ? 1 : 0));
    h.update(static_cast<uint64_t>(native_options.optimized ? 1 : 0));
    h.update(static_cast<uint64_t>(
        native_options.optimized && native_options.speculate ? 1 : 0));
    return h.digest();
}

NativeCompileResult
compileNative(const Function &fn, const DecodedFunction &df,
              const NativeCompileOptions &options)
{
    (void)fn; // identity lives in the cache key; codegen is decode-only
    NativeCompileResult out;
    if (!nativeTierSupported()) {
        out.unsupportedReason = "native tier requires x86-64 Linux";
        return out;
    }
    const bool optimized = options.optimized;
    // The decoded function's address is baked into tiered code, so
    // tiered blocks must never enter the content-addressed
    // NativeCodeCache — the code registry keeps df alive alongside the
    // block.
    const bool tiered = options.tiered;
    if (optimized && tiered) {
        out.unsupportedReason = "optimized backend has no tiered mode";
        return out;
    }

    out.unsupportedReason = unsupportedOpcodeReason(df);
    if (!out.unsupportedReason.empty())
        return out;

    const size_t nrec = df.code.size();

    // A destination no record ever reads lets a pure record shrink to
    // its preamble.  Deadness comes from the decoded stream itself (one
    // scan over every operand and call-argument slot), not from the IR
    // liveness analysis: the latter walks the CFG, which is only
    // current after a pipeline ran, and the native tier also compiles
    // freshly built, never-optimized modules.
    std::vector<uint32_t> useCount(df.numValues, 0);
    auto markUse = [&](ValueId v) {
        if (v != kNoValue)
            ++useCount[v];
    };
    for (const DecodedInst &rec : df.code) {
        markUse(rec.a);
        markUse(rec.b);
        markUse(rec.c);
        for (uint32_t k = 0; k < rec.argsCount; ++k)
            markUse(df.argPool[rec.argsBegin + k]);
    }

    // Records that control flow can enter other than by fall-through
    // from the predecessor record.  A compare whose sole consumer is
    // the branch right after it fuses into jcc only when nothing can
    // enter at the branch (the flags would be stale there).
    std::vector<bool> jumpTarget(nrec, false);
    for (const DecodedInst &rec : df.code) {
        if (rec.srcOp == Opcode::Jump) {
            jumpTarget[rec.target] = true;
        } else if (rec.srcOp == Opcode::Branch ||
                   rec.srcOp == Opcode::IfNull) {
            jumpTarget[rec.target] = true;
            jumpTarget[rec.target2] = true;
        }
    }
    for (const DecodedTryRegion &r : df.tryRegions)
        if (r.handlerIndex < jumpTarget.size())
            jumpTarget[r.handlerIndex] = true;

    // ---- baseline-only analyses ------------------------------------------
    // Constant folding and quad fusion both let a record skip its slot
    // write (a folded ConstInt, an ArrayLength the quad keeps in a
    // register).  Optimized code deopts by re-entering the fast
    // interpreter with the slot file as it stands, so there every slot
    // must be canonical at every record boundary (DESIGN.md section
    // 15): the analyses feeding them stay empty in optimized mode.
    //
    // Single-def integer constants (the builder's mutable locals are
    // multi-def and excluded).  A use may read the constant as an
    // immediate only when no jump entry point lies strictly between
    // the defining ConstInt and the use — the def then executes on
    // every path reaching the use.
    std::vector<int32_t> constRec(df.numValues, -1);
    std::vector<uint8_t> defCount(df.numValues, 0);
    std::vector<uint32_t> entryPrefix(nrec + 1, 0);
    if (!optimized) {
        for (size_t i = 0; i < nrec; ++i) {
            const DecodedInst &r = df.code[i];
            if (r.dst == kNoValue)
                continue;
            if (defCount[r.dst] < 2)
                ++defCount[r.dst];
            if (r.srcOp == Opcode::ConstInt && defCount[r.dst] == 1)
                constRec[r.dst] = static_cast<int32_t>(i);
        }
        for (size_t i = 0; i < nrec; ++i)
            entryPrefix[i + 1] = entryPrefix[i] + (jumpTarget[i] ? 1 : 0);
    }
    auto constAt = [&](ValueId v, size_t use) -> const DecodedInst * {
        if (v == kNoValue || defCount[v] != 1 || constRec[v] < 0)
            return nullptr;
        size_t d = static_cast<size_t>(constRec[v]);
        if (d >= use || entryPrefix[use + 1] != entryPrefix[d + 1])
            return nullptr;
        return &df.code[d];
    };
    auto constValOf = [](const DecodedInst &c) -> int64_t {
        return (c.flags & kDecodedNarrowDst) != 0
                   ? static_cast<int32_t>(c.imm)
                   : c.imm;
    };
    auto fitsI32 = [](int64_t v) {
        return v == static_cast<int64_t>(static_cast<int32_t>(v));
    };
    // The slot operand that record `u` reads as an immediate instead,
    // or kNoValue.  The emission paths and the ConstInt elision
    // pre-pass must agree exactly, so both go through this predicate.
    auto foldedOperand = [&](const DecodedInst &r, size_t u) -> ValueId {
        const bool nar = (r.flags & kDecodedNarrowDst) != 0;
        const DecodedInst *c;
        switch (r.srcOp) {
          case Opcode::IAdd:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
            if ((c = constAt(r.b, u)) != nullptr &&
                (nar || fitsI32(constValOf(*c))))
                return r.b;
            if ((c = constAt(r.a, u)) != nullptr &&
                (nar || fitsI32(constValOf(*c))))
                return r.a; // commutative: swap the operands
            return kNoValue;
          case Opcode::ISub:
            if ((c = constAt(r.b, u)) != nullptr &&
                (nar || fitsI32(constValOf(*c))))
                return r.b;
            return kNoValue;
          case Opcode::ICmp: // compares are always 64-bit
            if ((c = constAt(r.b, u)) != nullptr &&
                fitsI32(constValOf(*c)))
                return r.b;
            if ((c = constAt(r.a, u)) != nullptr &&
                fitsI32(constValOf(*c)))
                return r.a; // swap: the predicate mirrors
            return kNoValue;
          case Opcode::Move:
            return constAt(r.a, u) != nullptr ? r.a : kNoValue;
          default:
            return kNoValue;
        }
    };
    std::vector<uint32_t> foldedUses(df.numValues, 0);
    if (!optimized) {
        for (size_t i = 0; i < nrec; ++i) {
            ValueId v = foldedOperand(df.code[i], i);
            if (v != kNoValue)
                ++foldedUses[v];
        }
    }

    // Redundant re-check scan (the paper's Section 4 elimination at
    // the quad level): a checked access of (ref, idx) makes that pair
    // "available"; a later quad on the same pair that every path
    // provably reaches straight-line from the first — no jump targets
    // in between, only pure records or other checked quads, and
    // nothing rewriting the ref or idx slots — cannot fail its null or
    // bound checks and drops all three.  Conservatism rules: any jump
    // target, any op outside the allowed set, or a jump target inside
    // a quad's tail clears the whole available set.
    auto isAccessQuadAt = [&](size_t k) {
        if (k + 4 >= nrec)
            return false;
        const DecodedInst &nc = df.code[k];
        const DecodedInst &al = df.code[k + 1];
        const DecodedInst &bc = df.code[k + 2];
        const DecodedInst &ax = df.code[k + 3];
        return nc.srcOp == Opcode::NullCheck &&
               al.srcOp == Opcode::ArrayLength && al.a == nc.a &&
               al.dst != kNoValue && bc.srcOp == Opcode::BoundCheck &&
               bc.b == al.dst && bc.a != kNoValue &&
               (ax.srcOp == Opcode::ArrayLoad ||
                ax.srcOp == Opcode::ArrayStore) &&
               ax.a == nc.a && ax.b == bc.a;
    };
    std::vector<bool> redundantQuad(nrec, false);
    if (!optimized) {
        std::vector<std::pair<ValueId, ValueId>> avail;
        auto invalidateWrite = [&](ValueId dst) {
            if (dst == kNoValue)
                return;
            for (size_t n = avail.size(); n-- > 0;)
                if (avail[n].first == dst || avail[n].second == dst)
                    avail.erase(avail.begin() + static_cast<long>(n));
        };
        for (size_t k = 0; k < nrec; ++k) {
            if (jumpTarget[k])
                avail.clear();
            if (isAccessQuadAt(k)) {
                const ValueId ref = df.code[k].a;
                const ValueId idx = df.code[k + 2].a;
                for (const auto &p : avail)
                    if (p.first == ref && p.second == idx) {
                        redundantQuad[k] = true;
                        break;
                    }
                invalidateWrite(df.code[k + 1].dst);
                invalidateWrite(df.code[k + 3].dst);
                if (jumpTarget[k + 1] || jumpTarget[k + 2] ||
                    jumpTarget[k + 3]) {
                    // A mid-quad entry skips the leading checks; the
                    // pair is not proven on that path.
                    avail.clear();
                } else if (!redundantQuad[k] &&
                           df.code[k + 1].dst != ref &&
                           df.code[k + 1].dst != idx &&
                           df.code[k + 3].dst != ref &&
                           df.code[k + 3].dst != idx) {
                    avail.emplace_back(ref, idx);
                }
                k += 3;
                continue;
            }
            const DecodedInst &rec = df.code[k];
            if (isPureOp(rec.srcOp))
                invalidateWrite(rec.dst);
            else
                avail.clear();
        }
    }
    size_t eliminatedCount = 0;

    // ---- optimized-only analyses -----------------------------------------
    // Budget runs, section 5.4 pairing and register homes (DESIGN.md
    // section 15).  Baseline code charges per record, speculates
    // nothing and keeps every value in its slot.
    std::vector<uint32_t> runEnd;
    std::vector<int32_t> specCheck(nrec, -1);
    RegHomes homes;
    if (optimized) {
        runEnd = partitionBudgetRuns(df, jumpTarget);
        if (options.speculate)
            specCheck = pairSpeculatedLoads(df, jumpTarget);
        homes = allocateRegHomes(df, options.recordTrace);
    } else {
        homes.home.assign(df.numValues, -1);
    }
    const std::vector<int8_t> &home = homes.home;

    X64Emitter e;
    std::vector<int> recLabel(nrec);
    for (size_t i = 0; i < nrec; ++i)
        recLabel[i] = e.newLabel();
    const int lDispatch = e.newLabel();
    const int lBudget = e.newLabel();
    const int lBudgetFused = e.newLabel();
    const int lReturn = e.newLabel();
    const int lUnwind = e.newLabel();
    const int lPop = e.newLabel();

    std::vector<ExitStub> exits;
    std::vector<StatusStub> statuses;
    std::vector<NativeTrapSite> sites;
    std::vector<NativeDeoptInfo> deopts;
    // Tiered call plumbing: one patchable slot and one per-site slow
    // stub per Call record, pushed in lockstep.
    struct TieredCallStub
    {
        int label;
        uint32_t recIndex;
    };
    std::vector<TieredCallStub> callStubs;
    std::vector<NativeCallSlot> callSlots;
    size_t explicitBytes = 0, implicitBytes = 0, boundBytes = 0;
    size_t explicitCount = 0, implicitCount = 0;
    size_t speculatedCount = 0;

    // ---- per-mode hooks ----------------------------------------------------
    // Every record is lowered once for both modes; what differs per mode
    // goes through these hooks.  Values with no register home (every
    // baseline value) are read from and written to their slots, so the
    // same calls emit the baseline's slot code.

    /** Optimized cold exit: a deopt stub replaying record @p i. */
    auto deoptTo = [&](size_t i) {
        int l = e.newLabel();
        exits.push_back(ExitStub{l, static_cast<uint32_t>(i),
                                 ExcKind::None,
                                 runEnd[i] - static_cast<uint32_t>(i)});
        return l;
    };
    /** Cold exit of record @p i: a raise stub, or a deopt replaying i. */
    auto coldExit = [&](ExcKind kind, size_t i) {
        if (optimized)
            return deoptTo(i); // the interpreter replays i and raises
        int l = e.newLabel();
        exits.push_back(ExitStub{l, static_cast<uint32_t>(i), kind, 0});
        return l;
    };
    /** Optimized budget: one charge on entering a straight-line run. */
    auto chargeRun = [&](size_t i) {
        if (!optimized || (i > 0 && runEnd[i - 1] != i))
            return; // baseline, or not the first record of its run
        uint32_t len = runEnd[i] - static_cast<uint32_t>(i);
        if (len == 1)
            e.decReg64(R::R14);
        else
            e.aluRegImm32(Alu::Sub, R::R14, static_cast<int32_t>(len),
                          true);
        e.jccLabel(CC::S, deoptTo(i));
    };
    /**
     * Baseline budget: exact parity with the interpreters' global
     * instruction budget (remaining count lives in r14 and is synced
     * with the context around every helper call).  A fused group of
     * @p n records settles with one sub; the fault stub clamps r14 to
     * -1, so the stats sync reads the same max+1 either way.
     */
    auto chargeRecords = [&](uint32_t n) {
        if (optimized)
            return; // the run's entry already paid
        if (n > 1) {
            e.aluRegImm32(Alu::Sub, R::R14, static_cast<int32_t>(n), true);
            e.jccLabel(CC::S, lBudgetFused);
            return;
        }
        size_t preStart = e.size();
        e.decReg64(R::R14);
        e.jccLabel(CC::S, lBudget);
        TRAPJIT_ASSERT(e.size() - preStart == kNativeBudgetPreambleBytes,
                       "budget preamble size drifted");
    };
    auto callHelper = [&](uint32_t (*helper)(NativeContext *, uint32_t),
                          size_t recIndex) {
        // Helpers run interpreter code that consumes budget, so the
        // register-resident count round-trips through the context.
        e.storeCtx64(kNativeCtxBudgetOffset, R::R14);
        e.movRegReg(R::RDI, R::R12);
        e.movRegImm32(R::RSI, static_cast<uint32_t>(recIndex));
        e.movRegImm64(R::RAX, helperAddr(helper));
        e.callReg(R::RAX);
        e.loadCtx64(R::R14, kNativeCtxBudgetOffset);
    };
    /** Branch to a status stub when the helper status in @p st is set. */
    auto checkStatus = [&](size_t i, R st) {
        int l = e.newLabel();
        uint32_t refund =
            optimized ? runEnd[i] - static_cast<uint32_t>(i) - 1 : 0;
        statuses.push_back(
            StatusStub{l, static_cast<uint32_t>(i), refund});
        e.testRegReg(st, st, false);
        e.jccLabel(CC::NE, l);
    };
    auto hreg = [&](ValueId v) { return static_cast<R>(home[v]); };
    /** After a helper: caller-saved homes and @p dst's home reload. */
    auto afterHelper = [&](ValueId dst) {
        for (const NativeRegLoc &rl : homes.locs)
            if (isCallerSavedHome(static_cast<R>(rl.reg)))
                e.loadSlot(static_cast<R>(rl.reg), rl.value);
        if (dst != kNoValue && home[dst] >= 0 &&
            !isCallerSavedHome(hreg(dst)))
            e.loadSlot(hreg(dst), dst);
    };
    /** Read @p v: its home when it has one, else a load into scratch. */
    auto srcReg = [&](ValueId v, R scratch) -> R {
        if (home[v] >= 0)
            return hreg(v);
        e.loadSlot(scratch, v);
        return scratch;
    };
    /** Load @p v into @p dst unconditionally (dst may be clobbered). */
    auto loadVal = [&](R dst, ValueId v, bool wide) {
        if (home[v] >= 0)
            e.movRegReg(dst, hreg(v));
        else if (wide)
            e.loadSlot(dst, v);
        else
            e.loadSlot32(dst, v);
    };
    /** Load the low 32 bits of @p v sign-extended into @p dst. */
    auto loadValSx32 = [&](R dst, ValueId v) {
        if (home[v] >= 0)
            e.movsxdRegReg(dst, hreg(v));
        else
            e.loadSlotSx32(dst, v);
    };
    /** `op dst, v` with v from its home or its slot. */
    auto aluRegVal = [&](Alu op, R dst, ValueId v, bool wide) {
        if (home[v] >= 0)
            e.aluRegReg(op, dst, hreg(v), wide);
        else
            e.aluRegSlot(op, dst, v, wide);
    };
    /**
     * Write-through def: results are computed in a scratch register
     * (never straight into a home — the home may be a source operand of
     * the same record), copied to the home when one exists and always
     * stored to the slot.  The slot file is canonical everywhere.
     */
    auto defWrite = [&](ValueId v, R res) {
        if (home[v] >= 0 && hreg(v) != res)
            e.movRegReg(hreg(v), res);
        e.storeSlot(v, res);
    };
    auto beginSite = [&] { return static_cast<uint32_t>(e.size()); };
    /**
     * Publish the trap site of the access at record @p i.  An optimized
     * trap deopts: a speculated access replays its elided check, any
     * other access itself.
     */
    auto endSite = [&](uint32_t begin, size_t i) {
        int32_t deoptIndex = -1;
        if (optimized) {
            const bool spec = specCheck[i] >= 0;
            const uint32_t replay = spec
                                        ? static_cast<uint32_t>(specCheck[i])
                                        : static_cast<uint32_t>(i);
            deopts.push_back(
                NativeDeoptInfo{replay, runEnd[i] - replay, spec});
            deoptIndex = static_cast<int32_t>(deopts.size() - 1);
        }
        sites.push_back(NativeTrapSite{
            begin, static_cast<uint32_t>(e.size()),
            static_cast<uint32_t>(i), 0, deoptIndex});
    };
    /** Emit the compare of ICmp record @p rec; returns its jcc. */
    auto emitIcmp = [&](const DecodedInst &rec, size_t i) {
        CC cc = icmpCond(rec.pred);
        ValueId fv = foldedOperand(rec, i);
        if (fv != kNoValue) {
            const bool swap = fv != rec.b; // the predicate mirrors
            e.aluSlotImm32(
                Alu::Cmp, swap ? rec.b : rec.a,
                static_cast<int32_t>(constValOf(df.code[constRec[fv]])),
                true);
            return swap ? swapIcmpCond(cc) : cc;
        }
        aluRegVal(Alu::Cmp, srcReg(rec.a, R::RAX), rec.b, true);
        return cc;
    };

    // ---- prologue ------------------------------------------------------
    // Callee-saved pushes that leave rsp 16-byte aligned at every helper
    // call site.  Baseline code saves five (r15 is alignment padding);
    // optimized code also saves rbp, a register home, plus a pad.
    std::vector<R> saved = {R::RBX, R::R12, R::R13, R::R14, R::R15};
    if (optimized)
        saved = {R::RBX, R::RBP, R::R12, R::R13, R::R14, R::R15, R::RAX};
    for (R r : saved)
        e.pushReg(r);
    e.movRegReg(R::R12, R::RDI); // NativeContext*
    e.movRegReg(R::RBX, R::RSI); // Slot*
    e.movRegReg(R::R13, R::RDX); // heap host bias
    e.loadCtx64(R::R14, kNativeCtxBudgetOffset); // instruction budget
    const int lDepthBail = tiered ? e.newLabel() : -1;
    const int lPoolBail = tiered ? e.newLabel() : -1;
    if (tiered) {
        // Tiered entry: a fully self-contained frame setup (classic
        // frames are set up in C++).  activeDf is published before
        // the depth check so the depth-fault message can name this
        // callee; the slot file is claimed from the engine's frame
        // pool with an overflow check; non-parameter slots are zeroed
        // exactly like execFrame's in-place zero-fill.
        e.storeCtx64(kNativeCtxActiveSlotsOffset, R::RBX);
        e.movRegImm64(R::RAX, reinterpret_cast<uint64_t>(&df));
        e.storeCtx64(kNativeCtxActiveDfOffset, R::RAX);
        e.decCtx64(kNativeCtxDepthRemainingOffset);
        e.jccLabel(CC::S, lDepthBail);
        e.movRegReg(R::RAX, R::RBX);
        e.aluRegImm32(Alu::Add, R::RAX,
                      static_cast<int32_t>(df.numValues * 8), true);
        e.loadCtx64(R::RCX, kNativeCtxPoolEndOffset);
        e.aluRegReg(Alu::Cmp, R::RAX, R::RCX, true);
        e.jccLabel(CC::A, lPoolBail);
        e.storeCtx64(kNativeCtxPoolTopOffset, R::RAX);
        if (df.numValues > df.numParams) {
            e.movRegReg(R::RDI, R::RBX);
            if (df.numParams > 0)
                e.aluRegImm32(Alu::Add, R::RDI,
                              static_cast<int32_t>(df.numParams * 8),
                              true);
            e.movRegImm32(R::RCX, df.numValues - df.numParams);
            e.movRegImm32(R::RAX, 0);
            e.repStosq();
        }
    }
    // Preload every home: the engine zero-fills non-parameter slots, so
    // each home starts canonical without per-value liveness reasoning.
    for (const NativeRegLoc &rl : homes.locs)
        e.loadSlot(static_cast<R>(rl.reg), rl.value);

    // One integer ALU record; the canonical result is left in rax and
    // NOT stored (the caller owns the store).  Wrapping arithmetic: the
    // low 32 bits of the 64-bit op equal the 32-bit op, so narrow
    // records use 32-bit forms and re-canonicalize with movsxd.  When
    // liveVal is not kNoValue that operand is already in rax (the chain
    // accumulator); the chain scan guarantees exactly one operand is
    // the accumulator and swaps only happen on commutative ops.
    auto emitIntAluToRax = [&](const DecodedInst &rec, size_t u,
                               ValueId liveVal) {
        const bool nar = (rec.flags & kDecodedNarrowDst) != 0;
        const bool wid = !nar;
        if (rec.srcOp == Opcode::INeg) {
            if (liveVal == kNoValue)
                loadVal(R::RAX, rec.a, wid);
            e.negReg(R::RAX, wid);
            if (nar)
                e.movsxdRegReg(R::RAX, R::RAX);
            return;
        }
        ValueId fv = foldedOperand(rec, u);
        ValueId lhs, other;
        if (liveVal != kNoValue) {
            lhs = liveVal;
            other = (rec.a == liveVal) ? rec.b : rec.a;
        } else if (fv != kNoValue && fv != rec.b) {
            lhs = rec.b; // commutative: swap the operands
            other = rec.a;
        } else {
            lhs = rec.a;
            other = rec.b;
        }
        if (liveVal == kNoValue)
            loadVal(R::RAX, lhs, wid);
        if (rec.srcOp == Opcode::IMul) {
            if (home[other] >= 0)
                e.imulRegReg(R::RAX, hreg(other), wid);
            else
                e.imulRegSlot(R::RAX, other, wid);
        } else {
            Alu op = Alu::Add;
            switch (rec.srcOp) {
              case Opcode::ISub: op = Alu::Sub; break;
              case Opcode::IAnd: op = Alu::And; break;
              case Opcode::IOr: op = Alu::Or; break;
              case Opcode::IXor: op = Alu::Xor; break;
              default: break;
            }
            if (fv != kNoValue && fv == other)
                e.aluRegImm32(op, R::RAX,
                              static_cast<int32_t>(
                                  constValOf(df.code[constRec[fv]])),
                              wid);
            else
                aluRegVal(op, R::RAX, other, wid);
        }
        if (nar)
            e.movsxdRegReg(R::RAX, R::RAX);
    };

    // ---- records -------------------------------------------------------
    std::vector<bool> fusedIntoPrev(nrec, false);
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        if (fusedIntoPrev[i])
            continue; // emitted as the tail of the preceding compare
        e.bind(recLabel[i]);
        chargeRun(i);

        // Compare-and-branch fusion: when the compare's only consumer
        // is the branch immediately after it and nothing jumps to that
        // branch, the boolean never materializes — the jcc consumes
        // the flags directly.
        if (rec.srcOp == Opcode::ICmp && rec.dst != kNoValue &&
            i + 1 < nrec && df.code[i + 1].srcOp == Opcode::Branch &&
            df.code[i + 1].a == rec.dst && useCount[rec.dst] == 1 &&
            !jumpTarget[i + 1]) {
            const DecodedInst &br = df.code[i + 1];
            e.bind(recLabel[i + 1]);
            chargeRecords(2);
            e.jccLabel(emitIcmp(rec, i), recLabel[br.target]);
            e.jmpLabel(recLabel[br.target2]);
            fusedIntoPrev[i + 1] = true;
            continue;
        }

        // Checked-array-access fusion (baseline only: it keeps the
        // length in a register, and with it elided the ArrayLength slot
        // write a deopt replay would read): the exact four-record shape
        // the front end emits for every a[i] (NullCheck; ArrayLength;
        // BoundCheck; ArrayLoad/Store) gets a straight-line body that
        // keeps ref, length and index in registers.  Budget decrements
        // stay interleaved record-by-record, so budget-fault timing
        // against throws is bit-identical to the interpreters.  The
        // three inner records are still emitted standalone right after
        // (the fused tail jumps over them): branches into the middle of
        // the quad and trap-resume entries land there and behave as if
        // no fusion happened.
        if (!optimized && isAccessQuadAt(i)) {
            const DecodedInst &al = df.code[i + 1];
            const DecodedInst &bc = df.code[i + 2];
            const DecodedInst &ax = df.code[i + 3];
            uint32_t begin;
            if (redundantQuad[i]) {
                // An earlier access of the same (ref, idx) pair
                // dominates this one, so neither the null nor the
                // bound check can fail: drop all three.  Nothing left
                // in the body can throw, so the four budget decrements
                // batch into one sub.
                ++eliminatedCount;
                chargeRecords(4);
                e.loadSlot(R::RAX, rec.a);
                if (useCount[al.dst] > 1) {
                    begin = beginSite();
                    e.loadHeap32Sx(R::RCX, R::RAX,
                                   static_cast<int32_t>(kArrayLengthOffset));
                    endSite(begin, i + 1);
                    e.storeSlot(al.dst, R::RCX);
                }
                e.loadSlot(R::RDX, bc.a);
            } else {
                chargeRecords(1); // NullCheck
                e.loadSlot(R::RAX, rec.a);
                if (rec.flavor == CheckFlavor::Explicit) {
                    size_t before = e.size();
                    e.testRegReg(R::RAX, R::RAX, true);
                    e.jccLabel(CC::E, coldExit(ExcKind::NullPointer, i));
                    size_t emitted = e.size() - before;
                    TRAPJIT_ASSERT(
                        emitted == kNativeExplicitNullCheckBytes,
                        "explicit check drifted from check_bytes.h");
                    explicitBytes += emitted;
                    ++explicitCount;
                } else {
                    implicitBytes += kNativeImplicitNullCheckBytes;
                    ++implicitCount;
                }
                chargeRecords(1); // ArrayLength
                begin = beginSite();
                e.loadHeap32Sx(R::RCX, R::RAX,
                               static_cast<int32_t>(kArrayLengthOffset));
                endSite(begin, i + 1);
                if (useCount[al.dst] > 1)
                    e.storeSlot(al.dst, R::RCX);
                chargeRecords(1); // BoundCheck
                e.loadSlot(R::RDX, bc.a);
                e.aluRegReg(Alu::Cmp, R::RDX, R::RCX, true);
                e.jccLabel(CC::AE,
                           coldExit(ExcKind::ArrayIndexOutOfBounds, i + 2));
                chargeRecords(1); // access
            }
            e.movsxdRegReg(R::RDX, R::RDX);
            e.leaHostAddr(R::RAX, R::RAX);
            if (ax.srcOp == Opcode::ArrayLoad) {
                begin = beginSite();
                if (ax.type == Type::I32)
                    e.loadIndexed32Sx(R::RCX, R::RAX, R::RDX, 4,
                                      kArrayDataOffset);
                else
                    e.loadIndexed64(R::RCX, R::RAX, R::RDX, 8,
                                    kArrayDataOffset);
                endSite(begin, i + 3);
                e.storeSlot(ax.dst, R::RCX);
            } else {
                e.loadSlot(R::RCX, ax.c);
                begin = beginSite();
                if (ax.type == Type::I32)
                    e.storeIndexed32(R::RAX, R::RDX, 4, kArrayDataOffset,
                                     R::RCX);
                else
                    e.storeIndexed64(R::RAX, R::RDX, 8, kArrayDataOffset,
                                     R::RCX);
                endSite(begin, i + 3);
                if (options.recordTrace)
                    callHelper(&trapjitNativeTraceArrayWrite, i + 3);
            }
            e.jmpLabel(recLabel[i + 4]);
            continue; // records i+1..i+3 follow as entry points
        }

        // Integer-chain fusion (baseline only: it skips the slot writes
        // of every link but the last, which a deopt replay would read):
        // a run of pure ALU records where each result's only consumer
        // is the next record keeps the value in rax instead of bouncing
        // through the slot file; a trailing Move redirects the final
        // store to its destination (this is the canonical loop latch
        // "t = i + 1; i = t" as well as long expression chains like
        // IDEA's mul/add/xor rounds).  Every link is pure, so one
        // batched sub settles the budget; nothing can jump into or trap
        // inside the fused region.
        if (!optimized && isIntChainOp(rec.srcOp) && rec.dst != kNoValue) {
            size_t last = i;
            while (last + 1 < nrec) {
                const DecodedInst &cur = df.code[last];
                const DecodedInst &nx = df.code[last + 1];
                if (jumpTarget[last + 1] || useCount[cur.dst] != 1)
                    break;
                if (nx.srcOp == Opcode::Move && nx.a == cur.dst) {
                    ++last; // Move terminates the chain
                    break;
                }
                if (!isIntChainOp(nx.srcOp) || nx.dst == kNoValue)
                    break;
                const bool aIs = nx.a == cur.dst;
                const bool bIs = nx.b == cur.dst;
                if (aIs == bIs)
                    break; // exactly one operand may be the accumulator
                if (bIs && !isCommutativeAlu(nx.srcOp))
                    break;
                ++last;
            }
            if (last > i) {
                for (size_t k = i + 1; k <= last; ++k) {
                    e.bind(recLabel[k]);
                    fusedIntoPrev[k] = true;
                }
                chargeRecords(static_cast<uint32_t>(last - i + 1));
                emitIntAluToRax(rec, i, kNoValue);
                for (size_t k = i + 1; k <= last; ++k) {
                    const DecodedInst &lk = df.code[k];
                    if (lk.srcOp == Opcode::Move)
                        break; // final value already in rax
                    emitIntAluToRax(lk, k, df.code[k - 1].dst);
                }
                e.storeSlot(df.code[last].dst, R::RAX);
                continue;
            }
        }

        chargeRecords(1);

        const bool narrow = (rec.flags & kDecodedNarrowDst) != 0;
        const bool wide = !narrow;

        if (rec.dst != kNoValue && isPureOp(rec.srcOp) &&
            foldedUses[rec.dst] == useCount[rec.dst])
            continue; // dead or fully-folded pure record: budget only

        switch (rec.srcOp) {
          case Opcode::ConstInt: {
            int64_t v = narrow ? static_cast<int32_t>(rec.imm) : rec.imm;
            e.movRegImm64(R::RAX, static_cast<uint64_t>(v));
            defWrite(rec.dst, R::RAX);
            break;
          }
          case Opcode::ConstFloat: {
            uint64_t bits;
            std::memcpy(&bits, &rec.fimm, sizeof(bits));
            e.movRegImm64(R::RAX, bits);
            defWrite(rec.dst, R::RAX);
            break;
          }
          case Opcode::ConstNull:
            e.movRegImm32(R::RAX, 0);
            defWrite(rec.dst, R::RAX);
            break;
          case Opcode::Move:
            if (const DecodedInst *c = constAt(rec.a, i)) {
                e.movRegImm64(R::RAX,
                              static_cast<uint64_t>(constValOf(*c)));
                defWrite(rec.dst, R::RAX);
            } else {
                defWrite(rec.dst, srcReg(rec.a, R::RAX));
            }
            break;

          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IMul:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
          case Opcode::INeg:
            emitIntAluToRax(rec, i, kNoValue);
            defWrite(rec.dst, R::RAX);
            break;

          case Opcode::IDiv:
          case Opcode::IRem: {
            // Divisor 0 raises; divisor -1 is special-cased before
            // idiv so INT64_MIN / -1 cannot #DE (javaDiv/javaRem).
            loadVal(R::RAX, rec.a, true);
            loadVal(R::RCX, rec.b, true);
            e.testRegReg(R::RCX, R::RCX, true);
            e.jccLabel(CC::E, coldExit(ExcKind::Arithmetic, i));
            e.cmpRegImm8(R::RCX, -1, true);
            int lMinusOne = e.newLabel();
            int lDone = e.newLabel();
            e.jccLabel(CC::E, lMinusOne);
            e.cqo();
            e.idivReg(R::RCX);
            if (rec.srcOp == Opcode::IRem)
                e.movRegReg(R::RAX, R::RDX);
            e.jmpLabel(lDone);
            e.bind(lMinusOne);
            if (rec.srcOp == Opcode::IDiv)
                e.negReg(R::RAX, true);
            else
                e.movRegImm32(R::RAX, 0);
            e.bind(lDone);
            if (narrow)
                e.movsxdRegReg(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          }

          case Opcode::IShl:
          case Opcode::IShr:
          case Opcode::IUshr: {
            // Hardware cl masking (mod 64 / mod 32) is exactly the
            // interpreter's &63 / &31.
            loadVal(R::RCX, rec.b, true);
            loadVal(R::RAX, rec.a, wide);
            X64Emitter::Shift op =
                rec.srcOp == Opcode::IShl ? X64Emitter::Shift::Shl
                : rec.srcOp == Opcode::IShr ? X64Emitter::Shift::Sar
                                            : X64Emitter::Shift::Shr;
            e.shiftRegCl(op, R::RAX, wide);
            if (narrow)
                e.movsxdRegReg(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          }

          case Opcode::FAdd:
          case Opcode::FSub:
          case Opcode::FMul:
          case Opcode::FDiv: {
            X64Emitter::SseOp op =
                rec.srcOp == Opcode::FAdd ? X64Emitter::SseOp::Add
                : rec.srcOp == Opcode::FSub ? X64Emitter::SseOp::Sub
                : rec.srcOp == Opcode::FMul ? X64Emitter::SseOp::Mul
                                            : X64Emitter::SseOp::Div;
            e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
            e.sseOpSlot(op, X64Xmm::XMM0, rec.b);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          }
          case Opcode::FNeg:
            e.movRegImm64(R::RAX, 0x8000000000000000ull);
            e.movqXmmReg(X64Xmm::XMM1, R::RAX);
            e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
            e.xorpd(X64Xmm::XMM0, X64Xmm::XMM1);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::FAbs:
            e.movRegImm64(R::RAX, 0x7fffffffffffffffull);
            e.movqXmmReg(X64Xmm::XMM1, R::RAX);
            e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
            e.andpd(X64Xmm::XMM0, X64Xmm::XMM1);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::FSqrt:
            e.sseOpSlot(X64Emitter::SseOp::Sqrt, X64Xmm::XMM0, rec.a);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::FExp:
          case Opcode::FSin:
          case Opcode::FCos:
          case Opcode::FLog:
          case Opcode::F2I:
            // libm / saturating conversion stay in C++ (bit-identical
            // to the interpreters by construction; status always 0).
            callHelper(&trapjitNativeMath, i);
            afterHelper(rec.dst);
            break;

          case Opcode::I2F:
            e.cvtsi2sdSlot(X64Xmm::XMM0, rec.a);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::I2L:
            loadValSx32(R::RAX, rec.a);
            defWrite(rec.dst, R::RAX);
            break;
          case Opcode::L2I:
            if (narrow) {
                loadValSx32(R::RAX, rec.a);
                defWrite(rec.dst, R::RAX);
            } else {
                defWrite(rec.dst, srcReg(rec.a, R::RAX));
            }
            break;

          case Opcode::ICmp:
            e.setcc(emitIcmp(rec, i), R::RAX);
            e.movzxRegReg8(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          case Opcode::FCmp: {
            // IEEE-correct predicates through ucomisd: EQ/NE fold the
            // parity (unordered) flag; LT/LE compare operands swapped
            // so the unsigned conditions are NaN-false.
            switch (rec.pred) {
              case CmpPred::EQ:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
                e.ucomisdSlot(X64Xmm::XMM0, rec.b);
                e.setcc(CC::E, R::RAX);
                e.setcc(CC::NP, R::RCX);
                e.andRegReg8(R::RAX, R::RCX);
                break;
              case CmpPred::NE:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
                e.ucomisdSlot(X64Xmm::XMM0, rec.b);
                e.setcc(CC::NE, R::RAX);
                e.setcc(CC::P, R::RCX);
                e.orRegReg8(R::RAX, R::RCX);
                break;
              case CmpPred::LT:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.b);
                e.ucomisdSlot(X64Xmm::XMM0, rec.a);
                e.setcc(CC::A, R::RAX);
                break;
              case CmpPred::LE:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.b);
                e.ucomisdSlot(X64Xmm::XMM0, rec.a);
                e.setcc(CC::AE, R::RAX);
                break;
              case CmpPred::GT:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
                e.ucomisdSlot(X64Xmm::XMM0, rec.b);
                e.setcc(CC::A, R::RAX);
                break;
              case CmpPred::GE:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
                e.ucomisdSlot(X64Xmm::XMM0, rec.b);
                e.setcc(CC::AE, R::RAX);
                break;
            }
            e.movzxRegReg8(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          }

          case Opcode::NullCheck:
            if (i + 1 < nrec && specCheck[i + 1] == static_cast<int32_t>(i)) {
                // Section 5.4: zero bytes.  The speculated access at
                // i+1 runs first; its trap site replays this record.
                ++speculatedCount;
            } else if (rec.flavor == CheckFlavor::Explicit) {
                R ref = srcReg(rec.a, R::RAX);
                size_t before = e.size();
                e.testRegReg(ref, ref, true);
                e.jccLabel(CC::E, coldExit(ExcKind::NullPointer, i));
                size_t emitted = e.size() - before;
                TRAPJIT_ASSERT(
                    emitted == kNativeExplicitNullCheckBytes,
                    "explicit check drifted from check_bytes.h");
                explicitBytes += emitted;
                ++explicitCount;
            } else {
                // The paper's mechanism, for real: zero instructions.
                // The guarded access that follows faults instead.
                implicitBytes += kNativeImplicitNullCheckBytes;
                ++implicitCount;
            }
            break;
          case Opcode::BoundCheck: {
            // One unsigned compare covers idx < 0 || idx >= len: the
            // length is an ArrayLength result (>= 0), so a negative
            // index becomes a huge unsigned value and takes jae too.
            // With homes the sequence can be shorter than the slot form
            // check_bytes.h prices, so only that form is asserted.
            R idx = srcReg(rec.a, R::RAX);
            size_t before = e.size();
            aluRegVal(Alu::Cmp, idx, rec.b, true);
            e.jccLabel(CC::AE,
                       coldExit(ExcKind::ArrayIndexOutOfBounds, i));
            size_t emitted = e.size() - before;
            TRAPJIT_ASSERT(home[rec.a] >= 0 || home[rec.b] >= 0 ||
                               emitted == kNativeBoundCheckBytes,
                           "bound check drifted from check_bytes.h");
            boundBytes += emitted;
            break;
          }

          case Opcode::GetField: {
            R ref = srcReg(rec.a, R::RAX);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.loadHeap32Sx(R::RCX, ref, static_cast<int32_t>(rec.imm));
            else
                e.loadHeap64(R::RCX, ref, static_cast<int32_t>(rec.imm));
            endSite(begin, i);
            defWrite(rec.dst, R::RCX);
            break;
          }
          case Opcode::PutField: {
            R ref = srcReg(rec.a, R::RAX);
            R val = srcReg(rec.b, R::RCX);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.storeHeap32(ref, static_cast<int32_t>(rec.imm), val);
            else
                e.storeHeap64(ref, static_cast<int32_t>(rec.imm), val);
            endSite(begin, i);
            if (options.recordTrace) {
                callHelper(&trapjitNativeTraceFieldWrite, i);
                afterHelper(kNoValue);
            }
            break;
          }
          case Opcode::ArrayLength: {
            R ref = srcReg(rec.a, R::RAX);
            uint32_t begin = beginSite();
            e.loadHeap32Sx(R::RCX, ref,
                           static_cast<int32_t>(kArrayLengthOffset));
            endSite(begin, i);
            defWrite(rec.dst, R::RCX);
            break;
          }
          case Opcode::ArrayLoad: {
            e.leaHostAddr(R::RAX, srcReg(rec.a, R::RAX));
            loadValSx32(R::RCX, rec.b);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.loadIndexed32Sx(R::RDX, R::RAX, R::RCX, 4,
                                  kArrayDataOffset);
            else
                e.loadIndexed64(R::RDX, R::RAX, R::RCX, 8,
                                kArrayDataOffset);
            endSite(begin, i);
            defWrite(rec.dst, R::RDX);
            break;
          }
          case Opcode::ArrayStore: {
            e.leaHostAddr(R::RAX, srcReg(rec.a, R::RAX));
            loadValSx32(R::RCX, rec.b);
            R val = srcReg(rec.c, R::RDX);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.storeIndexed32(R::RAX, R::RCX, 4, kArrayDataOffset, val);
            else
                e.storeIndexed64(R::RAX, R::RCX, 8, kArrayDataOffset, val);
            endSite(begin, i);
            if (options.recordTrace) {
                callHelper(&trapjitNativeTraceArrayWrite, i);
                afterHelper(kNoValue);
            }
            break;
          }

          case Opcode::NewObject:
            callHelper(&trapjitNativeNewObject, i);
            checkStatus(i, R::RAX);
            afterHelper(rec.dst);
            break;
          case Opcode::NewArray:
            callHelper(&trapjitNativeNewArray, i);
            checkStatus(i, R::RAX);
            afterHelper(rec.dst);
            break;
          case Opcode::Call:
            if (!tiered) {
                callHelper(&trapjitNativeCall, i);
                checkStatus(i, R::RAX);
                afterHelper(rec.dst);
                break;
            }
            // Tiered call: stage the arguments contiguously at the
            // frame pool top (that region becomes the callee's slot
            // file), then issue a patchable rel32 call.  Unlinked
            // sites target a per-site stub that tail-jumps into the
            // slow-call helper; the registry retargets static sites
            // straight at the callee's block when it publishes.
            e.storeCtx64(kNativeCtxBudgetOffset, R::R14);
            e.loadCtx64(R::RAX, kNativeCtxPoolTopOffset);
            for (uint32_t k = 0; k < rec.argsCount; ++k) {
                e.loadSlot(R::RCX, df.argPool[rec.argsBegin + k]);
                e.storeMemDisp64(R::RAX, static_cast<int32_t>(k * 8),
                                 R::RCX);
            }
            // Counted here (caller side, before resolution) to mirror
            // the interpreter's ++calls in its Call handler; the
            // engine folds linkedCalls into stats after every root.
            e.incCtx64(kNativeCtxLinkedCallsOffset);
            e.movRegReg(R::RDI, R::R12);
            e.movRegReg(R::RSI, R::RAX);
            e.movRegReg(R::RDX, R::R13);
            // Pad so the rel32 field is 4-byte aligned: link/unlink is
            // then a single atomic 32-bit store.
            while ((e.size() + 1) % 4 != 0)
                e.nop();
            {
                int stub = e.newLabel();
                size_t slotAt = e.callLabelSlot(stub);
                callStubs.push_back(
                    TieredCallStub{stub, static_cast<uint32_t>(i)});
                callSlots.push_back(NativeCallSlot{
                    static_cast<uint32_t>(slotAt), 0,
                    rec.callKind == CallKind::Static
                        ? static_cast<FunctionId>(rec.imm)
                        : kNoFunction});
            }
            // The callee (or helper) left its status in rax; save it
            // across the movabs below, restore this frame's identity,
            // then store the return value — every path arranges
            // ctx->retBits so the unconditional store is correct (a
            // null-receiver-skipped virtual call reloads the old dst).
            e.movRegReg(R::RCX, R::RAX);
            e.loadCtx64(R::R14, kNativeCtxBudgetOffset);
            e.storeCtx64(kNativeCtxActiveSlotsOffset, R::RBX);
            e.movRegImm64(R::RAX, reinterpret_cast<uint64_t>(&df));
            e.storeCtx64(kNativeCtxActiveDfOffset, R::RAX);
            checkStatus(i, R::RCX);
            if (rec.dst != kNoValue) {
                e.loadCtx64(R::RAX, kNativeCtxRetOffset);
                e.storeSlot(rec.dst, R::RAX);
            }
            break;

          case Opcode::Jump:
            e.jmpLabel(recLabel[rec.target]);
            break;
          case Opcode::Branch: {
            R c = srcReg(rec.a, R::RAX);
            e.testRegReg(c, c, true);
            e.jccLabel(CC::NE, recLabel[rec.target]);
            e.jmpLabel(recLabel[rec.target2]);
            break;
          }
          case Opcode::IfNull: {
            R c = srcReg(rec.a, R::RAX);
            e.testRegReg(c, c, true);
            e.jccLabel(CC::E, recLabel[rec.target]);
            e.jmpLabel(recLabel[rec.target2]);
            break;
          }
          case Opcode::Return:
            if (rec.a != kNoValue) {
                e.storeCtx64(kNativeCtxRetOffset, srcReg(rec.a, R::RAX));
            } else if (tiered) {
                // The tiered context persists across frames; a void
                // return must not leak the previous callee's retBits
                // (classic mode gets this for free from its fresh
                // per-root context).
                e.movRegImm32(R::RAX, 0);
                e.storeCtx64(kNativeCtxRetOffset, R::RAX);
            }
            e.jmpLabel(lReturn);
            break;
          case Opcode::Throw:
            if (optimized) {
                // Optimized code has no in-code handler table: the
                // interpreter replays the Throw and runs its dispatch.
                e.jmpLabel(deoptTo(i));
                break;
            }
            e.storeCtx32Imm(kNativeCtxPendingKindOffset,
                            static_cast<uint32_t>(rec.imm));
            e.storeCtx32Imm(kNativeCtxPendingSiteOffset, rec.site);
            e.movRegImm32(R::RSI, rec.tryRegion);
            e.jmpLabel(lDispatch);
            break;
          case Opcode::Nop:
            break;
          default:
            TRAPJIT_PANIC("unreachable: opcode scan missed a case");
        }
    }
    const size_t hotEnd = e.size();

    // ---- cold stubs ----------------------------------------------------
    size_t tablePatchAt = 0;
    if (optimized) {
        // Deopt (status 2): refund every record pre-charged at or after
        // the replay target — the interpreter re-charges them one by
        // one, so a budget fault lands on the exact record with the
        // exact message.
        for (const ExitStub &s : exits) {
            e.bind(s.label);
            if (s.refund != 0)
                e.aluRegImm32(Alu::Add, R::R14,
                              static_cast<int32_t>(s.refund), true);
            e.storeCtx32Imm(kNativeCtxDeoptRecordOffset, s.record);
            e.movRegImm32(R::RAX, 2);
            e.jmpLabel(lPop);
        }
        // Helper status (1 = exception pending, 2 = hard unwind).  The
        // helper retired its record, so the refund excludes it — and is
        // applied before the status split so the unwind path's budget
        // sync is exact too.  Status 3 tells the engine to *dispatch*
        // the pending exception from the record's try region, not
        // re-run it.
        for (const StatusStub &s : statuses) {
            e.bind(s.label);
            if (s.refund != 0)
                e.aluRegImm32(Alu::Add, R::R14,
                              static_cast<int32_t>(s.refund), true);
            e.cmpRegImm8(R::RAX, 1, false);
            e.jccLabel(CC::NE, lUnwind);
            e.storeCtx32Imm(kNativeCtxDeoptRecordOffset, s.record);
            e.movRegImm32(R::RAX, 3);
            e.jmpLabel(lPop);
        }
    } else {
        // Exception dispatch: esi = the raising record's try region,
        // pending kind/site already stored.  The handler index
        // indirects through the in-buffer table of absolute record
        // addresses.
        e.bind(lDispatch);
        e.movRegReg(R::RDI, R::R12);
        e.movRegImm64(R::RAX, reinterpret_cast<uint64_t>(
                                  &trapjitNativeFindHandler));
        e.callReg(R::RAX);
        e.cmpRegImm8(R::RAX, -1, false);
        e.jccLabel(CC::E, lUnwind);
        e.movsxdRegReg(R::RAX, R::RAX); // canonicalize the int32 return
        tablePatchAt = e.movRegImm64Patchable(R::RCX);
        e.loadIndexed64(R::RAX, R::RCX, R::RAX, 8, 0);
        e.jmpReg(R::RAX);

        // A fused group subtracts n, so r14 lands anywhere in [-n, -1];
        // clamp to the single-dec value before the shared fault path.
        e.bind(lBudgetFused);
        e.aluRegImm32(Alu::Or, R::R14, -1, true);
        e.bind(lBudget);
        // r14 is -1 here; storing it makes the engine's stats sync read
        // max+1, matching the interpreters' fault-instruction
        // accounting.
        e.storeCtx64(kNativeCtxBudgetOffset, R::R14);
        e.movRegReg(R::RDI, R::R12);
        e.movRegImm32(R::RSI, 0);
        e.movRegImm64(R::RAX, helperAddr(&trapjitNativeBudgetFault));
        e.callReg(R::RAX);
        e.jmpLabel(lUnwind);

        for (const StatusStub &s : statuses) {
            e.bind(s.label);
            if (tiered) {
                // A linked callee unwinds with status 1 whatever the
                // cause, so tiered stubs tell a hard fault by the
                // context flag; a set flag unwinds the whole linked
                // chain.
                e.cmpCtx32Imm8(kNativeCtxHardFaultOffset, 0);
                e.jccLabel(CC::NE, lUnwind);
            } else {
                e.cmpRegImm8(R::RAX, 1, false);
                e.jccLabel(CC::NE, lUnwind); // status 2: hard unwind
            }
            e.movRegImm32(R::RSI, df.code[s.record].tryRegion);
            e.jmpLabel(lDispatch);
        }

        if (tiered) {
            // Per-site slow stubs: rdi (ctx) is still live from the
            // call sequence; replace the staged-args pointer in rsi
            // with the record index and tail-jump — the helper returns
            // straight to the call site.
            for (const TieredCallStub &s : callStubs) {
                e.bind(s.label);
                e.movRegImm32(R::RSI, s.recIndex);
                e.movRegImm64(R::RAX, helperAddr(&trapjitTieredSlowCall));
                e.jmpReg(R::RAX);
            }
            // Depth/pool bail: the prologue already decremented
            // depthRemaining and published activeDf, so the shared
            // epilogue rebalances both and the fault helper can name
            // this callee.  poolTop still holds the caller's value
            // (== rbx), so the epilogue's restore is a no-op.
            e.bind(lDepthBail);
            e.movRegReg(R::RDI, R::R12);
            e.movRegImm32(R::RSI, 0);
            e.movRegImm64(R::RAX, helperAddr(&trapjitTieredDepthFault));
            e.callReg(R::RAX);
            e.jmpLabel(lUnwind);
            e.bind(lPoolBail);
            e.movRegReg(R::RDI, R::R12);
            e.movRegImm32(R::RSI, 0);
            e.movRegImm64(R::RAX, helperAddr(&trapjitTieredPoolFault));
            e.callReg(R::RAX);
            e.jmpLabel(lUnwind);
        }
        for (const ExitStub &s : exits) {
            const DecodedInst &r = df.code[s.record];
            e.bind(s.label);
            e.storeCtx32Imm(kNativeCtxPendingKindOffset,
                            static_cast<uint32_t>(s.kind));
            e.storeCtx32Imm(kNativeCtxPendingSiteOffset, r.site);
            e.movRegImm32(R::RSI, r.tryRegion);
            e.jmpLabel(lDispatch);
        }
    }

    e.bind(lReturn);
    e.movRegImm32(R::RAX, 0);
    e.jmpLabel(lPop);
    e.bind(lUnwind);
    e.movRegImm32(R::RAX, 1);
    e.bind(lPop);
    if (tiered) {
        // This frame's base is exactly the caller's pool top (the
        // staged-args region), so one store releases the slot file.
        e.storeCtx64(kNativeCtxPoolTopOffset, R::RBX);
        e.incCtx64(kNativeCtxDepthRemainingOffset);
    }
    e.storeCtx64(kNativeCtxBudgetOffset, R::R14);
    for (size_t k = saved.size(); k-- > 0;)
        e.popReg(saved[k] == R::RAX ? R::RCX : saved[k]); // rax: status
    e.ret();

    e.patchLabels();

    // ---- install -------------------------------------------------------
    // Baseline code is followed by the dispatch stub's handler table of
    // absolute record addresses; optimized code deopts instead.
    const size_t codeSize = e.size();
    const size_t tableOffset = (codeSize + 7) & ~size_t(7);
    CodeBuffer buf = globalCodeBufferPool().acquire(
        optimized ? codeSize : tableOffset + 8 * nrec);
    uint8_t *base = buf.base();
    std::memcpy(base, e.code().data(), codeSize);

    auto nc = std::make_shared<NativeCode>(std::move(buf));
    nc->codeSize = codeSize;
    nc->recordOffsets.resize(nrec + 1);
    for (size_t i = 0; i < nrec; ++i)
        nc->recordOffsets[i] = e.labelOffset(recLabel[i]);
    nc->recordOffsets[nrec] = static_cast<uint32_t>(hotEnd);
    for (NativeTrapSite &s : sites)
        s.resumeNext = nc->recordOffsets[s.recordIndex + 1];
    nc->sites = std::move(sites);
    nc->explicitNullCheckBytes = explicitBytes;
    nc->implicitNullCheckBytes = implicitBytes;
    nc->boundCheckBytes = boundBytes;
    nc->explicitChecksCompiled = explicitCount;
    nc->implicitChecksCompiled = implicitCount;
    nc->checksEliminated = eliminatedCount;
    nc->exitOffset = e.labelOffset(lPop);
    nc->optimized = optimized;
    nc->deopts = std::move(deopts);
    nc->regLocs = std::move(homes.locs);
    nc->loadsSpeculated = speculatedCount;
    nc->spillsEmitted = homes.spills;
    nc->regsAllocated = nc->regLocs.size();
    if (tiered) {
        nc->tiered = true;
        for (size_t k = 0; k < callSlots.size(); ++k)
            callSlots[k].stubOffset = e.labelOffset(callStubs[k].label);
        nc->callSlots = std::move(callSlots);
    }

    if (!optimized) {
        uint64_t tableBase = reinterpret_cast<uint64_t>(base) + tableOffset;
        std::memcpy(base + tablePatchAt, &tableBase, sizeof(tableBase));
        for (size_t i = 0; i < nrec; ++i) {
            uint64_t entry = reinterpret_cast<uint64_t>(base) +
                             nc->recordOffsets[i];
            std::memcpy(base + tableOffset + 8 * i, &entry, sizeof(entry));
        }
    }

    // Test-only fault injection: corrupt the published optimized-mode
    // metadata the way a buggy lowering would, so test_audit_mutations
    // can prove the audit obligations actually fire
    // (native_mutation_hooks.h).  Baseline code has no speculated deopt
    // and no register home, so none of the three can bite there.
    if (nativeMutationActive(NativeMutation::SpecWrongDeoptRecord)) {
        for (NativeDeoptInfo &d : nc->deopts) {
            if (d.speculated) {
                ++d.deoptRecord;
                break;
            }
        }
    }
    if (nativeMutationActive(NativeMutation::SpecDropFlag)) {
        for (NativeDeoptInfo &d : nc->deopts) {
            if (d.speculated) {
                d.speculated = false;
                break;
            }
        }
    }
    if (nativeMutationActive(NativeMutation::RegLocReservedReg) &&
        !nc->regLocs.empty()) {
        nc->regLocs.front().reg = static_cast<uint8_t>(R::R14);
    }

    if (tiered)
        nc->buffer.finalizePatchable();
    else
        nc->buffer.finalize();
    out.code = std::move(nc);
    return out;
}

} // namespace trapjit
