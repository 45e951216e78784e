#include "codegen/native/native_runtime.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <mutex>

#if defined(__x86_64__) && defined(__linux__)
#include <ucontext.h>
#endif

#include "codegen/native/native_compiler.h"
#include "runtime/signal_stack.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

thread_local NativeRunScope *t_runScope = nullptr;

/** upper_bound comparator of a pc against a range's start. */
bool
pcBeforeRange(uintptr_t pc, const NativeCodeRange &r)
{
    return pc < r.lo;
}

std::mutex g_installMutex;
int g_installCount = 0;
struct sigaction g_prevAction;

void
chainToPrevious(int signo, siginfo_t *info, void *context)
{
    if (g_prevAction.sa_flags & SA_SIGINFO) {
        if (g_prevAction.sa_sigaction != nullptr)
            g_prevAction.sa_sigaction(signo, info, context);
        return;
    }
    if (g_prevAction.sa_handler == SIG_IGN)
        return;
    if (g_prevAction.sa_handler != SIG_DFL) {
        g_prevAction.sa_handler(signo);
        return;
    }
    signal(signo, SIG_DFL);
    raise(signo);
}

/**
 * The verdict on a native fault at trap record @p rec (null when the
 * fault PC is at no trap site) of a frame on slot file @p slots, with
 * @p inGuard telling whether the fault address lies in the heap guard
 * region: classifyNullAccess when the record's reference is null;
 * OutsideObject for a GetField / PutField through a non-null reference
 * that reached the guard region (the interpreters fault the same access
 * on their bounds check); Wild otherwise.
 */
NullVerdict
nativeFaultVerdict(const DecodedInst *rec, const void *slots, bool inGuard)
{
    if (!inGuard || rec == nullptr)
        return NullVerdict::Wild;
    if (static_cast<const uint64_t *>(slots)[rec->a] == 0)
        return classifyNullAccess(rec->flags);
    if (rec->srcOp == Opcode::GetField || rec->srcOp == Opcode::PutField)
        return NullVerdict::OutsideObject;
    return NullVerdict::Wild;
}

/** Park faulting verdict @p v at @p site (null: none) of @p df in ctx. */
void
parkVerdict(NativeContext &ctx, NullVerdict v, const NativeTrapSite *site,
            const DecodedFunction &df)
{
    ctx.parkVerdict = v;
    ctx.parkRec = site != nullptr ? site->recordIndex : 0;
    ctx.parkDf = &df;
    ctx.hardFault = 1;
}

/**
 * The trap arm of baseline and tiered code.  Returns true with
 * @p resumeAt set to the code offset execution continues at (the next
 * record, or the catch handler of a trap NPE); loads whose null access
 * reads zero get that zero in their destination slot first.  Returns
 * false when the frame must unwind: either an uncaught trap NPE is
 * pending in @p ctx, or the access faults and its verdict is parked.
 */
bool
resolveNullTrap(const NativeCode &nc, const DecodedFunction &df,
                void *slots, uint32_t pcOffset, bool inGuard,
                NativeContext &ctx, ExecStats &stats, uint32_t &resumeAt)
{
    uint64_t *r = static_cast<uint64_t *>(slots);
    const NativeTrapSite *site = nc.findSite(pcOffset);
    const DecodedInst *rec =
        site != nullptr ? &df.code[site->recordIndex] : nullptr;
    const NullVerdict verdict = nativeFaultVerdict(rec, slots, inGuard);
    if (nullVerdictFaults(verdict)) {
        parkVerdict(ctx, verdict, site, df);
        return false;
    }
    // Loads (and ArrayLength) substitute the zero the interpreter
    // writes through handleNullAccess's return value — including on
    // the trap-NPE path, where the write precedes dispatch.
    if (rec->dst != kNoValue &&
        (rec->srcOp == Opcode::GetField ||
         rec->srcOp == Opcode::ArrayLength ||
         rec->srcOp == Opcode::ArrayLoad))
        r[rec->dst] = 0;
    resumeAt = site->resumeNext;
    if (verdict == NullVerdict::SpecSafeZero) {
        ++stats.speculativeReadsOfNull;
    } else if (verdict == NullVerdict::TrapNpe) {
        ++stats.trapsTaken;
        int32_t handler = nativeFindHandlerIndex(df, rec->tryRegion,
                                                 ExcKind::NullPointer);
        if (handler < 0) {
            ctx.pendingKind = static_cast<int32_t>(ExcKind::NullPointer);
            ctx.pendingSite = rec->site;
            return false;
        }
        resumeAt = nc.recordOffsets[handler];
    }
    return true;
}

/**
 * The trap arm of optimized code, which never resumes: the
 * write-through register allocator keeps the slot file canonical at
 * every record boundary, so a null access at a site with a deopt
 * record becomes a deopt (status 2) — @p budget (the trapped r14)
 * gets back what the run pre-charged past the replay record, and
 * ctx->deoptRecord names it.  Any other fault (a field access outside
 * its object, or a wild one) parks its verdict: status 1.
 */
uint32_t
deoptNullTrap(const NativeCode &nc, const DecodedFunction &df,
              void *slots, uint32_t pcOffset, bool inGuard,
              NativeContext &ctx, int64_t &budget)
{
    const NativeTrapSite *site = nc.findSite(pcOffset);
    const DecodedInst *rec =
        site != nullptr ? &df.code[site->recordIndex] : nullptr;
    if (rec != nullptr && site->deoptIndex >= 0 &&
        static_cast<const uint64_t *>(slots)[rec->a] == 0) {
        const NativeDeoptInfo &info =
            nc.deopts[static_cast<size_t>(site->deoptIndex)];
        budget += info.budgetAdjust;
        ctx.deoptRecord = info.deoptRecord;
        return 2;
    }
    NullVerdict v = nativeFaultVerdict(rec, slots, inGuard);
    parkVerdict(ctx,
                v == NullVerdict::OutsideObject ? v : NullVerdict::Wild,
                site, df);
    return 1;
}

#if defined(__x86_64__) && defined(__linux__)
/**
 * Resolve a fault at @p pc inside @p code, whose frame is described by
 * the pinned registers in @p gregs, by rewriting REG_RIP: to the resume
 * point, or to the code's exit with the frame's status in REG_RAX.
 */
void
resolveFault(const NativeRunScope &run, const NativeCodeRange &code,
             uintptr_t pc, uintptr_t fault, greg_t *gregs)
{
    const NativeCode &nc = *code.nc;
    NativeContext &ctx = *reinterpret_cast<NativeContext *>(gregs[REG_R12]);
    void *slots = reinterpret_cast<void *>(gregs[REG_RBX]);
    const uint32_t pcOffset = static_cast<uint32_t>(pc - code.lo);
    const bool inGuard = fault >= run.guardLo && fault < run.guardHi;
    uint32_t status = 1;
    if (nc.optimized) {
        int64_t budget = static_cast<int64_t>(gregs[REG_R14]);
        status = deoptNullTrap(nc, *ctx.activeDf, slots, pcOffset, inGuard,
                               ctx, budget);
        gregs[REG_R14] = static_cast<greg_t>(budget);
    } else {
        uint32_t resumeAt = 0;
        if (resolveNullTrap(nc, *ctx.activeDf, slots, pcOffset, inGuard,
                            ctx, *run.stats, resumeAt)) {
            gregs[REG_RIP] = static_cast<greg_t>(code.lo + resumeAt);
            return;
        }
    }
    gregs[REG_RAX] = static_cast<greg_t>(status);
    gregs[REG_RIP] = static_cast<greg_t>(code.lo + nc.exitOffset);
}
#endif

void
nativeSegvHandler(int signo, siginfo_t *info, void *context)
{
#if defined(__x86_64__) && defined(__linux__)
    if (const NativeRunScope *run = t_runScope; run != nullptr) {
        greg_t *gregs =
            static_cast<ucontext_t *>(context)->uc_mcontext.gregs;
        const uintptr_t pc = static_cast<uintptr_t>(gregs[REG_RIP]);
        // Fresh acquire load per fault: code compiled or published
        // after this request started must still be recognized.
        const NativePcMap *map =
            run->pcMap->load(std::memory_order_acquire);
        const NativeCodeRange *code =
            map != nullptr ? map->find(pc) : nullptr;
        if (code != nullptr) {
            resolveFault(*run, *code, pc,
                         reinterpret_cast<uintptr_t>(info->si_addr),
                         gregs);
            return;
        }
    }
#endif
    chainToPrevious(signo, info, context);
}

} // namespace

const NativeCodeRange *
NativePcMap::find(uintptr_t pc) const
{
    auto it = std::upper_bound(ranges.begin(), ranges.end(), pc,
                               pcBeforeRange);
    if (it == ranges.begin())
        return nullptr;
    --it;
    return pc >= it->lo && pc < it->hi ? &*it : nullptr;
}

void
NativePcMapSlot::add(const NativeCode &nc)
{
    const uintptr_t lo = reinterpret_cast<uintptr_t>(nc.buffer.base());
    const NativePcMap *old = map_.load(std::memory_order_relaxed);
    if (old != nullptr && old->find(lo) != nullptr)
        return;
    auto map = std::make_unique<NativePcMap>();
    if (old != nullptr)
        map->ranges = old->ranges;
    map->ranges.insert(std::upper_bound(map->ranges.begin(),
                                        map->ranges.end(), lo,
                                        pcBeforeRange),
                       NativeCodeRange{lo, lo + nc.codeSize, &nc});
    map_.store(map.get(), std::memory_order_release);
    history_.push_back(std::move(map));
}

NativeRunScope::NativeRunScope(
    const std::atomic<const NativePcMap *> &map, ExecStats &execStats,
    const Heap &heap)
    : pcMap(&map), stats(&execStats), guardLo(heap.guardLo()),
      guardHi(heap.guardHi()), prev(t_runScope)
{
    t_runScope = this;
}

NativeRunScope::~NativeRunScope()
{
    TRAPJIT_ASSERT(t_runScope == this, "native run scope out of order");
    t_runScope = prev;
}

void
nativeInstallSegvHandler()
{
    std::lock_guard<std::mutex> lock(g_installMutex);
    if (g_installCount++ > 0)
        return;
    ensureAltSignalStack();
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = nativeSegvHandler;
    action.sa_flags = SA_SIGINFO | SA_NODEFER | SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGSEGV, &action, &g_prevAction) != 0)
        TRAPJIT_FATAL("sigaction(SIGSEGV) failed for the native tier");
}

void
nativeUninstallSegvHandler()
{
    std::lock_guard<std::mutex> lock(g_installMutex);
    TRAPJIT_ASSERT(g_installCount > 0, "unbalanced handler uninstall");
    if (--g_installCount == 0)
        sigaction(SIGSEGV, &g_prevAction, nullptr);
}

int32_t
nativeFindHandlerIndex(const DecodedFunction &df, TryRegionId region,
                       ExcKind kind)
{
    for (TryRegionId rr = region; rr != 0; rr = df.tryRegions[rr].parent) {
        const DecodedTryRegion &r = df.tryRegions[rr];
        if (r.catches == ExcKind::CatchAll || r.catches == kind)
            return static_cast<int32_t>(r.handlerIndex);
    }
    return -1;
}

extern "C" int32_t
trapjitNativeFindHandler(NativeContext *ctx, uint32_t tryRegion)
{
    int32_t handler = nativeFindHandlerIndex(
        *ctx->activeDf, static_cast<TryRegionId>(tryRegion),
        static_cast<ExcKind>(ctx->pendingKind));
    if (handler >= 0) {
        ctx->pendingKind = 0;
        ctx->pendingSite = 0;
    }
    return handler;
}

} // namespace trapjit
