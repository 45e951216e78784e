#include "codegen/native/native_runtime.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <mutex>

#include <sys/mman.h>

#if defined(__x86_64__) && defined(__linux__)
#include <ucontext.h>
#endif

#include "codegen/native/native_compiler.h"
#include "ir/module.h"
#include "runtime/signal_stack.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

thread_local NativeActivation *t_activation = nullptr;
thread_local TieredRun *t_tieredRun = nullptr;

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

#if defined(__x86_64__) && defined(__linux__)
/**
 * Resolve a fault whose PC lies inside a published tiered block: the
 * in-signal-handler equivalent of NativeEngine's trap wrapper.  All
 * decisions mirror FastInterpreter::handleNullAccess bit for bit; the
 * outcome is a rewritten REG_RIP (resume, catch handler, or the
 * block's unwind exit) — no siglongjmp, no per-frame setup.
 * Everything here is async-signal-safe: binary search, flag tests and
 * plain stores; messages are built later, engine-side, from the
 * parked (code, record, function) triple.
 */
void
resolveTieredFault(const TieredRun &run, const TieredBlockRange &blk,
                   ucontext_t *uc, siginfo_t *info)
{
    greg_t *gregs = uc->uc_mcontext.gregs;
    NativeContext *ctx =
        reinterpret_cast<NativeContext *>(gregs[REG_R12]);
    uint64_t *slots = reinterpret_cast<uint64_t *>(gregs[REG_RBX]);
    uintptr_t pc = static_cast<uintptr_t>(gregs[REG_RIP]);
    uintptr_t fault = reinterpret_cast<uintptr_t>(info->si_addr);
    const NativeCode &nc = *blk.nc;
    const DecodedFunction &df = *blk.df;

    const NativeTrapSite *site =
        nc.findSite(static_cast<uint32_t>(pc - blk.lo));
    const DecodedInst *rec =
        site != nullptr ? &df.code[site->recordIndex] : nullptr;

    auto park = [&](TieredPark code) {
        ctx->parkCode = static_cast<int32_t>(code);
        ctx->parkRec = site != nullptr ? site->recordIndex : 0;
        ctx->parkDf = &df;
        ctx->hardFault = 1;
        gregs[REG_RIP] =
            static_cast<greg_t>(blk.lo + nc.unwindOffset);
    };

    bool inGuard = fault >= run.guardLo && fault < run.guardHi;
    if (!inGuard || rec == nullptr || slots[rec->a] != 0) {
        park(TieredPark::Wild);
        return;
    }
    // Loads (and ArrayLength) substitute the zero the interpreter
    // writes through handleNullAccess's return value — including on
    // the trap-NPE path, where the write precedes dispatch.
    auto zeroDst = [&]() {
        if (rec->dst != kNoValue &&
            (rec->srcOp == Opcode::GetField ||
             rec->srcOp == Opcode::ArrayLength ||
             rec->srcOp == Opcode::ArrayLoad))
            slots[rec->dst] = 0;
    };
    if (rec->flags & kDecodedSpeculative) {
        if (rec->flags & kDecodedSpecSafe) {
            ++*run.specReads;
            zeroDst();
            gregs[REG_RIP] =
                static_cast<greg_t>(blk.lo + site->resumeNext);
        } else {
            park(TieredPark::SpecUnsafe);
        }
        return;
    }
    if (rec->flags & kDecodedExceptionSite) {
        if (rec->flags & kDecodedTrapCovered) {
            ++*run.trapsTaken;
            zeroDst();
            int32_t handler = nativeFindHandlerIndex(
                df, rec->tryRegion, ExcKind::NullPointer);
            if (handler >= 0) {
                gregs[REG_RIP] = static_cast<greg_t>(
                    blk.lo + nc.recordOffsets[handler]);
            } else {
                ctx->pendingKind =
                    static_cast<int32_t>(ExcKind::NullPointer);
                ctx->pendingSite = rec->site;
                gregs[REG_RIP] =
                    static_cast<greg_t>(blk.lo + nc.unwindOffset);
            }
            return;
        }
        if (rec->flags & kDecodedIllegalZero) {
            zeroDst();
            gregs[REG_RIP] =
                static_cast<greg_t>(blk.lo + site->resumeNext);
            return;
        }
        park(TieredPark::NotTrapCovered);
        return;
    }
    park(TieredPark::Unchecked);
}
#endif

void
nativeSegvHandler(int signo, siginfo_t *info, void *context)
{
#if defined(__x86_64__) && defined(__linux__)
    if (const TieredRun *run = t_tieredRun; run != nullptr) {
        ucontext_t *uc = static_cast<ucontext_t *>(context);
        uintptr_t pc =
            static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
        // Fresh acquire load per fault: a block published after this
        // root call started must still be recognized.
        const TieredPcMap *map =
            run->pcMap->load(std::memory_order_acquire);
        const TieredBlockRange *blk =
            map != nullptr ? map->find(pc) : nullptr;
        if (blk != nullptr) {
            resolveTieredFault(*run, *blk, uc, info);
            return;
        }
    }
    NativeActivation *act = t_activation;
    if (act != nullptr) {
        ucontext_t *uc = static_cast<ucontext_t *>(context);
        uintptr_t pc =
            static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
        if (pc >= act->codeLo && pc < act->codeHi) {
            uintptr_t fault = reinterpret_cast<uintptr_t>(info->si_addr);
            act->faultPc = pc;
            act->faultAddr = fault;
            // The budget count lives in r14 while JIT code runs; the
            // wrapper writes it back to the context before resuming.
            act->faultBudget =
                static_cast<int64_t>(uc->uc_mcontext.gregs[REG_R14]);
            // What sigreturn would have reinstated; the recovery branch
            // restores it, since siglongjmp keeps the handler's mask.
            act->faultMask = uc->uc_sigmask;
            bool inGuard = fault >= act->guardLo && fault < act->guardHi;
            siglongjmp(act->jmp, inGuard ? 1 : 2);
        }
    }
#endif
    chainToPrevious(signo, info, context);
}

} // namespace

void
nativePushActivation(NativeActivation *act)
{
    act->prev = t_activation;
    t_activation = act;
}

void
nativePopActivation(NativeActivation *act)
{
    TRAPJIT_ASSERT(t_activation == act, "activation stack out of order");
    t_activation = act->prev;
}

FramePool::FramePool(const Module &mod, size_t maxCallDepth)
{
    size_t widest = 1;
    for (FunctionId f = 0; f < mod.numFunctions(); ++f)
        widest = std::max(widest, mod.function(f).numValues());
    bytes_ = (maxCallDepth + 2) * widest * 8;
    void *mem = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED)
        TRAPJIT_FATAL("cannot reserve a ", bytes_,
                      "-byte native frame pool");
    base_ = static_cast<uint8_t *>(mem);
}

FramePool::~FramePool()
{
    munmap(base_, bytes_);
}

const TieredBlockRange *
TieredPcMap::find(uintptr_t pc) const
{
    auto it = std::upper_bound(
        blocks.begin(), blocks.end(), pc,
        [](uintptr_t p, const TieredBlockRange &b) { return p < b.lo; });
    if (it == blocks.begin())
        return nullptr;
    --it;
    return pc >= it->lo && pc < it->hi ? &*it : nullptr;
}

void
tieredEnterRun(TieredRun *run)
{
    run->prev = t_tieredRun;
    t_tieredRun = run;
}

void
tieredExitRun(TieredRun *run)
{
    TRAPJIT_ASSERT(t_tieredRun == run, "tiered run scope out of order");
    t_tieredRun = run->prev;
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
    const DecodedFunction &df = *ctx->frame->df;
    int32_t handler = nativeFindHandlerIndex(
        df, static_cast<TryRegionId>(tryRegion),
        static_cast<ExcKind>(ctx->pendingKind));
    if (handler >= 0) {
        ctx->pendingKind = 0;
        ctx->pendingSite = 0;
    }
    return handler;
}

extern "C" int32_t
trapjitTieredFindHandler(NativeContext *ctx, uint32_t tryRegion)
{
    const DecodedFunction &df = *ctx->activeDf;
    int32_t handler = nativeFindHandlerIndex(
        df, static_cast<TryRegionId>(tryRegion),
        static_cast<ExcKind>(ctx->pendingKind));
    if (handler >= 0) {
        ctx->pendingKind = 0;
        ctx->pendingSite = 0;
    }
    return handler;
}

} // namespace trapjit
