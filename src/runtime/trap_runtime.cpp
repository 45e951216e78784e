#include "runtime/trap_runtime.h"

#include <atomic>
#include <csetjmp>
#include <csignal>
#include <cstring>

#include <pthread.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include "runtime/signal_stack.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

// Per-thread trap state: each thread that enters a guarded accessor arms
// its own jump buffer, so concurrent traps on different threads unwind
// independently.  The guard range is instance state but stored in
// atomics so the handler (which may run on any thread) reads it without
// a data race.  Arming uses sigsetjmp(buf, 0) — no sigprocmask syscall
// when nothing traps.  siglongjmp out of the handler keeps the
// handler's mask, which SA_NODEFER leaves alone only while our handler
// is the one the kernel entered: a foreign handler that blocks SIGSEGV
// and chains into ours would leave it blocked.  So the handler records
// the interrupted mask (uc_sigmask) and the recovery branch restores it,
// paying the syscall only on a trap.
thread_local sigjmp_buf t_trapJmp;
thread_local volatile sig_atomic_t t_trapArmed = 0;
thread_local sigset_t t_faultMask;
std::atomic<uintptr_t> g_guardLo{0};
std::atomic<uintptr_t> g_guardHi{0};
struct sigaction g_prevAction;

void
segvHandler(int signo, siginfo_t *info, void *context)
{
    uintptr_t fault = reinterpret_cast<uintptr_t>(info->si_addr);
    if (t_trapArmed &&
        fault >= g_guardLo.load(std::memory_order_relaxed) &&
        fault < g_guardHi.load(std::memory_order_relaxed)) {
        // A null-reference access inside the protected page: unwind back
        // to this thread's guarded accessor, which reports "NPE".
        t_trapArmed = 0;
        t_faultMask = static_cast<ucontext_t *>(context)->uc_sigmask;
        siglongjmp(t_trapJmp, 1);
    }
    // Not ours: chain to the previous handler (or die by default).
    if (g_prevAction.sa_flags & SA_SIGINFO) {
        if (g_prevAction.sa_sigaction)
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

} // namespace

TrapRuntime::TrapRuntime()
{
    ensureAltSignalStack();
    pageSize_ = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    void *page = mmap(nullptr, pageSize_, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED)
        TRAPJIT_FATAL("mmap of the protected page failed");
    pageBase_ = reinterpret_cast<uintptr_t>(page);
    g_guardLo.store(pageBase_, std::memory_order_relaxed);
    g_guardHi.store(pageBase_ + pageSize_, std::memory_order_relaxed);

    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = segvHandler;
    action.sa_flags = SA_SIGINFO | SA_NODEFER | SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGSEGV, &action, &g_prevAction) != 0)
        TRAPJIT_FATAL("sigaction(SIGSEGV) failed");
    handlerInstalled_ = true;
}

TrapRuntime::~TrapRuntime()
{
    if (handlerInstalled_)
        sigaction(SIGSEGV, &g_prevAction, nullptr);
    if (pageBase_ != 0)
        munmap(reinterpret_cast<void *>(pageBase_), pageSize_);
    g_guardLo.store(0, std::memory_order_relaxed);
    g_guardHi.store(0, std::memory_order_relaxed);
}

std::optional<int32_t>
TrapRuntime::guardedReadI32(uintptr_t addr)
{
    ensureAltSignalStack();
    if (sigsetjmp(t_trapJmp, 0) != 0) {
        // We arrive here from the handler: the access trapped.
        pthread_sigmask(SIG_SETMASK, &t_faultMask, nullptr);
        trapsTaken_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    t_trapArmed = 1;
    int32_t value = *reinterpret_cast<volatile int32_t *>(addr);
    t_trapArmed = 0;
    return value;
}

bool
TrapRuntime::guardedWriteI32(uintptr_t addr, int32_t value)
{
    ensureAltSignalStack();
    if (sigsetjmp(t_trapJmp, 0) != 0) {
        pthread_sigmask(SIG_SETMASK, &t_faultMask, nullptr);
        trapsTaken_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    t_trapArmed = 1;
    *reinterpret_cast<volatile int32_t *>(addr) = value;
    t_trapArmed = 0;
    return true;
}

bool
TrapRuntime::trapCoversAddress(uintptr_t addr) const
{
    return addr >= pageBase_ && addr < pageBase_ + pageSize_;
}

} // namespace trapjit
