#ifndef TRAPJIT_TESTING_SIGNAL_CHAIN_H_
#define TRAPJIT_TESTING_SIGNAL_CHAIN_H_

/**
 * @file
 * A foreign SIGSEGV handler for trap-recovery tests.
 *
 * Installed on top of trapjit's handler, it runs with SIGSEGV blocked
 * (SIGSEGV in its sa_mask, no SA_NODEFER) and forwards every fault to
 * the handler it replaced, the way a host runtime chains into ours.
 * Recovery that jumped out of trapjit's handler instead of returning
 * from it would leave SIGSEGV blocked, and the next guarded fault would
 * kill the process, so tests install it in a forked child
 * (EXPECT_EXIT).
 */

#include <csignal>
#include <cstring>

namespace trapjit
{

/** The handler the foreign one forwards to. */
inline struct sigaction g_chainedSegvAction;

/** Faults that went through the foreign handler. */
inline volatile sig_atomic_t g_foreignSegvEntries = 0;

inline void
foreignSegvHandler(int signo, siginfo_t *info, void *context)
{
    g_foreignSegvEntries = g_foreignSegvEntries + 1;
    g_chainedSegvAction.sa_sigaction(signo, info, context);
}

/**
 * Install the foreign handler over the current SIGSEGV action.  False
 * if that fails or the current action is not an SA_SIGINFO handler.
 */
inline bool
chainForeignSegvHandler()
{
    struct sigaction foreign;
    std::memset(&foreign, 0, sizeof(foreign));
    foreign.sa_sigaction = foreignSegvHandler;
    foreign.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&foreign.sa_mask);
    sigaddset(&foreign.sa_mask, SIGSEGV);
    return sigaction(SIGSEGV, &foreign, &g_chainedSegvAction) == 0 &&
           (g_chainedSegvAction.sa_flags & SA_SIGINFO) != 0;
}

inline bool
sameSignalMask(const sigset_t &a, const sigset_t &b)
{
    for (int sig = 1; sig < NSIG; ++sig)
        if (sigismember(&a, sig) != sigismember(&b, sig))
            return false;
    return true;
}

} // namespace trapjit

#endif // TRAPJIT_TESTING_SIGNAL_CHAIN_H_
