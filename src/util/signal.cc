#include "util/signal.hh"

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>

#include "util/logging.hh"

namespace beer::util
{

namespace
{

std::atomic<bool> shutdownFlag{false};
// Self-pipe; write end is signal-handler-async-safe (write(2) only).
int wakePipe[2] = {-1, -1};
bool installed = false;

void
handleShutdownSignal(int signo)
{
    if (shutdownFlag.exchange(true)) {
        // Second signal: restore the default disposition and re-raise,
        // so a stuck shutdown can still be interrupted.
        std::signal(signo, SIG_DFL);
        raise(signo);
        return;
    }
    if (wakePipe[1] >= 0) {
        const char byte = 1;
        // Best-effort: a full pipe still leaves the fd readable.
        (void)!write(wakePipe[1], &byte, 1);
    }
}

} // anonymous namespace

void
installShutdownHandler()
{
    if (installed)
        return;
    if (pipe(wakePipe) != 0) {
        warn("shutdown handler: pipe() failed; poll loops will rely "
             "on EINTR only");
        wakePipe[0] = wakePipe[1] = -1;
    } else {
        for (int fd : wakePipe) {
            fcntl(fd, F_SETFL, O_NONBLOCK);
            fcntl(fd, F_SETFD, FD_CLOEXEC);
        }
    }

    struct sigaction action = {};
    action.sa_handler = handleShutdownSignal;
    sigemptyset(&action.sa_mask);
    // No SA_RESTART: blocking syscalls return EINTR so loops re-check
    // shutdownRequested().
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
    installed = true;
}

bool
shutdownRequested()
{
    return shutdownFlag.load(std::memory_order_relaxed);
}

int
shutdownWakeFd()
{
    return wakePipe[0];
}

} // namespace beer::util
