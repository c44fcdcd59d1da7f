/**
 * @file
 * Shared graceful-shutdown handling for long-running tools.
 *
 * One process-wide SIGINT/SIGTERM handler sets a flag and writes one
 * byte to a self-pipe, so both polling loops (check
 * shutdownRequested() between work units, as the measurement loop and
 * beer_profile_gen do) and fd-driven loops (poll() on
 * shutdownWakeFd() alongside their own fds, as beer_serve's HTTP
 * accept loop does) observe the request without races or EINTR
 * gymnastics. Handlers are installed without SA_RESTART on purpose:
 * blocking accept()/read() calls return EINTR and their loops re-check
 * the flag.
 *
 * The flag is process-wide and latches.
 */

#ifndef BEER_UTIL_SIGNAL_HH
#define BEER_UTIL_SIGNAL_HH

namespace beer::util
{

/**
 * Install the SIGINT/SIGTERM handler (idempotent). A second signal
 * after the first re-raises the default disposition, so a wedged
 * process can still be killed with a second Ctrl-C.
 */
void installShutdownHandler();

/** True once a shutdown signal arrived. */
bool shutdownRequested();

/**
 * Read end of the shutdown self-pipe for poll()/select() loops;
 * becomes readable when shutdown is requested. -1 until
 * installShutdownHandler() has run.
 */
int shutdownWakeFd();

} // namespace beer::util

#endif // BEER_UTIL_SIGNAL_HH
