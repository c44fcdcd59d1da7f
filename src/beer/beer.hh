/**
 * @file
 * Umbrella header for the BEER methodology. beer::Session
 * (session.hh) runs the full recovery against any
 * dram::MemoryInterface backend: measure the miscorrection profile
 * with the 1-CHARGED patterns, solve, and — if the code is shortened
 * and the solution is not yet unique — extend the measurement with the
 * 2-CHARGED patterns and re-solve (paper Section 4.2.4).
 */

#ifndef BEER_BEER_BEER_HH
#define BEER_BEER_BEER_HH

#include "beer/discovery.hh"
#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "beer/session.hh"
#include "beer/solver.hh"
#include "dram/chip.hh"

#endif // BEER_BEER_BEER_HH
