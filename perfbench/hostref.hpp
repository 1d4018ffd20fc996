// Host reference: a frozen multiply loop that links nothing from src/, so
// its speed moves only with the machine. Timed before and after every run,
// it lets a reader tell host drift from a change in the program.
#pragma once

namespace mccls::perfbench {

/// Nanoseconds per iteration of the frozen reference loop (median of 7).
double host_ref_ns();

}  // namespace mccls::perfbench
