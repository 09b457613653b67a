// The library's one environment knob: the default worker count.
#pragma once

namespace parmvn {

/// Number of worker threads to use by default: $PARMVN_NUM_THREADS if set
/// and non-empty, else std::thread::hardware_concurrency(), else 1. A set
/// value must be a positive decimal integer that fits in int, written with
/// nothing around it; anything else throws parmvn::Error naming the
/// variable.
int default_num_threads();

}  // namespace parmvn
