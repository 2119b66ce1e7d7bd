// The benchmark's two workloads (see README.md for why each exists).
// Each builds its own Database, runs a closed loop for the requested
// time, checks every answer it can against computations made outside
// the engine, and fills in a Report: end-to-end metrics untraced,
// per-layer metrics traced.
#pragma once

#include "bench.h"

namespace perfbench {

/// The nine benchmark queries round-robin, sf 4, 4 machines.
Report run_bi9(const Options& options);
/// Two submit/await clients of single-start knows{1,2} / replyOf* point
/// RPQs plus an open-loop single-edge writer, sf 1, 4 machines.
Report run_serve_rw(const Options& options);

}  // namespace perfbench
