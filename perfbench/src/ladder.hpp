// The layer ladder: each layer's public call timed in isolation (median
// of repeated fixed-count batches), with heap allocations per call, plus
// the part of an uncached remote resolve that no timed part accounts for.
#pragma once

#include "report.hpp"

namespace perfbench {

/// Runs in a few seconds on its own fixed inputs; the result does not
/// depend on the workload or seed.
MetricSet run_ladder();

}  // namespace perfbench
