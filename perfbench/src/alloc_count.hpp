// Heap-allocation counting for the layer ladder. The benchmark binaries
// replace the global operator new (alloc_count.cpp); the library is not
// touched. Counting is off by default so the timed workload phases pay
// one relaxed load per allocation and nothing more.
#pragma once

#include <cstdint>

namespace perfbench {

/// Start counting allocations made on any thread from now on.
void alloc_count_begin();
/// Stop counting; returns the allocations seen since alloc_count_begin().
std::uint64_t alloc_count_end();

}  // namespace perfbench
