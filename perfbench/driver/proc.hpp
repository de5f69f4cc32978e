// Process-level measurements for the benchmark: wall clock, CPU time and
// resident memory. Every reader fails closed — a benchmark that cannot
// read its own memory counters must not print a number.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since an arbitrary fixed point.
double wall_seconds();

// User + system CPU seconds consumed by every thread of this process.
double cpu_seconds();

// A "<key>: <n> kB" field of /proc/self/status (e.g. "VmHWM"), in KiB.
// Throws std::runtime_error when the file or the field cannot be read.
std::size_t status_kb(const char* key);

// Bytes the allocator has handed out and not yet had back (mallinfo2:
// in-use heap chunks plus mmap'd chunks). Unlike VmRSS it does not depend
// on how much freed heap the allocator keeps from earlier work.
std::size_t heap_bytes();

// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

class Stopwatch {
 public:
  Stopwatch() : wall_(wall_seconds()), cpu_(cpu_seconds()) {}
  double wall() const { return wall_seconds() - wall_; }
  double cpu() const { return cpu_seconds() - cpu_; }

 private:
  double wall_;
  double cpu_;
};

}  // namespace perfbench
