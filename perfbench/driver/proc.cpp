#include "proc.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0)
    throw std::runtime_error("getrusage(RUSAGE_SELF) failed");
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::size_t status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  if (!status.is_open())
    throw std::runtime_error("cannot open /proc/self/status");
  const std::size_t key_length = std::strlen(key);
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key_length, key) != 0 || line.size() <= key_length ||
        line[key_length] != ':')
      continue;
    char* end = nullptr;
    const unsigned long long kb =
        std::strtoull(line.c_str() + key_length + 1, &end, 10);
    if (end == line.c_str() + key_length + 1)
      throw std::runtime_error("unparsable /proc/self/status field " +
                               std::string(key));
    return static_cast<std::size_t>(kb);
  }
  throw std::runtime_error("/proc/self/status has no field " +
                           std::string(key));
}

std::size_t heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
