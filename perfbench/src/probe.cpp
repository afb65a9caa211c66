#include "probe.hpp"

#include "report.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 18;  // 2 MiB

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

volatile std::uint64_t g_sink;

}  // namespace

HostProbe::HostProbe() : table_(kTableWords) {
  for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = splitmix(i);
}

double HostProbe::run() {
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t x = state_;
  std::uint64_t acc = 0;
  const double start = host_now();
  // Each index depends on the last load, so the chain runs at the latency
  // of the cache level the table sits in.
  for (std::uint32_t i = 0; i < kOps; ++i) {
    x = splitmix(x + acc);
    acc += table_[x & mask];
    table_[(x >> 32) & mask] ^= acc;
  }
  const double elapsed = host_now() - start;
  state_ = x;
  g_sink = acc;
  return static_cast<double>(kOps) / elapsed;
}

}  // namespace perfbench
