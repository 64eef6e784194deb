#include "perfbench/host_speed.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/span_trace.h"

namespace perfbench {
namespace {

// One reference round on the quiet host this benchmark was tuned on (4 vCPUs
// at 2.0 GHz). It only sets the unit: another value would scale every
// normalized time alike.
constexpr double kQuietRoundNs = 6.0e6;
constexpr int kRounds = 3;

// SplitMix64, copied rather than taken from src/common/hash.h so that no
// change to src/ can alter the reference.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A single random cycle through 2^20 slots (4 MB): every step misses cache.
const std::vector<uint32_t>& Ring() {
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> order(1u << 20);
    std::iota(order.begin(), order.end(), 0u);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[Mix(i) % (i + 1)]);
    }
    std::vector<uint32_t> next(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      next[order[i]] = order[(i + 1) % order.size()];
    }
    return next;
  }();
  return ring;
}

// A miniature event loop: timed events on a binary heap, each touching the
// ring, a hash table and a fresh heap allocation.
uint64_t EventLoop() {
  struct Ev {
    uint64_t when;
    uint64_t seq;
    uint64_t key;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  const std::vector<uint32_t>& ring = Ring();
  std::priority_queue<Ev, std::vector<Ev>, Later> heap;
  std::unordered_map<uint64_t, uint64_t> table;
  uint64_t seq = 0;
  uint64_t pos = 0;
  uint64_t sum = 0;
  for (uint64_t i = 0; i < 4096; ++i) {
    heap.push({Mix(i) % 100000, seq++, Mix(i ^ 0x5eed)});
  }
  for (int i = 0; i < 20000; ++i) {
    const Ev ev = heap.top();
    heap.pop();
    pos = ring[(pos ^ ev.key) & (ring.size() - 1)];
    auto payload = std::make_unique<uint64_t[]>(8 + ev.key % 24);
    payload[0] = pos;
    table[ev.key & 0x3fff] += payload[0];
    if ((ev.key & 7) == 0) {
      table.erase((ev.key >> 8) & 0x3fff);
    }
    sum += payload[0] ^ table.size();
    heap.push({ev.when + 1 + Mix(ev.key) % 1000, seq++, Mix(ev.key ^ pos)});
  }
  return sum;
}

// Name churn: short strings built, hashed, inserted and erased.
uint64_t NameTable() {
  std::unordered_map<std::string, uint64_t> names;
  uint64_t sum = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    const auto [it, inserted] = names.emplace("name" + std::to_string(Mix(i) % 5000), i);
    sum += it->second + (inserted ? 1 : 0);
    if ((i & 3) == 0) {
      names.erase("name" + std::to_string(Mix(i + 1) % 5000));
    }
  }
  return sum + names.size();
}

}  // namespace

double HostSlowdown() {
  static volatile uint64_t sink = 0;
  std::array<uint64_t, kRounds> ns{};
  for (uint64_t& round : ns) {
    const uint64_t t0 = WallNs();
    sink = sink + EventLoop() + NameTable();
    round = WallNs() - t0;
  }
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[kRounds / 2]) / kQuietRoundNs;
}

}  // namespace perfbench
