// Fourth observability pillar: the profiler. The other pillars answer
// "what happened" (traces, events) and "how much" (metrics, SLO); this one
// answers "what it COST", in two clocks at once:
//
//   * Sim time — per-host utilization ledgers attributing every simulated
//     busy nanosecond to cpu / queue / disk / wire, extending the per-request
//     critical-path breakdown (obs/critical_path.h) to whole-host
//     utilization. Charges are pure integer adds against sim-deterministic
//     quantities, so the ledger export is byte-identical across same-seed
//     runs and packet-pool on/off.
//   * Wall clock — hierarchical scope timings (cycle counter, calibrated to
//     ns) for the real fast path: per-stage cost of µproxy decode / route /
//     rewrite / soft-state / trace / metrics work, rpc dispatch, storage
//     cache/disk charging, dir name ops, and the event-loop dispatch itself
//     so DES overhead is attributed rather than smeared.
//
// Discipline matches LogEvent/Inc: components hold a null Profiler pointer
// by default, every charge/scope helper is a single branch when disabled,
// and the enabled path never touches the heap (fixed node pool, fixed scope
// stack, cached ledger pointers) — the zero-alloc fast-path invariant holds
// with the profiler on (tests/fastpath_alloc_test.cc).
//
// Export: canonical JSON ({"profile":{"sim":...,"wall":...}}) merged into
// the flight dump, a collapsed-stack rendering for FlameGraph/speedscope,
// and ProfileSimHash — FNV-1a over the sim section ONLY, because wall-clock
// values vary across machines and must stay out-of-hash.
#ifndef SLICE_OBS_PROFILER_H_
#define SLICE_OBS_PROFILER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/event_queue.h"

namespace slice::obs {

// Wall-clock scope identities. One X-macro so the enum, the exported names
// and the stage tables in benches/tools can never drift apart.
#define SLICE_PROFILE_SCOPES(X)         \
  X(kSimDispatch, "sim.dispatch")       \
  X(kUproxyOutbound, "uproxy.outbound") \
  X(kUproxyDecode, "uproxy.decode")     \
  X(kUproxyRoute, "uproxy.route")       \
  X(kUproxySoftState, "uproxy.soft_state") \
  X(kUproxyTrace, "uproxy.trace")       \
  X(kUproxyRewrite, "uproxy.rewrite")   \
  X(kUproxyAttrPatch, "uproxy.attr_patch") \
  X(kUproxyMetrics, "uproxy.metrics")   \
  X(kUproxyInbound, "uproxy.inbound")   \
  X(kRpcDispatch, "rpc.dispatch")       \
  X(kStorageCache, "storage.cache")     \
  X(kStorageDisk, "storage.disk")       \
  X(kDirNameOp, "dir.name_op")

enum class ProfScope : uint8_t {
#define SLICE_PROF_ENUM(sym, name) sym,
  SLICE_PROFILE_SCOPES(SLICE_PROF_ENUM)
#undef SLICE_PROF_ENUM
};
inline constexpr size_t kNumProfScopes = 0
#define SLICE_PROF_COUNT(sym, name) +1
    SLICE_PROFILE_SCOPES(SLICE_PROF_COUNT)
#undef SLICE_PROF_COUNT
    ;
const char* ProfScopeName(ProfScope scope);

// Sim-time ledger categories — same taxonomy as the critical-path span
// categories, minus service (a host is never "busy being remote").
enum class LedgerCat : uint8_t { kCpu = 0, kQueue = 1, kDisk = 2, kWire = 3 };
inline constexpr size_t kNumLedgerCats = 4;
const char* LedgerCatName(LedgerCat cat);

struct ProfilerParams {
  bool enabled = false;
};

class Profiler {
 public:
  // Raw monotonic cycle reading. rdtsc / cntvct are ~5-20 cycles vs ~25ns
  // for steady_clock; on other targets fall back to the chrono clock.
  static uint64_t Ticks() {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  explicit Profiler(const ProfilerParams& params);

  // --- sim-time ledger -------------------------------------------------
  //
  // LedgerFor returns a stable pointer to the host's 4-slot nanosecond
  // ledger (created on first use; std::map nodes never move). Components
  // cache it once at construction, so a steady-state charge is one add.
  uint64_t* LedgerFor(uint32_t host);

  // The coverage reference: per-host *independent* busy-time totals
  // (BusyResource accounting). Every component that owns busy resources
  // (NICs, server and proxy CPUs, storage arms + channel) adds a provider at
  // construction; each adds its hosts' busy nanoseconds into the map.
  // Coverage = (cpu+disk+wire attributed) / busy must be >= 99% in profiled
  // runs. Providers capture their component, so export only while every
  // provider's owner is alive (the ensemble destroys the profiler last).
  using BusyProvider = std::function<void(std::map<uint32_t, uint64_t>*)>;
  void AddBusyProvider(BusyProvider provider) { busy_providers_.push_back(std::move(provider)); }

  // --- wall-clock scope engine -----------------------------------------
  //
  // Begin/End pair into a path tree (fixed node pool, fixed-depth stack).
  // Per-pair measurement overhead is calibrated at construction (self cost
  // as seen by the pair itself, nested cost as seen by an enclosing scope)
  // and subtracted at pop, so stage sums track the unprofiled totals
  // closely enough for the table3 attribution check.
  void BeginScope(ProfScope scope) {
    if (depth_ >= kMaxDepth) {
      ++dropped_scopes_;
      ++depth_;  // keep pairing: EndScope undoes the overflow levels first
      return;
    }
    Frame& f = stack_[depth_++];
    f.node = FindOrAddChild(depth_ > 1 ? stack_[depth_ - 2].node : 0, scope);
    f.pops_at_push = pops_;
    f.child_ticks = 0;
    f.start = Ticks();
  }

  void EndScope() {
    const uint64_t end = Ticks();
    if (depth_ == 0) {
      return;  // unbalanced pop — ignore defensively
    }
    if (depth_ > kMaxDepth) {
      --depth_;  // overflow level recorded nothing
      return;
    }
    Frame& f = stack_[--depth_];
    const uint64_t inner_pops = pops_ - f.pops_at_push;
    ++pops_;
    uint64_t raw = end - f.start;
    // Subtract calibrated measurement overhead: this pair's own recorded
    // slice plus the full cost of every pair that popped inside it.
    const uint64_t overhead = ovh_self_ticks_ + inner_pops * ovh_nested_ticks_;
    uint64_t adjusted = raw > overhead ? raw - overhead : 0;
    if (adjusted < f.child_ticks) {
      adjusted = f.child_ticks;  // inclusive can never undercut its children
    }
    Node& n = nodes_[f.node];
    ++n.count;
    n.ticks += adjusted;
    n.child_ticks += f.child_ticks;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ticks += adjusted;
    }
  }

  // RAII guard used by components; single branch when the pointer is null.
  class Scope {
   public:
    Scope(Profiler* p, ProfScope s) : p_(p) {
      if (p_ != nullptr) {
        p_->BeginScope(s);
      }
    }
    ~Scope() {
      if (p_ != nullptr) {
        p_->EndScope();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* p_;
  };

  // Per-scope rollups (adjusted ticks converted to ns). Used by the table3
  // attribution report and tests; export uses the full tree.
  uint64_t ScopeInclusiveNs(ProfScope scope) const;
  uint64_t ScopeExclusiveNs(ProfScope scope) const;
  uint64_t ScopeCount(ProfScope scope) const;

  // Resets wall-clock state (tree + stack) but not the sim ledger — lets a
  // bench warm up scope paths, then measure a clean window.
  void ResetWall();

  // --- export ------------------------------------------------------------
  //
  // The "sim" object alone: per-host ledgers plus busy/coverage from the
  // busy provider. Byte-identical same-seed; this is what gets hashed.
  std::string ExportProfileSimJson() const;
  // Full {"profile":{"sim":...,"wall":...}} object (wall ns values are
  // machine-dependent — out of every pinned hash).
  std::string ExportProfileJson() const;
  // Collapsed-stack rendering ("a;b;c <exclusive_ns>" lines, sorted) for
  // FlameGraph / speedscope.
  std::string ExportProfileFolded() const;
  // FNV-1a over ExportProfileSimJson() bytes.
  uint64_t ProfileSimHash() const;
  // Lowest per-host coverage (basis points of attributed/busy) over hosts
  // with nonzero busy time; 10000 when the provider reports none. The fig5
  // acceptance bar is >= 9900 on every host.
  uint64_t MinCoverageBp() const;

  uint64_t ns_from_ticks(uint64_t ticks) const;
  uint64_t dropped_scopes() const { return dropped_scopes_; }
  // Calibration readbacks (diagnostics): the per-pair overhead constants
  // subtracted at pop, in ns.
  uint64_t overhead_self_ns() const { return ns_from_ticks(ovh_self_ticks_); }
  uint64_t overhead_nested_ns() const { return ns_from_ticks(ovh_nested_ticks_); }

 private:
  static constexpr size_t kMaxDepth = 32;
  static constexpr size_t kMaxNodes = 256;

  struct Node {
    ProfScope scope;
    uint32_t parent = 0;       // node index; 0 = synthetic root
    uint32_t first_child = 0;  // 0 = none (root is never a child)
    uint32_t next_sibling = 0;
    uint64_t count = 0;
    uint64_t ticks = 0;        // inclusive, overhead-adjusted
    uint64_t child_ticks = 0;  // sum of direct children's inclusive ticks
  };
  struct Frame {
    uint32_t node;
    uint64_t start;
    uint64_t pops_at_push;
    uint64_t child_ticks;
  };

  uint32_t FindOrAddChild(uint32_t parent, ProfScope scope) {
    for (uint32_t c = nodes_[parent].first_child; c != 0; c = nodes_[c].next_sibling) {
      if (nodes_[c].scope == scope) {
        return c;
      }
    }
    if (node_count_ >= kMaxNodes) {
      return parent;  // pool exhausted: fold into the parent, never allocate
    }
    const uint32_t idx = node_count_++;
    Node& n = nodes_[idx];
    n.scope = scope;
    n.parent = parent;
    n.first_child = 0;
    n.next_sibling = nodes_[parent].first_child;
    n.count = 0;
    n.ticks = 0;
    n.child_ticks = 0;
    nodes_[parent].first_child = idx;
    return idx;
  }

  void Calibrate();
  void AppendWallJson(std::string& out) const;
  std::map<uint32_t, uint64_t> CollectBusy() const;

  Node nodes_[kMaxNodes];
  uint32_t node_count_ = 1;  // node 0 is the synthetic root
  Frame stack_[kMaxDepth];
  size_t depth_ = 0;
  uint64_t pops_ = 0;
  uint64_t dropped_scopes_ = 0;

  // Calibration: ns per raw tick (scaled by 2^20 for integer math) and the
  // two per-pair overhead constants, all measured at construction.
  uint64_t ns_per_tick_shifted_ = 1 << 20;  // ns = ticks * this >> 20
  uint64_t ovh_self_ticks_ = 0;
  uint64_t ovh_nested_ticks_ = 0;

  std::map<uint32_t, std::array<uint64_t, kNumLedgerCats>> ledger_;
  std::vector<BusyProvider> busy_providers_;
};

// Null-safe ledger charge: `ledger` is the pointer cached from LedgerFor
// (null when profiling is off) — one branch, one add.
inline void ChargeSim(uint64_t* ledger, LedgerCat cat, SimTime dur) {
  if (ledger != nullptr) {
    ledger[static_cast<size_t>(cat)] += dur;
  }
}

}  // namespace slice::obs

#endif  // SLICE_OBS_PROFILER_H_
