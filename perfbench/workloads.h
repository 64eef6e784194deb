// The benchmark's three workloads. Each builds a real Ensemble with every
// obs pillar at its default (off), populates it in Setup (timed as set-up),
// runs a fixed amount of simulated work in Measure (the measured phase), and
// checks the simulated file system afterwards in Verify. Inputs come only
// from the seed, so a run is deterministic and every repetition of one seed
// simulates exactly the same thing.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/slice/ensemble.h"

namespace perfbench {

struct OpClassTally {
  uint64_t attempted = 0;  // ops of this class that ended in the measured phase
  uint64_t failed = 0;     // of those, unexpected NFS status or RPC give-up
};

struct WorkloadResult {
  uint64_t completed = 0;  // ops that ended as the generator expects
  uint64_t failed = 0;     // ops that ended in an unexpected status or an RPC give-up
  slice::SimTime p50 = 0;  // sim-time latency of completed ops
  slice::SimTime p99 = 0;
  // Split by NFS op class; empty when the generator reports totals only.
  std::map<std::string, OpClassTally> by_class;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual slice::EnsembleConfig Config() const = 0;
  // Each returns an empty string on success, else what went wrong.
  virtual std::string Setup(slice::Ensemble& ensemble) = 0;
  virtual WorkloadResult Measure(slice::Ensemble& ensemble) = 0;
  virtual std::string Verify(slice::Ensemble& ensemble) = 0;
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
