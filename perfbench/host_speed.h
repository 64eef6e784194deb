// Host-speed reference for the benchmark's timings.
//
// The benchmark runs on shared machines whose speed drifts by more than 1.5x
// within seconds, mostly through contention for caches and memory: set-up
// and measured phase slow down together, and so does fixed code that uses
// memory much the same way. HostSlowdown() times a fixed reference workload
// that owes nothing to src/ (a small event heap, hash tables, heap
// allocations and a 4 MB pointer chase) against its duration on the quiet
// reference host. Dividing a wall time measured next to it by that slowdown
// removes most of the drift, while a change to the simulator leaves the
// reference untouched and so shows in full.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

namespace perfbench {

// The reference workload's duration now over its duration on the quiet
// reference host: above 1 while the host runs slow.
double HostSlowdown();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
