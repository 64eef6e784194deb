// Counting replacement of the global operator new (alloc_counter.cc),
// linked into the tests that pin allocation-free paths. It counts every
// allocation in the process; tests measure deltas of AllocCount() around
// the calls under scrutiny, because the harness itself allocates.
#ifndef SLICE_TESTS_ALLOC_COUNTER_H_
#define SLICE_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

uint64_t AllocCount();

#endif  // SLICE_TESTS_ALLOC_COUNTER_H_
