#include "tests/alloc_counter.h"

#include <cstdlib>
#include <new>

// Every replaced form takes its memory from malloc and returns it with free,
// so no allocation can be released through a non-matching runtime form. The
// nothrow forms matter for that: std::stable_sort's temporary buffer comes
// from nothrow new and goes back through plain operator delete.
static uint64_t g_allocs = 0;

uint64_t AllocCount() { return g_allocs; }

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
