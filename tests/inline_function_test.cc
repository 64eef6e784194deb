// Unit tests for InlineFunction: where a target is stored, what a move
// leaves behind, that every capture is destroyed exactly once, and that
// move-only captures work.
#include "src/common/inline_function.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

#include "tests/alloc_counter.h"

namespace slice {
namespace {

using Fn = InlineFunction<int(int), 32>;

// A callable of exactly `Size` bytes.
template <size_t Size>
struct Sized {
  std::array<unsigned char, Size> bytes{};
  int operator()(int x) const { return x + static_cast<int>(bytes.size()); }
};

// A callable that may throw when moved.
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  int operator()(int x) const { return -x; }
};

TEST(InlineFunctionTest, CaptureAtTheLimitStaysInlineAndOnePastItAllocates) {
  static_assert(sizeof(Sized<32>) == 32 && sizeof(Sized<33>) == 33);
  static_assert(Fn::kStoresInline<Sized<32>>);
  static_assert(!Fn::kStoresInline<Sized<33>>);

  uint64_t before = AllocCount();
  Fn at_limit = Sized<32>{};
  Fn moved = std::move(at_limit);
  EXPECT_EQ(moved(1), 33);
  EXPECT_EQ(AllocCount() - before, 0u);

  before = AllocCount();
  Fn past_limit = Sized<33>{};
  EXPECT_EQ(AllocCount() - before, 1u);
  Fn moved_past = std::move(past_limit);  // moves the pointer, not the target
  EXPECT_EQ(moved_past(1), 34);
  EXPECT_EQ(AllocCount() - before, 1u);
}

TEST(InlineFunctionTest, ATargetWhoseMoveMayThrowGoesToTheHeap) {
  static_assert(sizeof(ThrowingMove) <= 32);
  static_assert(!Fn::kStoresInline<ThrowingMove>);
  const uint64_t before = AllocCount();
  Fn f = ThrowingMove{};
  EXPECT_EQ(AllocCount() - before, 1u);
  EXPECT_EQ(f(5), -5);
}

TEST(InlineFunctionTest, MoveLeavesTheSourceEmpty) {
  Fn inline_fn = Sized<8>{};
  Fn heap_fn = Sized<64>{};
  Fn a = std::move(inline_fn);
  Fn b;
  b = std::move(heap_fn);
  EXPECT_FALSE(inline_fn);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(heap_fn);    // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a(0), 8);
  EXPECT_EQ(b(0), 64);
  EXPECT_FALSE(Fn());
  EXPECT_FALSE(Fn(nullptr));
}

// Counts its own destruction; a moved-from Tracked counts nothing.
struct Tracked {
  explicit Tracked(int* counter) : destroyed(counter) {}
  Tracked(Tracked&& other) noexcept : destroyed(std::exchange(other.destroyed, nullptr)) {}
  ~Tracked() {
    if (destroyed != nullptr) {
      ++*destroyed;
    }
  }
  int* destroyed;
};

template <size_t Pad>
struct TrackedFn {
  Tracked tracked;
  std::array<unsigned char, Pad> pad{};
  int operator()(int x) const { return x; }
};

// Moves, move-assigns over and resets functions holding TrackedFn<Pad>
// captures, checking after each step how many captures have died.
template <size_t Pad>
void ExpectEachCaptureDestroyedOnce() {
  int destroyed = 0;
  {
    Fn a = TrackedFn<Pad>{Tracked(&destroyed)};
    Fn b = std::move(a);
    Fn c;
    c = std::move(b);
    EXPECT_EQ(c(3), 3);
    EXPECT_EQ(destroyed, 0);
    c = nullptr;
    EXPECT_EQ(destroyed, 1);

    Fn d = TrackedFn<Pad>{Tracked(&destroyed)};
    Fn e = TrackedFn<Pad>{Tracked(&destroyed)};
    d = std::move(e);  // d's own capture dies, e's moves in
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 3);  // d's capture, at the end of its scope
}

TEST(InlineFunctionTest, InlineCaptureIsDestroyedExactlyOnce) {
  static_assert(Fn::kStoresInline<TrackedFn<0>>);
  ExpectEachCaptureDestroyedOnce<0>();
}

TEST(InlineFunctionTest, HeapCaptureIsDestroyedExactlyOnce) {
  static_assert(!Fn::kStoresInline<TrackedFn<64>>);
  ExpectEachCaptureDestroyedOnce<64>();
}

TEST(InlineFunctionTest, MoveOnlyCaptureWorks) {
  Fn f = [owned = std::make_unique<int>(7)](int x) { return x + *owned; };
  EXPECT_EQ(f(1), 8);
  Fn g = std::move(f);
  EXPECT_EQ(g(2), 9);

  // A non-mutable lambda can call a captured function, as a reply wrapper
  // around a caller's callback does.
  auto wrapper = [inner = std::move(g)](int x) { return inner(x) * 2; };
  InlineFunction<int(int), 48> outer = std::move(wrapper);
  EXPECT_EQ(outer(3), 20);
}

}  // namespace
}  // namespace slice
