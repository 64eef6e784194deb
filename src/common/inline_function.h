// A move-only callable that keeps its target in N bytes of inline storage.
//
// std::function keeps at most 16 trivially-copyable bytes inline and
// heap-allocates anything larger, so a per-call reply handler that captures
// a caller's callback allocates on every call. InlineFunction<R(Args...), N>
// stores any target of at most N bytes (and pointer alignment) whose move
// cannot throw in place; a larger target, or one whose move may throw, goes
// to the heap instead, so every callable still converts. Being move-only,
// it also takes move-only captures.
//
// Like std::function, operator() is const and calls the target as
// non-const, so a non-mutable lambda may invoke a captured InlineFunction.
#ifndef SLICE_COMMON_INLINE_FUNCTION_H_
#define SLICE_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/status.h"

namespace slice {

template <typename Signature, size_t N>
class InlineFunction;

template <typename R, typename... Args, size_t N>
class InlineFunction<R(Args...), N> {
 public:
  // Whether a target of type F is stored inline rather than on the heap.
  template <typename F>
  static constexpr bool kStoresInline = sizeof(F) <= N && alignof(F) <= alignof(void*) &&
                                        std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT: converts like std::function

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction(F&& f) {  // NOLINT: converts like std::function
    using Target = std::decay_t<F>;
    if constexpr (kStoresInline<Target>) {
      ::new (static_cast<void*>(storage_)) Target(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(storage_)) Target*(new Target(std::forward<F>(f)));
    }
    ops_ = &kOps<Target, kStoresInline<Target>>;
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) const {
    SLICE_CHECK(ops_ != nullptr);
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs the target into `to` and destroys the one in `from`.
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  // The target in `storage`: in place, or behind the pointer kept there.
  template <typename Target, bool kInline>
  static Target* TargetIn(void* storage) {
    if constexpr (kInline) {
      return std::launder(static_cast<Target*>(storage));
    } else {
      return *static_cast<Target**>(storage);
    }
  }

  template <typename Target, bool kInline>
  static R Invoke(void* storage, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(*TargetIn<Target, kInline>(storage), std::forward<Args>(args)...);
    } else {
      return std::invoke(*TargetIn<Target, kInline>(storage), std::forward<Args>(args)...);
    }
  }

  template <typename Target, bool kInline>
  static void Relocate(void* to, void* from) noexcept {
    if constexpr (kInline) {
      Target* source = TargetIn<Target, true>(from);
      ::new (to) Target(std::move(*source));
      source->~Target();
    } else {
      ::new (to) Target*(TargetIn<Target, false>(from));
    }
  }

  template <typename Target, bool kInline>
  static void Destroy(void* storage) noexcept {
    if constexpr (kInline) {
      TargetIn<Target, true>(storage)->~Target();
    } else {
      delete TargetIn<Target, false>(storage);
    }
  }

  template <typename Target, bool kInline>
  static constexpr Ops kOps{&Invoke<Target, kInline>, &Relocate<Target, kInline>,
                            &Destroy<Target, kInline>};

  void MoveFrom(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      std::exchange(ops_, nullptr)->destroy(storage_);
    }
  }

  static_assert(N >= sizeof(void*), "the heap fallback keeps a pointer inline");

  const Ops* ops_ = nullptr;
  alignas(void*) mutable unsigned char storage_[N];
};

}  // namespace slice

#endif  // SLICE_COMMON_INLINE_FUNCTION_H_
