// The observer's bounded ring: keeps the newest `capacity` entries, and a
// push into a full ring overwrites the oldest (soft state, like everything
// else the observer keeps). Span rings, event rings, time series and the SLO
// engine's burn-window snapshots are all this one ring.
#ifndef SLICE_OBS_RING_H_
#define SLICE_OBS_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slice::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity) : slots_(capacity > 0 ? capacity : 1) {}

  void Push(const T& value) {
    if (size_ == slots_.size()) {
      slots_[head_] = value;  // overwrite the oldest slot
      head_ = (head_ + 1) % slots_.size();
      ++overwritten_;
    } else {
      slots_[(head_ + size_) % slots_.size()] = value;
      ++size_;
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  // Entries lost to overwriting since the ring was made.
  uint64_t overwritten() const { return overwritten_; }
  // i-th entry, oldest first.
  const T& at(size_t i) const { return slots_[(head_ + i) % slots_.size()]; }
  const T& back() const { return at(size_ - 1); }

  // Appends the ring's entries, oldest first, to `out`.
  void CopyTo(std::vector<T>& out) const {
    for (size_t i = 0; i < size_; ++i) {
      out.push_back(at(i));
    }
  }

 private:
  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
  uint64_t overwritten_ = 0;
};

}  // namespace slice::obs

#endif  // SLICE_OBS_RING_H_
