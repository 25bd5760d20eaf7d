#ifndef GALVATRON_UTIL_RING_BUFFER_H_
#define GALVATRON_UTIL_RING_BUFFER_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace galvatron {

/// A fixed-capacity FIFO that overwrites its oldest element once full:
/// Push is O(1) at any fill level (a front-erasing vector moves the whole
/// buffer per trim). Storage grows on demand up to the capacity, so a large
/// capacity costs nothing until it is used. Not thread-safe.
template <typename T>
class RingBuffer {
 public:
  /// A zero capacity makes Push a no-op.
  explicit RingBuffer(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// Appends `value`, dropping the oldest element when full.
  void Push(T value) {
    if (capacity_ == 0) return;
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(value));
      return;
    }
    slots_[oldest_] = std::move(value);
    oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
  }

  void Clear() {
    slots_.clear();
    oldest_ = 0;
  }

  /// The elements oldest to newest — the order a vector trimmed from the
  /// front would hold them in.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(slots_.size());
    out.insert(out.end(), slots_.begin() + static_cast<ptrdiff_t>(oldest_),
               slots_.end());
    out.insert(out.end(), slots_.begin(),
               slots_.begin() + static_cast<ptrdiff_t>(oldest_));
    return out;
  }

 private:
  size_t capacity_;
  std::vector<T> slots_;
  size_t oldest_ = 0;  // index of the oldest element once full
};

}  // namespace galvatron

#endif  // GALVATRON_UTIL_RING_BUFFER_H_
