// SmallVec<T, N>: a push-back vector with N elements of inline storage.
//
// Alt guard lists are tiny (a command guard, a data guard or two, a
// timeout) and rebuilt on every select; putting them in a std::vector costs
// a heap allocation per Alt construction — one per receive-with-deadline in
// the steady state.  SmallVec keeps the common case entirely inside the
// owning object (for an Alt, inside the coroutine frame, which the frame
// pool already recycles) and only touches the heap past N elements.
// Elements must be trivially copyable (an Alt guard is), so growth is a
// memcpy and nothing needs destroying.
#ifndef PANDORA_SRC_BUFFER_SMALL_VEC_H_
#define PANDORA_SRC_BUFFER_SMALL_VEC_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

#include "src/runtime/check.h"

namespace pandora {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0);
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  SmallVec() = default;
  ~SmallVec() {
    if (heap_ != nullptr) {
      ::operator delete(static_cast<void*>(heap_));
    }
  }

  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  std::size_t size() const { return size_; }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      Grow();
    }
    ::new (static_cast<void*>(data() + size_)) T(value);
    ++size_;
  }

  const T& operator[](std::size_t i) const {
    PANDORA_DCHECK(i < size_);
    return data()[i];
  }

  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

 private:
  T* data() { return heap_ != nullptr ? heap_ : reinterpret_cast<T*>(inline_); }
  const T* data() const { return heap_ != nullptr ? heap_ : reinterpret_cast<const T*>(inline_); }

  void Grow() {
    const std::size_t next = capacity_ * 2;
    T* grown = static_cast<T*>(::operator new(next * sizeof(T)));
    std::memcpy(static_cast<void*>(grown), static_cast<const void*>(data()), size_ * sizeof(T));
    if (heap_ != nullptr) {
      ::operator delete(static_cast<void*>(heap_));
    }
    heap_ = grown;
    capacity_ = next;
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace pandora

#endif  // PANDORA_SRC_BUFFER_SMALL_VEC_H_
