// InlineCallback: a fixed-size, non-allocating stand-in for
// std::function<void()> on the timer hot path.
//
// Every timer the runtime arms captures a few pointers and integers, yet
// std::function heap-allocates its callable and drags an RTTI-driven
// manager along.  InlineCallback stores the callable inline in a small
// pointer-aligned buffer and dispatches through one function pointer; the
// capture budget and alignment are enforced at compile time, so growing a
// lambda past the budget is a build error rather than a silent allocation.
#ifndef PANDORA_SRC_RUNTIME_CALLBACK_H_
#define PANDORA_SRC_RUNTIME_CALLBACK_H_

#include <cstddef>
#include <new>  // NOLINT(pandora-raw-new-delete): placement-new declaration
#include <type_traits>
#include <utility>

namespace pandora {

template <std::size_t Capacity>
class InlineCallback {
 public:
  InlineCallback() = default;

  template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity, "capture too large for InlineCallback; grow a pointer "
                                          "indirection instead of the inline budget");
    static_assert(alignof(Fn) <= alignof(void*), "InlineCallback storage is pointer-aligned");
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "InlineCallback requires trivially copyable captures");
    static_assert(std::is_trivially_destructible_v<Fn>);
    // Placement-new into owned inline storage: no allocation, no ownership
    // transfer, exempt from the raw-new ban by construction.
    ::new (static_cast<void*>(storage_)) Fn(std::move(f));  // NOLINT(pandora-raw-new-delete)
    invoke_ = [](void* storage) { (*static_cast<Fn*>(storage))(); };
  }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  void (*invoke_)(void*) = nullptr;
  alignas(void*) unsigned char storage_[Capacity];
};

// Timer callbacks: the overlay's {self, tree, node, seq} delivery capture is
// the largest in src/ and fills 24 bytes exactly.  Every timer node and
// mailbox entry carries one, so the size is pinned.
using TimerCallback = InlineCallback<24>;
static_assert(sizeof(TimerCallback) == 32);

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_CALLBACK_H_
