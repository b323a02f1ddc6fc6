// dead_api fixture: a header whose functions cover the live, dead and
// test-only shapes the audit must tell apart.  Lines marked EXPECT-DEAD must
// be reported as dead, lines marked EXPECT-TEST-ONLY as called only from
// outside src/ (tests/, bench/); every other declaration must not.
#ifndef FIXTURE_SRC_WIDGET_WIDGET_H_
#define FIXTURE_SRC_WIDGET_WIDGET_H_

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <array>
#include <cstdint>
#include <coroutine>

namespace fixture {

// Called only from a macro body: a reference.
void NoteEvent(int id);
#define FIXTURE_NOTE(id) ::fixture::NoteEvent((id))

// Called only from a namespace-scope initializer: a reference.
constexpr std::array<int, 4> BuildTable() { return {1, 2, 3, 4}; }
inline constexpr std::array<int, 4> kTable = BuildTable();

class Sink {
 public:
  virtual ~Sink() = default;
  // Called through the base; the override's declaration is not a call.  The
  // only call is in tests/.
  virtual void Accept(int value) = 0;  // EXPECT-TEST-ONLY
};

class Widget : public Sink {
 public:
  Widget() = default;
  ~Widget() override = default;

  void Accept(int value) override;              // EXPECT-TEST-ONLY
  int Total() const { return Scale(total_); }  // EXPECT-TEST-ONLY (calls Scale)
  // Called from bench/ only.
  int Peak() const { return total_; }  // EXPECT-TEST-ONLY
  // Called from tests/ and from src/: live.
  int Half() const { return total_ / 2; }
  uint64_t dropped() const { return dropped_; }  // EXPECT-DEAD
  void Reset();                                  // EXPECT-DEAD

  // Same name as the dead accessor in Gadget: both are reported.
  int level() const { return 0; }  // EXPECT-DEAD

 private:
  static int Scale(int v) { return v * 2; }
  int total_ = 0;
  uint64_t dropped_ = 0;
};

class Gadget {
 public:
  int level() const { return 1; }  // EXPECT-DEAD
  // Mentioned by name only in this comment and in a string: Polish().
  void Polish();  // EXPECT-DEAD
};

// The coroutine protocol is called by the compiler, never by name.
struct Job {
  struct promise_type {
    Job get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };
};

}  // namespace fixture

#endif  // FIXTURE_SRC_WIDGET_WIDGET_H_
