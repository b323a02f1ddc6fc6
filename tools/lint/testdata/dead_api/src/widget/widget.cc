#include "src/widget/widget.h"

namespace fixture {

void NoteEvent(int id) { (void)id; }

void Widget::Accept(int value) {
  total_ += value + Half();
  FIXTURE_NOTE(value);
}

// An out-of-line definition is not a caller.
void Widget::Reset() { total_ = 0; }

void Gadget::Polish() { const char* why = "Polish()"; (void)why; }

}  // namespace fixture
