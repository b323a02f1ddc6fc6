#include "src/widget/widget.h"

namespace fixture {

int Drive(Sink* sink, Widget& widget) {
  sink->Accept(kTable[0]);
  return widget.Total() + widget.Half();
}

}  // namespace fixture
