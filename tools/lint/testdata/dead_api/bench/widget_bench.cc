#include "src/widget/widget.h"

namespace fixture {

int Measure(const Widget& widget) { return widget.Peak(); }

}  // namespace fixture
