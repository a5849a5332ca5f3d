#include "util/stopwatch.h"

// Header-only; this translation unit exists so the build exposes one object
// per module and keeps the target layout uniform.
