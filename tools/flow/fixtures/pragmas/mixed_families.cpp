// Fixture: one scanner reads the pragmas of both rule families. A
// lint-family allow and a flow- allow in the same file are each
// consumed, and an unused lint-family allow is an error exactly like an
// unused flow- allow.
#include <chrono>
#include <stdexcept>

struct Loop {
  template <typename F>
  void schedule(long delay, F f);
};

long mixed_families(Loop& loop, int mode) {
  loop.schedule(5, [mode] {
    // hipcheck:allow(flow-exn): fixture — harness catches at the loop edge
    if (mode == 1) throw std::runtime_error("boom");
  });
  // hipcheck:allow(wall-clock): fixture — benchmark harness reads real time
  auto t0 = std::chrono::steady_clock::now();
  // hipcheck:expect(unused-allow)
  // hipcheck:allow(self-capture): nothing below captures itself
  return t0.time_since_epoch().count();
}
