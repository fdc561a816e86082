// Minimal per-worker readiness loop: level-triggered read callbacks plus a
// periodic tick, built on epoll(7) on Linux and poll(2) elsewhere.
//
// One EventLoop per worker thread. Only wake() may be called from another
// thread; it interrupts a blocked wait, runs the owner's on_wake callback on
// the loop thread, and re-checks the stop flag. That is how queued control
// changes reach a worker without waiting for the tick (runtime/mux_server.cc).
#pragma once

#include <atomic>
#include <functional>
#include <memory>

namespace duet::runtime {

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // False when the kernel refused the backing fds (fd exhaustion).
  bool ok() const noexcept;

  // Registers a level-triggered readable callback for `fd`. The callback
  // must consume until EAGAIN or the loop spins. `fd` must stay open until
  // remove() or destruction.
  bool add(int fd, std::function<void()> on_readable);
  bool remove(int fd);

  // Dispatches readiness callbacks until `stop` becomes true, invoking
  // `on_tick` (if set) roughly every `tick_ms`. In a round where wake() has
  // fired, the loop drains the wake channel and calls `on_wake` (if set)
  // before any of that round's readable callbacks, so work queued before
  // wake() is applied before the next datagram is served. wake() and tick
  // expiry both re-check `stop`, so shutdown latency is bounded by tick_ms
  // even if wake() is never called.
  void run(const std::atomic<bool>& stop, int tick_ms,
           const std::function<void()>& on_tick = nullptr,
           const std::function<void()>& on_wake = nullptr);

  // Thread-safe: interrupts a blocked run() iteration and schedules on_wake.
  // Several wake()s before the loop gets to them fold into one on_wake call.
  void wake();

 private:
  struct Impl;
  // Destroyed out-of-line in event_loop.cc where Impl is complete (the dtor
  // also closes the backing fds first).
  std::unique_ptr<Impl> impl_;
};

}  // namespace duet::runtime
