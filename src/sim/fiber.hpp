// Cooperative user-level fibers. On x86-64 a switch is a few instructions
// in sim/fiber_switch_x86_64.S that save the callee-saved registers, MXCSR
// and the x87 control word; elsewhere it is ucontext's swapcontext.
//
// Application workers in the simulated cluster run as fibers so that ordinary
// C++ code (the SPLASH-2-style kernels, the DSM handlers) can block on
// simulated events. The scheduling discipline is strict: only the main
// context resumes fibers, and a fiber only ever yields back to the main
// context — fibers never resume each other. Everything is single-threaded,
// which keeps runs deterministic.
#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace multiedge::sim {

class Fiber {
 public:
  using Body = std::function<void()>;

  /// Default stack size. The app kernels recurse very little; 256 KiB leaves
  /// generous headroom while keeping 16-node runs cheap.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  explicit Fiber(Body body, std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the main context into this fiber. Returns when the fiber
  /// yields or its body returns. Must not be called from inside a fiber.
  void resume();

  /// Switch from the running fiber back to the main context. Must be called
  /// from inside a fiber.
  static void yield();

  /// The fiber currently executing, or nullptr if in the main context.
  static Fiber* current() { return current_; }

  bool done() const { return done_; }

 private:
  static void trampoline();

  Body body_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
#if defined(__x86_64__)
  using Context = void*;  // the saved stack pointer
#else
  using Context = ucontext_t;
#endif
  Context ctx_{};         // this fiber's, while it is suspended
  Context return_ctx_{};  // the main context's, while this fiber runs
  bool started_ = false;
  bool done_ = false;

  inline static Fiber* current_ = nullptr;
};

}  // namespace multiedge::sim
