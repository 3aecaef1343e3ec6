#include "sim/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
// sim/fiber_switch_x86_64.S
extern "C" void multiedge_fiber_switch(void** save_sp, void* load_sp);
extern "C" void multiedge_fiber_start();
#endif

namespace multiedge::sim {
namespace {

// ASan tracks one stack per thread and must be told about every switch
// between the main stack and a fiber stack. Otherwise it misreads frames on
// the other stack: an exception unwinding a fiber stack is reported as a
// stack-buffer-underflow. Without ASan these calls compile away.

// The main context's stack: the only stack a fiber ever switches to.
const void* main_stack_bottom = nullptr;
std::size_t main_stack_size = 0;

// Before switching to the stack [bottom, bottom + size). `fake_stack` saves
// the current stack's ASan fake frames; nullptr when that stack is exiting.
void start_switch(void** fake_stack, const void* bottom, std::size_t size) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
#else
  (void)fake_stack, (void)bottom, (void)size;
#endif
}

// First thing on the new stack: restores its `fake_stack` and, if asked,
// records the bounds of the stack just left.
void finish_switch(void* fake_stack, const void** old_bottom,
                   std::size_t* old_size) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, old_bottom, old_size);
#else
  (void)fake_stack, (void)old_bottom, (void)old_size;
#endif
}

// Saves the running context in *save and resumes *load.
#if defined(__x86_64__)
void switch_context(void** save, void* const* load) {
  multiedge_fiber_switch(save, *load);
}
#else
void switch_context(ucontext_t* save, const ucontext_t* load) {
  swapcontext(save, load);
}
#endif

}  // namespace

Fiber::Fiber(Body body, std::size_t stack_bytes)
    : body_(std::move(body)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes) {
#if defined(__x86_64__)
  // The frame the first resume() switches to, laid out as in
  // fiber_switch_x86_64.S: the ABI's initial MXCSR (0x1f80) and x87 control
  // word (0x037f), i.e. round to nearest with every exception masked; zeroed
  // callee-saved registers except r12, which carries trampoline() to
  // multiedge_fiber_start; and that stub as the return address. The stub
  // then runs with the 16-byte aligned stack top and calls trampoline().
  const std::uint64_t frame[8] = {
      0x1f80 | std::uint64_t{0x037f} << 32,
      0,
      0,
      0,
      reinterpret_cast<std::uint64_t>(&Fiber::trampoline),
      0,
      0,
      reinterpret_cast<std::uint64_t>(&multiedge_fiber_start)};
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes) &
      ~std::uintptr_t{15};
  ctx_ = reinterpret_cast<void*>(top - sizeof frame);
  std::memcpy(ctx_, frame, sizeof frame);
#else
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_.get();
  ctx_.uc_stack.ss_size = stack_bytes;
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
#endif
}

Fiber::~Fiber() {
  // A fiber must run to completion (or never start) before destruction;
  // destroying a suspended fiber would leak whatever RAII state lives on its
  // stack. All owners in this codebase join their fibers first.
  assert(done_ || !started_);
}

void Fiber::trampoline() {
  finish_switch(nullptr, &main_stack_bottom, &main_stack_size);
  Fiber* self = current_;
  self->body_();
  self->done_ = true;
  start_switch(nullptr, main_stack_bottom, main_stack_size);
  // Back to whoever resumed us, for good: current_ is reset by resume().
  switch_context(&self->ctx_, &self->return_ctx_);
  __builtin_unreachable();
}

void Fiber::resume() {
  assert(current_ == nullptr && "fibers must be resumed from the main context");
  assert(!done_);
  started_ = true;
  current_ = this;
  void* fake_stack = nullptr;
  start_switch(&fake_stack, stack_.get(), stack_bytes_);
  switch_context(&return_ctx_, &ctx_);
  finish_switch(fake_stack, nullptr, nullptr);
  current_ = nullptr;
}

void Fiber::yield() {
  Fiber* self = current_;
  assert(self != nullptr && "yield() called outside any fiber");
  current_ = nullptr;
  void* fake_stack = nullptr;
  start_switch(&fake_stack, main_stack_bottom, main_stack_size);
  switch_context(&self->ctx_, &self->return_ctx_);
  finish_switch(fake_stack, &main_stack_bottom, &main_stack_size);
  // When resumed, resume() has set current_ back to self.
}

}  // namespace multiedge::sim
