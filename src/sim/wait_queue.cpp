#include "sim/wait_queue.hpp"

#include <algorithm>

namespace multiedge::sim {

void WaitQueue::wait() {
  Process* self = &Process::running();
  waiters_.push_back(self);
  self->suspend();
  // On spurious-free wakeup the notifier already removed us; if the process
  // was woken directly via Process::wake() (not through this queue), drop the
  // stale entry to keep the queue consistent.
  auto it = std::find(waiters_.begin(), waiters_.end(), self);
  if (it != waiters_.end()) waiters_.erase(it);
}

void WaitQueue::notify_one() {
  if (waiters_.empty()) return;
  Process* p = waiters_.front();
  waiters_.pop_front();
  p->wake();
}

void WaitQueue::notify_all() {
  std::deque<Process*> ws;
  ws.swap(waiters_);
  for (Process* p : ws) p->wake();
}

}  // namespace multiedge::sim
