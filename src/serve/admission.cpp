#include "serve/admission.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace tg::serve {

AdmissionQueue::AdmissionQueue(int capacity) : capacity_(capacity) {
  TG_CHECK(capacity >= 1);
}

bool AdmissionQueue::push(Ticket&& ticket) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || static_cast<int>(queue_.size()) >= capacity_) {
      return false;
    }
    queue_.push_back(std::move(ticket));
  }
  cv_.notify_one();
  return true;
}

std::optional<Ticket> AdmissionQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // stopped and drained
  Ticket t = std::move(queue_.front());
  queue_.pop_front();
  return t;
}

std::vector<Ticket> AdmissionQueue::stop() {
  std::vector<Ticket> leftover;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    leftover.reserve(queue_.size());
    std::move(queue_.begin(), queue_.end(), std::back_inserter(leftover));
    queue_.clear();
  }
  cv_.notify_all();
  return leftover;
}

int AdmissionQueue::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

double AdmissionQueue::fill() const {
  return static_cast<double>(size()) / static_cast<double>(capacity_);
}

}  // namespace tg::serve
