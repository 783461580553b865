#ifndef EDGESHED_COMMON_CANCELLATION_H_
#define EDGESHED_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace edgeshed {

/// Cooperative cancellation signal shared between a controller (for example
/// the service JobScheduler) and a long-running kernel.
///
/// A token carries an atomic cancel flag plus an optional steady-clock
/// deadline. Kernels poll `Triggered()` at coarse grain — per betweenness
/// source sweep, every few thousand CRR swap attempts, every few thousand
/// UDS merge evaluations — so the checks stay off the per-element hot path
/// and the output is bit-identical to an untokened run whenever the token
/// never trips.
///
/// Thread safety: `Cancel()` may be called from any thread at any time;
/// `Triggered()` and `ToStatus()` are safe concurrently. Both trigger causes
/// are monotone: once a token reports triggered it stays triggered (the
/// deadline observation is latched), so a kernel can never see the signal
/// flap and resume partial work.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Token with no deadline; trips only via Cancel().
  CancellationToken() = default;

  /// Token that additionally trips itself once `deadline` passes.
  /// `Clock::time_point::max()` means no deadline.
  explicit CancellationToken(Clock::time_point deadline)
      : deadline_(deadline),
        has_deadline_(deadline != Clock::time_point::max()) {}

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Trips the token. Idempotent. An explicit cancel takes precedence over a
  /// deadline expiry in `ToStatus()`.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Makes the token cancel itself on its `poll`-th Triggered() call from
  /// now on, so a test can stop a kernel at an exact check point (0
  /// disarms). Arm it before any other thread polls. While armed, Polls()
  /// counts every Triggered() call, including those after the trip.
  void CancelOnPoll(uint64_t poll) {
    cancel_on_poll_ = poll;
    polls_.store(0, std::memory_order_relaxed);
  }
  uint64_t Polls() const { return polls_.load(std::memory_order_relaxed); }

  /// True once the token was cancelled or its deadline passed. Cheap: one
  /// relaxed atomic load, plus a clock read only while an unexpired deadline
  /// is armed (and a counter bump while CancelOnPoll is armed).
  bool Triggered() const {
    if (cancel_on_poll_ != 0 &&
        polls_.fetch_add(1, std::memory_order_relaxed) + 1 >= cancel_on_poll_) {
      cancelled_.store(true, std::memory_order_relaxed);
    }
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (!has_deadline_) return false;
    if (!deadline_hit_.load(std::memory_order_relaxed) &&
        Clock::now() >= deadline_) {
      deadline_hit_.store(true, std::memory_order_relaxed);
    }
    return deadline_hit_.load(std::memory_order_relaxed);
  }

  /// OK while untriggered; Cancelled or DeadlineExceeded once tripped.
  Status ToStatus() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("operation cancelled");
    }
    if (Triggered()) {
      return Status::DeadlineExceeded("operation deadline exceeded");
    }
    return Status::OK();
  }

 private:
  mutable std::atomic<bool> cancelled_{false};  // set by a CancelOnPoll trip
  mutable std::atomic<bool> deadline_hit_{false};
  mutable std::atomic<uint64_t> polls_{0};
  uint64_t cancel_on_poll_ = 0;
  Clock::time_point deadline_ = Clock::time_point::max();
  bool has_deadline_ = false;
};

/// Null-safe poll: a missing token never triggers. Kernels take an optional
/// `const CancellationToken*` and call this at their check points.
inline bool CancellationRequested(const CancellationToken* token) {
  return token != nullptr && token->Triggered();
}

}  // namespace edgeshed

#endif  // EDGESHED_COMMON_CANCELLATION_H_
