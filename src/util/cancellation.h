// Cooperative cancellation for the anytime planner (ISSUE 5).
//
// A CancellationSource owns the cancel state; the CancellationTokens it
// hands out are cheap shared views that long-running work polls at
// coarse checkpoints (the planner checks once per subgraph family and
// once per mesh factorization — never inside the enumeration hot loop).
// Cancellation is *cooperative*: nothing is interrupted, the work simply
// stops taking on new units and returns the best result assembled so far.
//
// Two trip mechanisms, combinable:
//   * wall clock — an attached steady-clock Deadline. Inherently
//     nondeterministic: which checkpoint observes the trip depends on
//     timing.
//   * checkpoint ordinal — set_checkpoint_limit(n) cancels every
//     checkpoint whose caller-assigned ordinal is >= n. Ordinals are
//     stable properties of the work (family index, mesh index), NOT a
//     shared countdown, so the set of units that run is a pure function
//     of the limit: the same limit yields byte-identical results at any
//     thread count. This is the deterministic harness the anytime
//     determinism tests (and reproducible bug reports) rely on.
//
// The source is configured (deadline, checkpoint limit) before it hands
// out a token or any work starts, and nothing changes the shared state
// afterwards, so tokens read it without synchronization. A
// default-constructed token is inert (never cancels) and costs one null
// check per checkpoint, so the planner threads it unconditionally.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace tap::util {

/// Thrown by planner entry points that were cancelled before producing
/// ANY usable plan (the PlannerService turns it into an expert-baseline
/// fallback).
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A point on the steady clock; default-constructed = unlimited.
class Deadline {
 public:
  Deadline() = default;

  static Deadline after_ms(double ms) {
    Deadline d;
    d.set_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  bool unlimited() const { return !set_; }
  bool expired() const {
    return set_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool set_ = false;
  std::chrono::steady_clock::time_point at_{};
};

namespace internal {
/// Shared by a source and its tokens. Configured on the source BEFORE
/// work starts (publication to worker threads happens-before via the
/// task handoff) and read-only while tokens are live.
struct CancelState {
  Deadline deadline;
  std::int64_t checkpoint_limit = -1;  ///< < 0 = no limit
};
}  // namespace internal

class CancellationToken {
 public:
  /// Inert token: can_cancel() false, every query answers "keep going".
  CancellationToken() = default;

  bool can_cancel() const { return state_ != nullptr; }

  /// Wall-clock trip: the attached deadline (if any) has passed.
  bool cancelled() const {
    return state_ != nullptr && state_->deadline.expired();
  }

  /// Cooperative checkpoint for the work unit with stable ordinal
  /// `ordinal`. Returns true ("skip this unit") when the token is
  /// cancelled or the ordinal is at/past the deterministic limit.
  bool checkpoint(std::uint64_t ordinal) const {
    if (state_ == nullptr) return false;
    if (state_->checkpoint_limit >= 0 &&
        ordinal >= static_cast<std::uint64_t>(state_->checkpoint_limit)) {
      return true;
    }
    return cancelled();
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<internal::CancelState> s)
      : state_(std::move(s)) {}

  std::shared_ptr<internal::CancelState> state_;
};

class CancellationSource {
 public:
  CancellationSource()
      : state_(std::make_shared<internal::CancelState>()) {}

  /// Configure before handing out tokens / starting work.
  void set_deadline(Deadline d) { state_->deadline = d; }
  void set_checkpoint_limit(std::int64_t n) {
    state_->checkpoint_limit = n;
  }

  /// Tokens share ownership of the state: they outlive the source.
  CancellationToken token() const { return CancellationToken(state_); }

 private:
  std::shared_ptr<internal::CancelState> state_;
};

}  // namespace tap::util
