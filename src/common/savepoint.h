#ifndef XSQL_COMMON_SAVEPOINT_H_
#define XSQL_COMMON_SAVEPOINT_H_

#include <memory>
#include <utility>
#include <vector>

namespace xsql {

/// The armed rollback points of one component (the Database, the view
/// catalog), innermost last. Arming copies nothing: a point stays empty
/// until the component's first change after it, which captures the
/// state once for every empty point (they all saw that same state). So
/// a statement that changes nothing captures nothing.
template <typename State>
class SavepointStack {
 public:
  void Arm() { slots_.push_back(nullptr); }

  /// True when the component must Capture() before its next change.
  bool NeedsCapture() const {
    return !slots_.empty() && slots_.back() == nullptr;
  }

  /// Hands `state`, the state before the coming change, to every armed
  /// point that has not captured yet. Those are always the innermost.
  void Capture(const std::shared_ptr<State>& state) {
    for (auto it = slots_.rbegin(); it != slots_.rend() && *it == nullptr;
         ++it) {
      *it = state;
    }
  }

  /// Calls `fn(State&)` on each capture, innermost first, once each,
  /// until it returns false.
  template <typename Fn>
  void ForEachCapture(Fn&& fn) {
    const State* last = nullptr;
    for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
      if (*it == nullptr || it->get() == last) continue;
      last = it->get();
      if (!fn(**it)) return;
    }
  }

  /// Disarms the innermost point and returns its capture: null when
  /// nothing changed since it was armed.
  std::shared_ptr<const State> Pop() {
    std::shared_ptr<const State> state = std::move(slots_.back());
    slots_.pop_back();
    return state;
  }

 private:
  std::vector<std::shared_ptr<State>> slots_;
};

/// A handle on the innermost armed rollback point of `Owner`, which
/// provides `PopSavepoint(bool restore)`. `Restore()` (at most once)
/// moves the owner back to the point; dropping the handle keeps every
/// change. Handles end innermost first, as scoped use guarantees.
template <typename Owner>
class SavepointHandle {
 public:
  explicit SavepointHandle(Owner* owner) : owner_(owner) {}
  SavepointHandle(SavepointHandle&& other) noexcept
      : owner_(std::exchange(other.owner_, nullptr)) {}
  ~SavepointHandle() {
    if (owner_ != nullptr) owner_->PopSavepoint(/*restore=*/false);
  }

  void Restore() { std::exchange(owner_, nullptr)->PopSavepoint(true); }

 private:
  Owner* owner_;
};

}  // namespace xsql

#endif  // XSQL_COMMON_SAVEPOINT_H_
