// Intra-front parallelism: the fork/join rendezvous that lets idle
// workers of the factorization join a big front's blocked kernel.
//
// The paper splits a big front into a type-2 node: a master factors the
// pivot block and slaves update blocks of the contribution block. Here
// the split is finer and stays in place: each worker owns a FrontSlicer,
// the SliceRunner its kernels fork through. For one panel step at a
// time the master posts the step's column slices (frontal/kernels) to
// its slicer; any worker that calls SliceHub::help claims slices
// through the slicer's atomic cursor and runs them directly on the
// master's front. So there is no slave buffer and no extra memory
// charge, and since every element keeps its subtraction chain the
// result is bit-identical to the serial kernel.
//
// Lifetime rules, which make the in-place writes safe:
//   - a slice job is claimed by a compare-exchange on a cursor that
//     packs (step epoch, next slice, slice count), so a helper can only
//     claim a slice of the step currently posted, and it reads the
//     step's job only after its claim succeeded;
//   - the master returns from run() only after every slice of the step
//     finished (claimed ones included), so the front storage and the
//     job outlive every helper write; the helper that finishes a step's
//     last slice wakes the master if it parked at the join;
//   - an exception in any slice is recorded (first one wins), the
//     remaining slices are skipped but still counted, and the master
//     rethrows it after the join — it never waits for a slice that
//     cannot finish.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

#include "memfront/frontal/kernels.hpp"

namespace memfront {

class SliceHub;

/// One worker's slicer: the master side of the rendezvous.
class FrontSlicer final : public SliceRunner {
 public:
  /// Brackets one front's kernel. `node` keys the front.slice_exception
  /// fault site and labels the master's slice_wait span. Helpers stay
  /// attached to the front until end_front.
  void begin_front(index_t node);
  void end_front();

  index_t width() const override;
  void run(index_t count, SliceBody body) override;

 private:
  friend class SliceHub;

  /// Claims one slice of the posted step and runs it; false when the
  /// step has none left to claim.
  bool try_run_one(bool helper);

  SliceHub* hub_ = nullptr;
  // Master-only state.
  index_t node_ = kNone;
  bool posted_ = false;  // the current front split at least one step
  std::uint32_t epoch_ = 0;
  // Written by the master before it publishes a step through cursor_.
  const SliceBody* body_ = nullptr;
  index_t fault_slice_ = kNone;

  alignas(64) std::atomic<std::uint64_t> cursor_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> open_{false};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
};

/// The rendezvous of `workers` workers: one FrontSlicer each.
class SliceHub {
 public:
  /// `on_open` runs on a master whenever its front posts its first step
  /// (a front becomes joinable) — the scheduler wakes sleeping workers
  /// there.
  SliceHub(unsigned workers, std::function<void()> on_open = {});
  // The slicers point back at their hub.
  SliceHub(const SliceHub&) = delete;
  SliceHub& operator=(const SliceHub&) = delete;

  FrontSlicer& slicer(unsigned w) { return slicers_[w]; }

  /// True when a front of a worker other than w is open for helpers.
  bool joinable(unsigned w) const;

  /// Worker w helps: it joins open fronts of other workers and runs their
  /// slices, staying with a front across its panel steps until the front
  /// ends. Returns when no front is open, or when `leave()` — checked
  /// after every slice and whenever w has nothing to run — returns true.
  /// Between steps w spins briefly, then parks until a step is posted, a
  /// front closes, or wake() is called.
  void help(unsigned w, const std::function<bool()>& leave);

  /// Wakes parked helpers so they check leave() again: call it whenever
  /// a condition leave() tests may have changed.
  void wake();

  std::uint64_t split_fronts() const {
    return split_fronts_.load(std::memory_order_relaxed);
  }
  std::uint64_t helper_slices() const {
    return helper_slices_.load(std::memory_order_relaxed);
  }
  std::uint64_t slice_wait_ns() const {
    return slice_wait_ns_.load(std::memory_order_relaxed);
  }

 private:
  friend class FrontSlicer;

  unsigned workers_;
  std::unique_ptr<FrontSlicer[]> slicers_;
  std::function<void()> on_open_;
  /// Bumped by every posted step, closed front and wake(); helpers
  /// park on it (atomic wait) while `parked_` counts them.
  std::atomic<std::uint32_t> signal_{0};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<std::uint64_t> split_fronts_{0};
  std::atomic<std::uint64_t> helper_slices_{0};
  std::atomic<std::uint64_t> slice_wait_ns_{0};
};

}  // namespace memfront
