#include "memfront/solver/slice_hub.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "memfront/obs/span_tracer.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/fault.hpp"

namespace memfront {
namespace {

// A thread with nothing to do — a helper between two panel steps, a
// master at its join — yields for this long before it parks on a futex
// (atomic wait). Spinning keeps the hand-off fast when the gap is short;
// parking keeps a long gap from burning a core that the master, or a
// vCPU the host shares, could use.
constexpr std::chrono::microseconds kSpinFor{50};

/// Yields until kSpinFor has passed since the first call with a zero
/// `since`; then returns false (time to park).
bool spin(std::chrono::steady_clock::time_point& since) {
  const auto now = std::chrono::steady_clock::now();
  if (since == std::chrono::steady_clock::time_point{}) since = now;
  if (now - since >= kSpinFor) return false;
  std::this_thread::yield();
  return true;
}

// Cursor layout: step epoch (32 bits) | next slice (16) | slice count (16).
constexpr std::uint64_t kSliceMask = 0xffff;
constexpr std::uint64_t kNextOne = std::uint64_t{1} << 16;

std::uint64_t pack_cursor(std::uint32_t epoch, index_t count) {
  return (static_cast<std::uint64_t>(epoch) << 32) |
         static_cast<std::uint64_t>(count);
}

}  // namespace

void FrontSlicer::begin_front(index_t node) {
  node_ = node;
  posted_ = false;
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
}

void FrontSlicer::end_front() {
  if (posted_) {
    open_.store(false, std::memory_order_release);
    hub_->wake();  // parked helpers of this front go back to dispatch
  }
  posted_ = false;
}

index_t FrontSlicer::width() const {
  return static_cast<index_t>(hub_->workers_);
}

void FrontSlicer::run(index_t count, SliceBody body) {
  check(count > 0 && static_cast<std::uint64_t>(count) <= kSliceMask,
        "FrontSlicer: bad slice count");
  fault_slice_ = kNone;
  if (!posted_) {
    posted_ = true;
    hub_->split_fronts_.fetch_add(1, std::memory_order_relaxed);
    // Fault site: a slice of a split front dying. Keyed on the node, so
    // whether it fires is a pure function of the seed; it hits the
    // step's last slice, which a helper usually runs.
    if (MEMFRONT_FAULT("front.slice_exception", node_))
      fault_slice_ = count - 1;
  }
  body_ = &body;
  ++epoch_;
  done_.store(0, std::memory_order_relaxed);
  cursor_.store(pack_cursor(epoch_, count), std::memory_order_release);
  if (!open_.load(std::memory_order_relaxed)) {
    open_.store(true, std::memory_order_release);
    if (hub_->on_open_) hub_->on_open_();
  }
  hub_->wake();

  while (try_run_one(false)) {
  }
  const auto total = static_cast<std::uint32_t>(count);
  if (done_.load(std::memory_order_acquire) < total) {
    // The join: helpers are still inside slices they claimed. The one
    // that finishes the step's last slice notifies.
    MEMFRONT_SPAN("slice_wait", node_);
    const auto t0 = std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point since{};
    for (;;) {
      const std::uint32_t done = done_.load(std::memory_order_acquire);
      if (done >= total) break;
      if (!spin(since)) done_.wait(done, std::memory_order_acquire);
    }
    hub_->slice_wait_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
  }
  if (failed_.load(std::memory_order_acquire)) {
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      error = error_;
    }
    std::rethrow_exception(error);
  }
}

bool FrontSlicer::try_run_one(bool helper) {
  std::uint64_t c = cursor_.load(std::memory_order_acquire);
  for (;;) {
    if (((c >> 16) & kSliceMask) >= (c & kSliceMask)) return false;
    if (cursor_.compare_exchange_weak(c, c + kNextOne,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
      break;
  }
  // Claimed: the step cannot end before this slice is counted done, so
  // its job (and the front under it) stay valid until then.
  const auto s = static_cast<index_t>((c >> 16) & kSliceMask);
  if (!failed_.load(std::memory_order_relaxed)) {
    try {
      if (s == fault_slice_)
        throw std::runtime_error("injected failure in a front slice");
      (*body_)(s);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
  if (helper) hub_->helper_slices_.fetch_add(1, std::memory_order_relaxed);
  if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == (c & kSliceMask))
    done_.notify_one();  // the step is complete: release the master
  return true;
}

SliceHub::SliceHub(unsigned workers, std::function<void()> on_open)
    : workers_(workers),
      slicers_(std::make_unique<FrontSlicer[]>(workers)),
      on_open_(std::move(on_open)) {
  for (unsigned w = 0; w < workers; ++w) slicers_[w].hub_ = this;
}

bool SliceHub::joinable(unsigned w) const {
  for (unsigned k = 1; k < workers_; ++k)
    if (slicers_[(w + k) % workers_].open_.load(std::memory_order_acquire))
      return true;
  return false;
}

void SliceHub::wake() {
  signal_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) signal_.notify_all();
}

void SliceHub::help(unsigned w, const std::function<bool()>& leave) {
  std::chrono::steady_clock::time_point since{};
  for (;;) {
    // Read before the scan: a step posted (or a front closed, or a task
    // pushed) after it changes signal_, so the park below cannot sleep
    // through it.
    const std::uint32_t seen = signal_.load(std::memory_order_seq_cst);
    bool open = false;
    bool ran = false;
    for (unsigned k = 1; k < workers_ && !ran; ++k) {
      FrontSlicer& s = slicers_[(w + k) % workers_];
      if (!s.open_.load(std::memory_order_acquire)) continue;
      open = true;
      ran = s.try_run_one(true);
    }
    // A ready tree task comes first, also in the middle of a step: the
    // master claims whatever slices are left.
    if (!open || leave()) return;
    if (ran) {
      since = {};
      continue;
    }
    if (spin(since)) continue;
    parked_.fetch_add(1, std::memory_order_seq_cst);
    signal_.wait(seen, std::memory_order_seq_cst);
    parked_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

}  // namespace memfront
