// BufferPool<T>: a mutex-guarded LIFO of recycled std::vector<T> buffers —
// the farm's antidote to per-packet heap traffic.  Payload buffers (rx
// waveforms, decoded bit vectors) are acquired from the pool (reusing the
// capacity of a previously released buffer when one is available), travel
// through submit → queue → worker → outcome by move, and return via
// release() once the consumer is done.  LIFO order keeps the hottest
// buffer — the one most recently touched, still warm in cache — first out.
//
// The pool is bounded by the loop it serves: it keeps at most cap() idle
// buffers, where cap() counts the buffers acquire() has had to hand out
// fresh — the most the loop (queued jobs + workers' jobs + outcomes not yet
// recycled) has ever held at once.  In a closed steady-state loop every
// acquired buffer comes back and is kept, so sustained operation performs
// no allocation; buffers released beyond the cap (a submitter that brings
// its own fresh buffers and never acquires) are freed on release instead
// of accumulating.
#pragma once

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace adres::platform {

template <typename T>
class BufferPool {
 public:
  /// A recycled buffer (cleared, capacity kept) or a fresh empty one.
  std::vector<T> acquire() {
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.empty()) {
      ++cap_;
      return {};
    }
    std::vector<T> out = std::move(free_.back());
    free_.pop_back();
    out.clear();
    return out;
  }

  /// Returns a buffer's storage to the pool.  Empty vectors (moved-from or
  /// never filled) carry no capacity worth keeping, and a full pool has no
  /// use for more; both are dropped (freed).
  void release(std::vector<T> buf) {
    if (buf.capacity() == 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.size() >= cap_) return;
    free_.push_back(std::move(buf));
  }

  /// Buffers currently resting in the pool (telemetry/tests).
  std::size_t idle() const {
    std::lock_guard<std::mutex> lk(mu_);
    return free_.size();
  }

  /// Most idle buffers the pool keeps: the fresh buffers acquire() has
  /// handed out so far.
  std::size_t cap() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cap_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<T>> free_;
  std::size_t cap_ = 0;
};

}  // namespace adres::platform
