#ifndef PICTDB_NET_TOKEN_BUCKET_H_
#define PICTDB_NET_TOKEN_BUCKET_H_

#include <algorithm>
#include <chrono>

namespace pictdb::net {

/// Per-client request quota: a classic token bucket refilled at
/// `rate_per_sec` up to `burst` tokens. Time is passed in explicitly so
/// tests are deterministic (no hidden clock reads). Not internally
/// synchronized — the server touches each connection's bucket only
/// under that connection's mutex.
class TokenBucket {
 public:
  /// rate_per_sec <= 0 means unlimited (TryAcquire always succeeds).
  TokenBucket(double rate_per_sec, double burst,
              std::chrono::steady_clock::time_point now)
      : rate_per_sec_(rate_per_sec),
        burst_(burst < 1.0 ? 1.0 : burst),
        tokens_(burst_),
        last_refill_(now) {}

  /// Take one token if available. A denied request consumes nothing.
  bool TryAcquire(std::chrono::steady_clock::time_point now) {
    if (rate_per_sec_ <= 0.0) return true;
    Refill(now);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const { return tokens_; }

 private:
  void Refill(std::chrono::steady_clock::time_point now) {
    if (now <= last_refill_) return;  // clock went nowhere (or backwards)
    const double elapsed_s =
        std::chrono::duration<double>(now - last_refill_).count();
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_per_sec_);
    last_refill_ = now;
  }

  const double rate_per_sec_;
  const double burst_;
  double tokens_;
  std::chrono::steady_clock::time_point last_refill_;
};

}  // namespace pictdb::net

#endif  // PICTDB_NET_TOKEN_BUCKET_H_
