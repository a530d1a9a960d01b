// Per-service memoization plus the job fingerprinting that keys it
// (docs/SERVING.md). Two layers, both owned by one ReductionService:
//
//  - the result layer memoizes completed reductions by job fingerprint,
//    so an exact repeat is served without running anything;
//  - the sampling layer memoizes finished sampling stages
//    (mor::SamplingStage) by the job fingerprint with fixed_order and
//    max_order left out. PMTBR picks the order only after sampling, from
//    the trailing singular values of Z W (paper Sec. V-C), so a job that
//    differs from an earlier one only in its order cap skips sampling and
//    compression and runs just the finish stage.
//
// A job's fingerprint digests everything that determines its PmtbrResult:
// the system's content fingerprint and the canonicalized options surface.
// Scheduling metadata (name, priority, deadline) and the cancel token are
// excluded — they affect *when* a job runs, never *what* it computes. A
// request carrying a custom weight_fn is uncacheable (std::function has
// no content identity) and reports nullopt.
//
// Layers store shared_ptr<const T>. A result hit deep-copies the result
// into the job, and a stage is only read by mor::pmtbr_finish, so cached
// and freshly computed results are bit-identical by construction. Each
// layer's SingleFlight gate lets the service coalesce concurrent jobs that
// need the same value into one computation.
//
// Each layer's byte budget defaults to PMTBR_CACHE_BYTES (k/m/g suffixes)
// or 256 MiB; 0 disables both.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "mor/pmtbr.hpp"
#include "serve/job.hpp"
#include "util/cancel.hpp"
#include "util/fingerprint.hpp"
#include "util/lru.hpp"
#include "util/obs/counters.hpp"

namespace pmtbr::serve {

/// Stable job key, or nullopt for uncacheable requests (custom weight_fn).
std::optional<util::Fingerprint> job_fingerprint(const JobRequest& req);

/// job_fingerprint with fixed_order and max_order left out: the key of the
/// job's sampling stage, shared by every order-only variant of the job.
std::optional<util::Fingerprint> sampling_fingerprint(const JobRequest& req);

/// Default byte budget of each layer before the PMTBR_CACHE_BYTES override.
inline constexpr std::size_t kDefaultModelCacheBytes = std::size_t{256} << 20;

/// One memoizing layer: a byte-bounded LRU of immutable values plus the
/// single-flight gate that coalesces concurrent computations of one key.
/// Lookups, inserts and coalesced joins are mirrored into the layer's obs
/// counters.
template <typename T>
class CacheLayer {
 public:
  using Ptr = std::shared_ptr<const T>;
  using FlightGate = util::SingleFlight<util::Fingerprint, Ptr, util::FingerprintHash>;
  struct Counters {
    obs::Counter hit, miss, evict, coalesced, bytes;
  };

  CacheLayer(std::size_t byte_budget, const Counters& counters)
      : lru_(byte_budget), counters_(counters) {}

  bool enabled() const { return lru_.enabled(); }

  util::CacheStats stats() const { return lru_.stats(); }

  FlightGate& flights() { return flights_; }

  /// Returns the value for `key` and whether it was served (an LRU hit or
  /// a coalesced join of an in-flight computation) rather than computed
  /// here by `compute()` as the flight's leader and memoized. A served
  /// value still honors `token`, so the caller's outcome is
  /// indistinguishable from a fresh run's; a joined caller re-checks its
  /// token every `poll`. A leader whose compute() throws abandons its
  /// flight: the waiters wake, retry, and one of them becomes the leader,
  /// so one cancelled job never poisons the jobs that joined it.
  template <typename Duration, typename Compute>
  std::pair<Ptr, bool> get_or_compute(const util::Fingerprint& key,
                                      const util::CancelToken& token, const Duration& poll,
                                      const Compute& compute) {
    for (;;) {
      if (Ptr hit = lookup(key)) {
        token.throw_if_cancelled();
        return {hit, true};
      }
      bool leader = false;
      auto flight = flights_.begin(key, leader);
      if (leader) {
        // Close the lookup->begin race: a previous leader may have
        // published and retired its flight between our miss and begin().
        if (Ptr hit = lookup(key)) {
          flights_.publish(key, flight, hit);
          token.throw_if_cancelled();
          return {hit, true};
        }
        Ptr fresh;
        try {
          fresh = std::make_shared<const T>(compute());
        } catch (...) {
          flights_.publish(key, flight, nullptr);
          throw;
        }
        insert(key, fresh);
        flights_.publish(key, flight, fresh);
        return {fresh, false};
      }
      const auto value =
          FlightGate::wait(*flight, poll, [&token] { return token.cancelled(); });
      if (!value.has_value()) {
        token.throw_if_cancelled();
      } else if (*value != nullptr) {
        note_coalesced();
        return {*value, true};
      }
      // Abandoned flight: retry (this caller may be promoted to leader).
    }
  }

 private:
  /// Cached value or nullptr; bumps the hit/miss counters.
  Ptr lookup(const util::Fingerprint& key);

  /// Memoizes a value, evicting past the byte budget.
  void insert(const util::Fingerprint& key, Ptr value);

  /// Records one job served by joining an in-flight computation.
  void note_coalesced();

  util::LruCache<util::Fingerprint, Ptr, util::FingerprintHash> lru_;
  FlightGate flights_;
  Counters counters_;
};

struct ModelCache {
  /// `byte_budget` = 0 resolves PMTBR_CACHE_BYTES (default 256 MiB) for
  /// each layer; an explicit budget wins over the environment.
  explicit ModelCache(std::size_t byte_budget = 0);

  CacheLayer<mor::PmtbrResult> results;
  CacheLayer<mor::SamplingStage> stages;
};

/// ("cache", <json>) manifest extra: one object per cache layer with
/// hits/misses/evictions/coalesced/entries/bytes — validated by
/// tools/report_metrics.py.
std::pair<std::string, std::string> cache_extra(const util::CacheStats& model,
                                                const util::CacheStats& sampling);

}  // namespace pmtbr::serve
