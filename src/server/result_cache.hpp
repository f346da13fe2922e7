// Content-addressed result cache of the routing service.
//
// Rows are deterministic: a job described by a benchmark name or an inline
// generator spec produces the same sadp.flow_journal.v1 record on every run
// (the generator PRNG is seeded from the spec and solver deadlines are
// charged against per-thread CPU time).  So the daemon keeps each finished
// row under a key built from the job that produced it, and answers a
// repeated job from here without touching the worker pool.
//
// Keys: job_cache_key is the job as the one job codec writes it
// (api::write_job_request) with label, arm and span_id cleared, because
// they name and trace a row but never change it.  Every other job member
// is in the key because the codec writes it, so a flow field cannot be
// added to the wire and left out of the key.  delta_cache_key is the base
// job's key plus the fnv1a-64 of the base solution text and the change
// list, so a delta hits under any label and whether its base came inline
// or by path.  Batch policy (workers, journal, keep_going, batch_deadline)
// is not part of a job and so not part of a key: rows are bit-identical at
// any worker count, and only ok/degraded rows are kept, so fail-fast and
// batch-deadline statuses cannot leak in.  Uncacheable jobs (nullopt):
//   * netlist_path sources — the file's content is not part of the key, so
//                            an edit on disk would serve stale rows;
//   * deadline_seconds > 0 — a wall deadline makes the row depend on load.
//
// Values: a CachedRow is the finished engine::JobOutcome, plus the
// core::EcoSummary of a delta.  A hit relabels a copy with the requesting
// job's label and arm and writes it with api::response_row_line (and
// api::response_delta_line), the writers a miss uses, so a hit's lines
// equal the miss's apart from the "cache" member.  That includes the
// recorded timing fields: a hit reports the original run's timings.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "engine/flow_engine.hpp"

namespace sadp::server {

/// The cache key of a flow job, or nullopt when the job must not be cached
/// (netlist_path source, nonzero wall deadline).
[[nodiscard]] std::optional<std::string> job_cache_key(
    const api::JobRequest& job);

/// The cache key of a delta request whose base solution reads `base_text`,
/// or nullopt when its base job is uncacheable.
[[nodiscard]] std::optional<std::string> delta_cache_key(
    const api::FlowDeltaRequest& request, std::string_view base_text);

/// One cached row: the finished outcome, and for a delta entry the summary
/// its "delta" line reports.
struct CachedRow {
  engine::JobOutcome outcome;
  std::optional<core::EcoSummary> delta;
};

/// Bounded, thread-safe LRU map from cache key to cached row.  lookup()
/// counts a hit or a miss; insert() of an existing key refreshes recency.
class ResultCache {
 public:
  /// `capacity` = max entries; 0 disables the cache (lookup always misses
  /// without counting, insert is a no-op).
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }

  /// Returns a copy of the cached row and counts a hit; nullopt counts a
  /// miss.
  [[nodiscard]] std::optional<CachedRow> lookup(const std::string& key);

  /// Keep a copy of `outcome` (and a delta's summary) under `key`.  Only a
  /// row a rerun reproduces is kept: ok or degraded, and executed in this
  /// run rather than restored from a journal.  Any other row is dropped.
  void insert(const std::string& key, const engine::JobOutcome& outcome,
              std::optional<core::EcoSummary> delta = std::nullopt);

  [[nodiscard]] std::size_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// MRU-first recency list; the map stores list iterators for O(1) bump.
  std::list<std::pair<std::string, CachedRow>> entries_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, CachedRow>>::iterator>
      index_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace sadp::server
