#include "server/result_cache.hpp"

#include <cstdio>

#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace sadp::server {

namespace {
// Fault sites (util/failpoint.hpp): a cache that loses lookups or drops
// inserts must only cost recomputation, never change a row.
util::FailPoint g_fp_cache_lookup("cache.lookup");
util::FailPoint g_fp_cache_insert("cache.insert");
}  // namespace

std::optional<std::string> job_cache_key(const api::JobRequest& job) {
  // File-backed jobs name the path, not the content — an edit on disk
  // would silently serve stale rows, so they are never cached.  Jobs with
  // a wall deadline can time out depending on machine load.
  if (!job.netlist_path.empty() || job.deadline_seconds > 0.0) {
    return std::nullopt;
  }
  api::JobRequest keyed = job;
  keyed.label.clear();
  keyed.arm.clear();
  keyed.span_id.clear();
  util::JsonWriter json;
  api::write_job_request(json, keyed);
  return json.str();
}

std::optional<std::string> delta_cache_key(const api::FlowDeltaRequest& request,
                                           std::string_view base_text) {
  std::optional<std::string> key = job_cache_key(request.base);
  if (!key) return std::nullopt;
  // A job key is one line of JSON, so the newlines keep flow and delta keys
  // apart.
  char digest[32];
  std::snprintf(digest, sizeof digest, "\nfnv1a:%016llx\n",
                static_cast<unsigned long long>(util::fnv1a(base_text)));
  util::JsonWriter changes;
  api::write_changes(changes, request.changes);
  *key += digest;
  *key += changes.str();
  return key;
}

std::optional<CachedRow> ResultCache::lookup(const std::string& key) {
  if (capacity_ == 0) return std::nullopt;
  if (g_fp_cache_lookup.evaluate().kind == util::FailKind::kError) {
    // Injected miss: the job recomputes; the row must come out identical.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  entries_.splice(entries_.begin(), entries_, it->second);  // bump to MRU
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void ResultCache::insert(const std::string& key,
                         const engine::JobOutcome& outcome,
                         std::optional<core::EcoSummary> delta) {
  if (capacity_ == 0 || !outcome.ok() || outcome.from_journal) return;
  if (g_fp_cache_insert.evaluate().kind == util::FailKind::kError) {
    return;  // injected dropped insert: future lookups simply miss
  }
  CachedRow row{outcome, std::move(delta)};
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(row);
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  entries_.emplace_front(key, std::move(row));
  index_.emplace(key, entries_.begin());
  while (entries_.size() > capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
  }
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace sadp::server
