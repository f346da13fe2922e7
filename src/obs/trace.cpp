#include "obs/trace.hpp"

#include <fstream>

#include "util/json.hpp"
#include "util/timer.hpp"

namespace sadp::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

std::int64_t now_us() noexcept { return util::process_uptime_us(); }

namespace {

// The installed session and its installation generation.  The generation is
// bumped on every install/uninstall so a thread-local buffer pointer cached
// under one session is never mistaken for a registration with another.
std::atomic<TraceSession*> g_session{nullptr};
std::atomic<std::uint64_t> g_generation{0};

struct CachedBuffer {
  ThreadBuffer* buffer = nullptr;
  std::uint64_t generation = 0;
};
thread_local CachedBuffer t_cached;

}  // namespace
}  // namespace detail

TraceSession::~TraceSession() { uninstall(); }

void TraceSession::install() {
  const std::lock_guard<std::mutex> lock(mutex_);
  installed_ = true;
  detail::g_session.store(this, std::memory_order_release);
  detail::g_generation.fetch_add(1, std::memory_order_release);
  detail::g_enabled.store(true, std::memory_order_release);
}

void TraceSession::uninstall() {
  // Disable the span sites first so no new thread registers while the
  // session pointer is being cleared.
  if (detail::g_session.load(std::memory_order_acquire) != this) {
    const std::lock_guard<std::mutex> lock(mutex_);
    installed_ = false;
    return;
  }
  detail::g_enabled.store(false, std::memory_order_release);
  detail::g_generation.fetch_add(1, std::memory_order_release);
  detail::g_session.store(nullptr, std::memory_order_release);
  const std::lock_guard<std::mutex> lock(mutex_);
  installed_ = false;
}

detail::ThreadBuffer* TraceSession::thread_buffer() {
  const std::uint64_t generation =
      detail::g_generation.load(std::memory_order_acquire);
  if (detail::t_cached.generation == generation) {
    return detail::t_cached.buffer;
  }
  TraceSession* session = detail::g_session.load(std::memory_order_acquire);
  detail::ThreadBuffer* buffer =
      session != nullptr ? session->register_thread() : nullptr;
  detail::t_cached = {buffer, generation};
  return buffer;
}

detail::ThreadBuffer* TraceSession::register_thread() {
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(
      std::make_unique<detail::ThreadBuffer>(static_cast<int>(buffers_.size())));
  return buffers_.back().get();
}

std::size_t TraceSession::event_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events().size();
  return total;
}

void TraceSession::set_process_name(std::string name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  process_name_ = std::move(name);
}

std::string TraceSession::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kTraceSchema);
  json.key("displayTimeUnit").value("ms");
  // The realtime instant of ts == 0 (process start).  obs::merge_traces
  // uses it to shift per-process files onto one fleet timeline.
  json.key("clock_unix_us")
      .value(static_cast<long long>(util::process_unix_anchor_us()));
  json.key("process").value(process_name_);
  json.key("traceEvents").begin_array();

  json.begin_object();
  json.key("name").value("process_name");
  json.key("ph").value("M");
  json.key("pid").value(1);
  json.key("args").begin_object();
  json.key("name").value(process_name_);
  json.end_object();
  json.end_object();

  for (const auto& buffer : buffers_) {
    json.begin_object();
    json.key("name").value("thread_name");
    json.key("ph").value("M");
    json.key("pid").value(1);
    json.key("tid").value(buffer->tid());
    json.key("args").begin_object();
    json.key("name").value(buffer->thread_name().empty()
                               ? "thread " + std::to_string(buffer->tid())
                               : buffer->thread_name());
    json.end_object();
    json.end_object();
  }

  for (const auto& buffer : buffers_) {
    for (const detail::TraceEvent& event : buffer->events()) {
      json.begin_object();
      json.key("name").value(event.name);
      json.key("ph").value(std::string(1, event.phase));
      json.key("pid").value(1);
      json.key("tid").value(buffer->tid());
      json.key("ts").value(static_cast<long long>(event.ts_us));
      if (event.phase == 'X') {
        json.key("dur").value(static_cast<long long>(event.dur_us));
      }
      if (event.phase == 'I') json.key("s").value("t");
      if (event.id >= 0 || event.num_values > 0 || event.num_strs > 0) {
        json.key("args").begin_object();
        if (event.id >= 0) {
          json.key("id").value(static_cast<long long>(event.id));
        }
        for (std::uint8_t i = 0; i < event.num_values; ++i) {
          json.key(event.values[i].key).value(event.values[i].value);
        }
        for (std::uint8_t i = 0; i < event.num_strs; ++i) {
          json.key(event.strs[i].key).value(event.strs[i].value);
        }
        json.end_object();
      }
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  return json.str();
}

util::Status TraceSession::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return util::Status::internal("cannot open trace file " + path +
                                  " for writing");
  }
  out << to_json() << '\n';
  out.flush();
  if (!out) return util::Status::internal("short write to trace file " + path);
  return util::Status::ok();
}

void Span::begin(const char* name, std::int64_t id) noexcept {
  buffer_ = TraceSession::thread_buffer();
  if (buffer_ == nullptr) return;
  name_ = name;
  id_ = id;
  start_us_ = detail::now_us();
}

void Span::begin_interned(const std::string& name, std::int64_t id) {
  buffer_ = TraceSession::thread_buffer();
  if (buffer_ == nullptr) return;
  name_ = buffer_->intern(name);
  id_ = id;
  start_us_ = detail::now_us();
}

void Span::set_str(const char* key, const std::string& value) {
  if (buffer_ == nullptr || num_strs_ == strs_.size()) return;
  strs_[num_strs_++] = {key, buffer_->intern(value)};
}

void Span::record_end() noexcept {
  detail::TraceEvent event;
  event.name = name_;
  event.ts_us = start_us_;
  event.dur_us = detail::now_us() - start_us_;
  event.id = id_;
  event.phase = 'X';
  event.num_strs = num_strs_;
  event.strs = strs_;
  buffer_->append(event);
}

void counter(const char* track, std::initializer_list<CounterValue> values) {
  if (!tracing_enabled()) return;
  detail::ThreadBuffer* buffer = TraceSession::thread_buffer();
  if (buffer == nullptr) return;
  detail::TraceEvent event;
  event.name = track;
  event.ts_us = detail::now_us();
  event.phase = 'C';
  for (const CounterValue& kv : values) {
    if (event.num_values == event.values.size()) break;
    event.values[event.num_values++] = {kv.key, kv.value};
  }
  buffer->append(event);
}

void instant(const char* name, std::int64_t id) {
  if (!tracing_enabled()) return;
  detail::ThreadBuffer* buffer = TraceSession::thread_buffer();
  if (buffer == nullptr) return;
  detail::TraceEvent event;
  event.name = name;
  event.ts_us = detail::now_us();
  event.id = id;
  event.phase = 'I';
  buffer->append(event);
}

void complete(const std::string& name, std::int64_t ts_us, std::int64_t dur_us,
              std::initializer_list<StrArg> strs) {
  if (!tracing_enabled()) return;
  detail::ThreadBuffer* buffer = TraceSession::thread_buffer();
  if (buffer == nullptr) return;
  detail::TraceEvent event;
  event.name = buffer->intern(name);
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.phase = 'X';
  for (const StrArg& arg : strs) {
    if (event.num_strs == event.strs.size()) break;
    event.strs[event.num_strs++] = {arg.key, buffer->intern(arg.value)};
  }
  buffer->append(event);
}

void name_this_thread(const std::string& name) {
  if (!tracing_enabled()) return;
  detail::ThreadBuffer* buffer = TraceSession::thread_buffer();
  if (buffer == nullptr) return;
  buffer->set_thread_name(name);
}

}  // namespace sadp::obs
