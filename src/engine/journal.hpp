// Crash-safe batch journal (schema sadp.flow_journal.v1, checksummed
// on-disk v2 framing).
//
// One record per line, appended and flushed as each job finishes, so
// killing a batch mid-run loses at most the jobs that were still in
// flight.  A journal record carries the complete non-timing payload of a
// JobOutcome (every field of the result fingerprint, including the DVI
// insertion vector), which is what makes resume exact: a restored row is
// bit-identical to the row the original run produced.  The record object
// is the one serialized form of a finished job: wire rows, result-cache
// replays and the elements of a metrics file carry the same members.
//
// On-disk line format (one line, no internal newlines):
//
//   v2:  {"schema":"sadp.flow_journal.v1",...}#xxxxxxxx
//   v1:  {"schema":"sadp.flow_journal.v1",...}
//
// where xxxxxxxx is the lowercase-hex CRC-32 of the JSON object bytes.
// The checksum lives OUTSIDE the object on purpose: the wire protocol
// (sadp.flow_response.v1) and the result cache embed the bare object
// byte-for-byte, so the object text must not depend on where it is
// stored.  v1 lines (no '#' suffix) still load — they just cannot detect
// bit rot.  The two framings cannot be confused because util::parse_json
// rejects trailing content, so a v2 line never parses as bare JSON.
//
// Load classifies bad lines instead of silently eating them:
//   torn     unparsable (the crash-truncated tail, garbage bytes)
//   corrupt  CRC mismatch (bit rot, torn-then-overwritten), or a CRC that
//            holds over a record that does not decode (e.g. a count of
//            1e30): intact bytes that were written wrong, not torn ones
// Both are skipped — never fatal; the matching jobs re-execute — and the
// counts surface in JournalLoadStats / BatchResult::journal_skipped.
//
// JournalWriter appends over a raw O_APPEND fd so short writes are
// detected (satellite: the old ofstream path reported success on partial
// flushes) and the fsync policy (JournalSync) is enforceable per record.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "engine/flow_engine.hpp"
#include "util/json.hpp"

namespace sadp::engine {

inline constexpr const char* kJournalSchema = "sadp.flow_journal.v1";

/// Serialize the outcome's full non-timing payload (plus informational
/// timing members) as the members of an open JSON object, "schema" first.
void write_outcome_members(util::JsonWriter& json, const JobOutcome& outcome);

/// write_outcome_members in braces.  This object IS the journal record; the
/// wire protocol (sadp.flow_response.v1) embeds the same object in its row
/// lines, which is what makes a row received over the socket bit-identical
/// to a journaled one, and each `results` element of a metrics file
/// (engine::metrics_json) is its members plus a `stages` object.
void write_outcome_object(util::JsonWriter& json, const JobOutcome& outcome);

/// Inverse of write_outcome_object (`router` stays null; members it does
/// not write, such as a metrics element's `stages`, are ignored).  Returns
/// nullopt and fills `error` on schema mismatch, on an absent required
/// member, and on a member of the wrong type, optional ones included.
[[nodiscard]] std::optional<JobOutcome> parse_outcome_object(
    const util::JsonValue& doc, std::string* error = nullptr);

/// Serialize one finished outcome as the bare JSON object (no newline, no
/// checksum).  This is the byte sequence the wire protocol and result
/// cache embed.
[[nodiscard]] std::string journal_line(const JobOutcome& outcome);

/// Serialize one finished outcome as a v2 on-disk record: the JSON object
/// plus its `#xxxxxxxx` CRC-32 suffix (no newline).
[[nodiscard]] std::string journal_record_line(const JobOutcome& outcome);

/// Parse one journal line (v2 checksummed or bare v1) back into an outcome
/// (`router` stays null, `from_journal` is set).  Returns nullopt and fills
/// `error` on malformed input, schema mismatch or checksum mismatch; sets
/// `*corrupt` (when non-null) iff the line carries a well-formed CRC suffix
/// and either the CRC disagrees or the checksummed record does not decode.
[[nodiscard]] std::optional<JobOutcome> parse_journal_line(
    std::string_view line, std::string* error = nullptr,
    bool* corrupt = nullptr);

/// Incremental journal appender over a raw O_APPEND file descriptor.
/// Detects short writes (a partial record reached the disk) and reports
/// them as a structured Status instead of pretending success; after a
/// short write it best-effort re-frames the file with a newline so the
/// torn record cannot swallow the next one.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Open (create, O_APPEND) `path`, creating the parent directory when
  /// missing.
  [[nodiscard]] util::Status open(const std::string& path,
                                  JournalSync sync = JournalSync::kBatch);
  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

  /// Append one v2 record + newline; fsync after when sync policy is
  /// kAlways.  kInternal on I/O error or short write.
  [[nodiscard]] util::Status append(const JobOutcome& outcome);

  /// Batch-policy fsync (kBatch only; kNone/kAlways no-op) and keep the
  /// file open.  Call once when the batch finishes.
  [[nodiscard]] util::Status finish();

  void close() noexcept;

 private:
  [[nodiscard]] util::Status write_all(std::string_view data);
  [[nodiscard]] util::Status sync_now();

  int fd_ = -1;
  std::string path_;
  JournalSync sync_ = JournalSync::kBatch;
};

/// Append one record to `path` and flush it to the OS (one-shot
/// JournalWriter; no fsync).  Creates the file (and parent directory) when
/// missing.
[[nodiscard]] util::Status append_journal(const std::string& path,
                                          const JobOutcome& outcome);

/// What load_journal saw, for skip reporting.
struct JournalLoadStats {
  std::size_t lines = 0;            ///< non-empty lines
  std::size_t records = 0;          ///< well-formed records loaded
  std::size_t skipped_torn = 0;     ///< unparsable (truncation, garbage)
  std::size_t skipped_corrupt = 0;  ///< CRC mismatch or undecodable record
  std::size_t legacy_v1 = 0;        ///< loaded records without a checksum

  [[nodiscard]] std::size_t skipped() const noexcept {
    return skipped_torn + skipped_corrupt;
  }
};

/// Load every well-formed record of a journal file, keyed by label (later
/// duplicates win).  A missing file is an empty journal, not an error.
/// Skipped-line counts are reported through `stats` when non-null.
[[nodiscard]] std::map<std::string, JobOutcome> load_journal(
    const std::string& path, JournalLoadStats* stats = nullptr);

}  // namespace sadp::engine
