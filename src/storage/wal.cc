#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // sync_file_range
#endif

#include "storage/wal.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "storage/io.h"
#include "telemetry/trace.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/stopwatch.h"

namespace hops::storage {

namespace {

constexpr uint32_t kFrameDeltaBatch = 1;
constexpr uint32_t kFrameRegistration = 2;
constexpr size_t kSegmentHeaderBytes = 24;
constexpr size_t kFrameHeaderBytes = 8;  // payload_len + payload_crc
// One appended frame may not exceed this (a corrupted length field must not
// drive a multi-gigabyte allocation on replay).
constexpr uint32_t kMaxFramePayload = 64u << 20;

telemetry::LatencyHistogram* FsyncHistogram() {
  static telemetry::LatencyHistogram* histogram =
      telemetry::MetricRegistry::Global().GetHistogram(
          "hops_wal_fsync_seconds", "WAL fsync latency",
          telemetry::LogBucketSpec::Latency());
  return histogram;
}

}  // namespace

std::string WalSegmentFileName(uint64_t first_lsn) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.wal",
                static_cast<unsigned long long>(first_lsn));
  return buf;
}

bool ParseWalSegmentFileName(std::string_view name, uint64_t* first_lsn) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".wal";
  if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(kPrefix.size() + 16) != kSuffix) return false;
  uint64_t value = 0;
  for (char c : name.substr(kPrefix.size(), 16)) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  if (first_lsn != nullptr) *first_lsn = value;
  return true;
}

WalWriter::WalWriter(std::string dir, uint64_t next_lsn, WalOptions options)
    : dir_(std::move(dir)), options_(options), next_lsn_(next_lsn) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(std::string dir,
                                                   uint64_t next_lsn,
                                                   WalOptions options) {
  if (next_lsn == 0) next_lsn = 1;  // LSN 0 means "not persisted"
  HOPS_RETURN_NOT_OK(EnsureDir(dir));
  std::unique_ptr<WalWriter> writer(
      new WalWriter(std::move(dir), next_lsn, options));
  std::lock_guard<std::mutex> lock(writer->mutex_);
  HOPS_RETURN_NOT_OK(writer->OpenSegmentLocked());
  return writer;
}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    (void)SyncLocked();  // best-effort final flush; destructor cannot fail
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::OpenSegmentLocked() {
  if (fd_ >= 0) {
    HOPS_RETURN_NOT_OK(SyncLocked());
    ::close(fd_);
    fd_ = -1;
  }
  segment_first_lsn_ = next_lsn_;
  segment_path_ = dir_ + "/" + WalSegmentFileName(segment_first_lsn_);
  const std::string& path = segment_path_;
  fd_ = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0 && errno == EEXIST) {
    // A leftover segment at exactly next_lsn is frameless: every frame it
    // could hold has LSN >= next_lsn, and next_lsn was chosen past every
    // replayed (Open) or appended (rotation) record. A clean shutdown's
    // final rotation leaves exactly this header-only file. Replace it.
    HOPS_RETURN_NOT_OK(RemoveFileDurable(dir_, WalSegmentFileName(
                                                   segment_first_lsn_)));
    fd_ = ::open(path.c_str(),
                 O_CREAT | O_EXCL | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  }
  if (fd_ < 0) {
    return Status::Internal("open WAL segment " + path + ": " +
                            ::strerror(errno));
  }
  std::string header;
  header.reserve(kSegmentHeaderBytes);
  AppendLE<uint32_t>(&header, kWalMagic);
  AppendLE<uint32_t>(&header, kWalVersion);
  AppendLE<uint64_t>(&header, segment_first_lsn_);
  AppendLE<uint32_t>(&header, Crc32c(header.data(), header.size()));
  AppendLE<uint32_t>(&header, 0);  // padding
  HOPS_RETURN_NOT_OK(WriteAll(fd_, header.data(), header.size(), path));
  // The segment must exist durably before anything in it is acknowledged
  // under kEvery/kBatch; the directory fsync covers the new entry.
  if (options_.fsync != WalFsync::kNone) {
    HOPS_RETURN_NOT_OK(FsyncDir(dir_));
  }
  segment_bytes_written_ = kSegmentHeaderBytes;
  unsynced_bytes_ = kSegmentHeaderBytes;
  segments_created_.Increment();
  return Status::OK();
}

Status WalWriter::AppendFrameLocked(std::string_view payload, size_t records) {
  frame_scratch_.clear();
  frame_scratch_.append(kFrameHeaderBytes, '\0');
  frame_scratch_.append(payload);
  return CommitFrameLocked(records);
}

// Frames whatever AppendDeltas/AppendFrameLocked left in frame_scratch_
// after a kFrameHeaderBytes gap, patches len+crc into the gap, writes the
// whole frame with one write(2), and runs the flush/rotation policy.
Status WalWriter::CommitFrameLocked(size_t records) {
  static telemetry::SpanSite& append_site =
      telemetry::GetSpanSite("Storage.WalAppend");
  telemetry::TraceSpan span(append_site);
  const size_t payload_size = frame_scratch_.size() - kFrameHeaderBytes;
  if (payload_size > kMaxFramePayload) {
    return Status::InvalidArgument("WAL frame payload too large: " +
                                   std::to_string(payload_size));
  }
  StoreLE<uint32_t>(frame_scratch_.data(),
                    static_cast<uint32_t>(payload_size));
  StoreLE<uint32_t>(
      frame_scratch_.data() + 4,
      Crc32c(frame_scratch_.data() + kFrameHeaderBytes, payload_size));
  HOPS_RETURN_NOT_OK(WriteAll(fd_, frame_scratch_.data(),
                              frame_scratch_.size(), segment_path_));
  segment_bytes_written_ += frame_scratch_.size();
  unsynced_bytes_ += frame_scratch_.size();
  unkicked_bytes_ += frame_scratch_.size();
  frames_appended_.Increment();
  records_appended_.Increment(records);
  bytes_appended_.Increment(frame_scratch_.size());

  switch (options_.fsync) {
    case WalFsync::kEvery:
      HOPS_RETURN_NOT_OK(SyncLocked());
      break;
    case WalFsync::kBatch:
      if (unkicked_bytes_ >= options_.batch_bytes) {
        HOPS_RETURN_NOT_OK(KickWritebackLocked());
      }
      break;
    case WalFsync::kNone:
      break;
  }
  if (segment_bytes_written_ >= options_.segment_bytes) {
    HOPS_RETURN_NOT_OK(OpenSegmentLocked());
  }
  return Status::OK();
}

Status WalWriter::SyncLocked() {
  if (unsynced_bytes_ == 0 || fd_ < 0) return Status::OK();
  Stopwatch stopwatch;
  if (::fsync(fd_) != 0) {
    return Status::Internal("fsync WAL segment: " +
                            std::string(::strerror(errno)));
  }
  FsyncHistogram()->Record(stopwatch.ElapsedSeconds());
  fsyncs_.Increment();
  unsynced_bytes_ = 0;
  unkicked_bytes_ = 0;
  return Status::OK();
}

Status WalWriter::KickWritebackLocked() {
  if (unkicked_bytes_ == 0 || fd_ < 0) return Status::OK();
#ifdef __linux__
  // Initiate writeback without waiting for it. kBatch only bounds the
  // OS-crash dirty window — acknowledgments never promised power-loss
  // durability (write(2)-before-ack already covers process kills) — so a
  // blocking fsync on the accept path would buy nothing but a stall.
  // unsynced_bytes_ stays up, so an explicit Sync() still really fsyncs.
  if (::sync_file_range(fd_, 0, 0, SYNC_FILE_RANGE_WRITE) != 0) {
    return Status::Internal("sync_file_range WAL segment: " +
                            std::string(::strerror(errno)));
  }
  writeback_kicks_.Increment();
  unkicked_bytes_ = 0;
  return Status::OK();
#else
  return SyncLocked();
#endif
}

Status WalWriter::AppendDeltas(std::span<UpdateRecord> records) {
  if (records.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t first_lsn = next_lsn_;
  // This is the hot accept path: serialize straight into the frame buffer
  // (header patched by CommitFrameLocked) with raw stores — field-by-field
  // string appends and a second payload copy both show up at WAL rates.
  frame_scratch_.resize(kFrameHeaderBytes + 16 + records.size() * 20);
  char* p = frame_scratch_.data() + kFrameHeaderBytes;
  StoreLE<uint32_t>(p, kFrameDeltaBatch);
  StoreLE<uint32_t>(p + 4, static_cast<uint32_t>(records.size()));
  StoreLE<uint64_t>(p + 8, first_lsn);
  p += 16;
  for (size_t i = 0; i < records.size(); ++i, p += 20) {
    records[i].lsn = first_lsn + i;
    StoreLE<uint32_t>(p, records[i].column);
    StoreLE<int64_t>(p + 4, records[i].value);
    StoreLE<double>(p + 12, records[i].weight);
  }
  HOPS_RETURN_NOT_OK(CommitFrameLocked(records.size()));
  next_lsn_ = first_lsn + records.size();
  return Status::OK();
}

Status WalWriter::AppendRegistration(RefreshColumnId id,
                                     const std::string& table,
                                     const std::string& column,
                                     std::span<const int64_t> values,
                                     std::span<const double> frequencies,
                                     uint64_t* lsn_out) {
  if (values.size() != frequencies.size()) {
    return Status::InvalidArgument(
        "registration values/frequencies size mismatch");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t lsn = next_lsn_;
  std::string payload;
  payload.reserve(32 + table.size() + column.size() + values.size() * 16);
  AppendLE<uint32_t>(&payload, kFrameRegistration);
  AppendLE<uint32_t>(&payload, id);
  AppendLE<uint64_t>(&payload, lsn);
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(table.size()));
  AppendLE<uint32_t>(&payload, static_cast<uint32_t>(column.size()));
  AppendLE<uint64_t>(&payload, values.size());
  payload += table;
  payload += column;
  AppendLEArray(&payload, values);
  AppendLEArray(&payload, frequencies);
  HOPS_RETURN_NOT_OK(AppendFrameLocked(payload, 1));
  next_lsn_ = lsn + 1;
  if (lsn_out != nullptr) *lsn_out = lsn;
  return Status::OK();
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  return SyncLocked();
}

Status WalWriter::Rotate() {
  std::lock_guard<std::mutex> lock(mutex_);
  // A frameless active segment is already the rotation target: recreating
  // wal-<next_lsn> under O_EXCL would collide with itself.
  if (fd_ >= 0 && segment_first_lsn_ == next_lsn_) return Status::OK();
  return OpenSegmentLocked();
}

Result<size_t> WalWriter::RetireThrough(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mutex_);
  HOPS_ASSIGN_OR_RETURN(const std::vector<std::string> names, ListDir(dir_));
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t first = 0;
    if (ParseWalSegmentFileName(name, &first)) segments.emplace_back(first, name);
  }
  std::sort(segments.begin(), segments.end());
  size_t retired = 0;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    // A segment's records all precede its successor's first LSN; it is
    // fully covered iff that successor starts at or below lsn + 1. The
    // active segment (last) never retires.
    if (segments[i].first >= segment_first_lsn_) break;
    if (segments[i + 1].first > lsn + 1) break;
    HOPS_RETURN_NOT_OK(RemoveFileDurable(dir_, segments[i].second));
    segments_retired_.Increment();
    ++retired;
  }
  return retired;
}

uint64_t WalWriter::next_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_lsn_;
}

WalWriterStats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WalWriterStats s;
  s.records_appended = records_appended_.Value();
  s.frames_appended = frames_appended_.Value();
  s.bytes_appended = bytes_appended_.Value();
  s.fsyncs = fsyncs_.Value();
  s.writeback_kicks = writeback_kicks_.Value();
  s.segments_created = segments_created_.Value();
  s.segments_retired = segments_retired_.Value();
  s.next_lsn = next_lsn_;
  return s;
}

namespace {

Status ReplaySegment(const std::string& dir, const std::string& name,
                     bool is_last, const WalDeltaHandler& on_deltas,
                     const WalRegistrationHandler& on_registration,
                     WalReplayReport* report) {
  const std::string path = dir + "/" + name;
  // Bound as a reference into the Result (not moved into a local) to dodge
  // gcc-12's -Wmaybe-uninitialized false positive on the SSO union.
  Result<std::string> file = ReadFileToString(path);
  HOPS_RETURN_NOT_OK(file.status());
  const std::string& bytes = *file;
  ByteReader header(bytes);
  uint32_t magic, version, header_crc, padding;
  uint64_t first_lsn;
  if (!header.Read(&magic) || !header.Read(&version) ||
      !header.Read(&first_lsn) || !header.Read(&header_crc) ||
      !header.Read(&padding)) {
    return Status::Internal("WAL segment " + path + ": truncated header");
  }
  if (magic != kWalMagic || version != kWalVersion ||
      Crc32c(bytes.data(), 16) != header_crc) {
    return Status::Internal("WAL segment " + path + ": corrupt header");
  }

  size_t offset = kSegmentHeaderBytes;
  while (offset < bytes.size()) {
    // Frame boundary: anything short or checksum-broken here is a torn
    // tail if (and only if) this is the final segment.
    bool torn = false;
    uint32_t payload_len = 0, payload_crc = 0;
    std::string_view payload_bytes;
    ByteReader frame(std::string_view(bytes).substr(offset));
    if (!frame.Read(&payload_len) || !frame.Read(&payload_crc) ||
        payload_len > kMaxFramePayload ||
        !frame.Take(payload_len, &payload_bytes)) {
      torn = true;
    } else if (Crc32c(payload_bytes.data(), payload_len) != payload_crc) {
      torn = true;
    }
    if (torn) {
      if (!is_last) {
        return Status::Internal("WAL segment " + path +
                                ": corrupt frame at offset " +
                                std::to_string(offset));
      }
      // Torn tail of the final segment: the crash interrupted the last
      // append, which was never acknowledged. Truncate so future replays
      // (and byte-level tools) see a clean segment.
      report->torn_tail_truncated = true;
      report->torn_tail_bytes = bytes.size() - offset;
      if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
        return Status::Internal("truncate torn WAL tail of " + path + ": " +
                                ::strerror(errno));
      }
      return Status::OK();
    }

    ByteReader payload(payload_bytes);
    uint32_t type = 0;
    if (!payload.Read(&type)) {
      return Status::Internal("WAL segment " + path + ": empty frame payload");
    }
    if (type == kFrameDeltaBatch) {
      uint32_t count = 0;
      WalDeltaBatch batch;
      if (!payload.Read(&count) || !payload.Read(&batch.first_lsn) ||
          payload.remaining() != static_cast<size_t>(count) * 20) {
        return Status::Internal("WAL segment " + path +
                                ": malformed delta batch");
      }
      batch.records.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        UpdateRecord& r = batch.records[i];
        if (!payload.Read(&r.column) || !payload.Read(&r.value) ||
            !payload.Read(&r.weight)) {
          return Status::Internal("WAL segment " + path +
                                  ": malformed delta batch");
        }
        r.lsn = batch.first_lsn + i;
      }
      report->delta_records += count;
      if (count > 0) {
        report->max_lsn =
            std::max(report->max_lsn, batch.first_lsn + count - 1);
      }
      if (on_deltas) HOPS_RETURN_NOT_OK(on_deltas(batch));
    } else if (type == kFrameRegistration) {
      WalRegistration reg;
      uint32_t table_len = 0, column_len = 0;
      uint64_t count = 0;
      std::string_view table, column;
      if (!payload.Read(&reg.id) || !payload.Read(&reg.lsn) ||
          !payload.Read(&table_len) || !payload.Read(&column_len) ||
          !payload.Read(&count) || !payload.Take(table_len, &table) ||
          !payload.Take(column_len, &column) ||
          !payload.ReadArray(count, &reg.values) ||
          !payload.ReadArray(count, &reg.frequencies) ||
          payload.remaining() != 0) {
        return Status::Internal("WAL segment " + path +
                                ": malformed registration");
      }
      reg.table.assign(table);
      reg.column.assign(column);
      report->registrations += 1;
      report->max_lsn = std::max(report->max_lsn, reg.lsn);
      if (on_registration) HOPS_RETURN_NOT_OK(on_registration(reg));
    } else {
      return Status::Internal("WAL segment " + path + ": unknown frame type " +
                              std::to_string(type));
    }
    report->frames += 1;
    offset += kFrameHeaderBytes + payload_len;
  }
  return Status::OK();
}

}  // namespace

Result<WalReplayReport> ReplayWalDir(
    const std::string& dir, uint64_t min_lsn, const WalDeltaHandler& on_deltas,
    const WalRegistrationHandler& on_registration) {
  static telemetry::SpanSite& replay_site =
      telemetry::GetSpanSite("Storage.WalReplay");
  telemetry::TraceSpan span(replay_site);
  WalReplayReport report;
  HOPS_ASSIGN_OR_RETURN(const std::vector<std::string> names, ListDir(dir));
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t first = 0;
    if (ParseWalSegmentFileName(name, &first)) segments.emplace_back(first, name);
  }
  std::sort(segments.begin(), segments.end());
  for (size_t i = 0; i < segments.size(); ++i) {
    // Skip segments wholly at or below min_lsn (successor proves the bound).
    if (i + 1 < segments.size() && segments[i + 1].first <= min_lsn + 1) {
      report.segments_skipped += 1;
      continue;
    }
    report.segments_scanned += 1;
    HOPS_RETURN_NOT_OK(ReplaySegment(dir, segments[i].second,
                                     i + 1 == segments.size(), on_deltas,
                                     on_registration, &report));
  }
  return report;
}

}  // namespace hops::storage
