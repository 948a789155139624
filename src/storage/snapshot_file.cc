#include "storage/snapshot_file.h"

#include <algorithm>
#include <cstdio>

#include "storage/io.h"
#include "util/bytes.h"
#include "util/crc32c.h"

namespace hops::storage {

namespace {

constexpr size_t kHeaderBytes = 32;
constexpr size_t kSectionEntryBytes = 32;

// One fixed-width kColumns record: 20 packed fields (see EncodeSnapshot).
constexpr size_t kColumnRecordBytes =
    8 * 15 +  // doubles / u64 / i64 fields
    4 +       // u32 flags
    8 * 4;    // explicit/ideal offset+count cursors

constexpr uint32_t kFlagHotValid = 1u << 0;
constexpr uint32_t kFlagHasFeedback = 1u << 1;

struct SectionEntry {
  uint32_t kind = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
};

Status Corrupt(const std::string& what) {
  return Status::Internal("snapshot corrupt: " + what);
}

}  // namespace

std::string SnapshotFileName(uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%016llx.hsnp",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool ParseSnapshotFileName(std::string_view name, uint64_t* seq) {
  constexpr std::string_view kPrefix = "snapshot-";
  constexpr std::string_view kSuffix = ".hsnp";
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
  if (seq != nullptr) *seq = value;
  return true;
}

std::string EncodeSnapshot(uint64_t seq, const RefreshDurableState& state) {
  // Build every section payload, then lay them out behind the table.
  std::string meta;
  AppendLE<uint64_t>(&meta, state.columns.size());

  std::string names;
  std::string columns;
  std::vector<int64_t> explicit_values;
  std::vector<double> explicit_freqs;
  std::vector<int64_t> ideal_values;
  std::vector<double> ideal_counts;
  for (const ColumnDurableState& c : state.columns) {
    AppendLE<uint32_t>(&names, static_cast<uint32_t>(c.table.size()));
    AppendLE<uint32_t>(&names, static_cast<uint32_t>(c.column.size()));
    names += c.table;
    names += c.column;

    AppendLE<double>(&columns, c.default_frequency);
    AppendLE<uint64_t>(&columns, c.num_default_values);
    AppendLE<double>(&columns, c.maintainer.num_tuples);
    AppendLE<double>(&columns, c.maintainer.tuples_at_build);
    AppendLE<uint64_t>(&columns, c.maintainer.updates_applied);
    AppendLE<double>(&columns, c.maintainer.drift);
    AppendLE<int64_t>(&columns, c.maintainer.hot_value);
    AppendLE<double>(&columns, c.maintainer.hot_count);
    AppendLE<double>(&columns, c.tuples_at_build);
    AppendLE<int64_t>(&columns, c.min_value);
    AppendLE<int64_t>(&columns, c.max_value);
    AppendLE<uint64_t>(&columns, c.distinct);
    AppendLE<double>(&columns, c.feedback_ewma);
    AppendLE<uint64_t>(&columns, c.deltas_since_rebuild);
    AppendLE<uint64_t>(&columns, c.rebuilds);
    uint32_t flags = 0;
    if (c.maintainer.hot_valid) flags |= kFlagHotValid;
    if (c.has_feedback) flags |= kFlagHasFeedback;
    AppendLE<uint32_t>(&columns, flags);
    AppendLE<uint64_t>(&columns, explicit_values.size());
    AppendLE<uint64_t>(&columns, c.explicit_values.size());
    AppendLE<uint64_t>(&columns, ideal_values.size());
    AppendLE<uint64_t>(&columns, c.ideal_values.size());

    explicit_values.insert(explicit_values.end(), c.explicit_values.begin(),
                           c.explicit_values.end());
    explicit_freqs.insert(explicit_freqs.end(), c.explicit_freqs.begin(),
                          c.explicit_freqs.end());
    ideal_values.insert(ideal_values.end(), c.ideal_values.begin(),
                        c.ideal_values.end());
    ideal_counts.insert(ideal_counts.end(), c.ideal_counts.begin(),
                        c.ideal_counts.end());
  }
  std::string explicit_values_bytes;
  AppendLEArray<int64_t>(&explicit_values_bytes, explicit_values);
  std::string explicit_freqs_bytes;
  AppendLEArray<double>(&explicit_freqs_bytes, explicit_freqs);
  std::string ideal_values_bytes;
  AppendLEArray<int64_t>(&ideal_values_bytes, ideal_values);
  std::string ideal_counts_bytes;
  AppendLEArray<double>(&ideal_counts_bytes, ideal_counts);

  const std::pair<SnapshotSection, const std::string*> sections[] = {
      {SnapshotSection::kMeta, &meta},
      {SnapshotSection::kNames, &names},
      {SnapshotSection::kColumns, &columns},
      {SnapshotSection::kExplicitValues, &explicit_values_bytes},
      {SnapshotSection::kExplicitFreqs, &explicit_freqs_bytes},
      {SnapshotSection::kIdealValues, &ideal_values_bytes},
      {SnapshotSection::kIdealCounts, &ideal_counts_bytes},
  };
  const uint32_t num_sections = static_cast<uint32_t>(std::size(sections));

  std::string out;
  out.reserve(kHeaderBytes + num_sections * kSectionEntryBytes + meta.size() +
              names.size() + columns.size() + explicit_values_bytes.size() +
              explicit_freqs_bytes.size() + ideal_values_bytes.size() +
              ideal_counts_bytes.size());
  AppendLE<uint32_t>(&out, kSnapshotMagic);
  AppendLE<uint32_t>(&out, kSnapshotVersion);
  AppendLE<uint64_t>(&out, seq);
  AppendLE<uint64_t>(&out, state.high_water_lsn);
  AppendLE<uint32_t>(&out, num_sections);
  // header_crc placeholder — patched once the section table is in place.
  const size_t crc_pos = out.size();
  AppendLE<uint32_t>(&out, 0);

  uint64_t payload_offset =
      kHeaderBytes + static_cast<uint64_t>(num_sections) * kSectionEntryBytes;
  for (const auto& [kind, payload] : sections) {
    AppendLE<uint32_t>(&out, static_cast<uint32_t>(kind));
    AppendLE<uint32_t>(&out, 0);  // reserved
    AppendLE<uint64_t>(&out, payload_offset);
    AppendLE<uint64_t>(&out, payload->size());
    AppendLE<uint32_t>(&out, Crc32c(payload->data(), payload->size()));
    AppendLE<uint32_t>(&out, 0);  // padding
    payload_offset += payload->size();
  }
  // The header CRC covers the first 28 bytes plus the whole section table,
  // skipping its own 4-byte slot.
  uint32_t header_crc = Crc32c(out.data(), crc_pos);
  header_crc = Crc32cExtend(header_crc, out.data() + kHeaderBytes,
                            out.size() - kHeaderBytes);
  StoreLE(out.data() + crc_pos, header_crc);

  for (const auto& [kind, payload] : sections) out += *payload;
  return out;
}

namespace {

// Validates the header + section table of `bytes`; fills `entries`.
Status ParseHeader(std::string_view bytes, uint64_t* seq, uint64_t* high_water,
                   std::vector<SectionEntry>* entries) {
  ByteReader reader(bytes);
  uint32_t magic, version, num_sections, header_crc;
  uint64_t seq_value, high_water_value;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&seq_value) || !reader.Read(&high_water_value) ||
      !reader.Read(&num_sections) || !reader.Read(&header_crc)) {
    return Corrupt("truncated header");
  }
  if (magic != kSnapshotMagic) return Corrupt("bad magic");
  if (version != kSnapshotVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(num_sections) * kSectionEntryBytes;
  if (bytes.size() < kHeaderBytes + table_bytes) {
    return Corrupt("truncated section table");
  }
  uint32_t expected = Crc32c(bytes.data(), kHeaderBytes - sizeof(uint32_t));
  expected = Crc32cExtend(expected, bytes.data() + kHeaderBytes, table_bytes);
  if (expected != header_crc) return Corrupt("header checksum mismatch");

  entries->clear();
  entries->reserve(num_sections);
  for (uint32_t i = 0; i < num_sections; ++i) {
    SectionEntry entry;
    uint32_t reserved, pad;
    if (!reader.Read(&entry.kind) || !reader.Read(&reserved) ||
        !reader.Read(&entry.offset) || !reader.Read(&entry.length) ||
        !reader.Read(&entry.crc) || !reader.Read(&pad)) {
      return Corrupt("truncated section table");
    }
    if (entry.offset > bytes.size() ||
        entry.length > bytes.size() - entry.offset) {
      return Corrupt("section " + std::to_string(entry.kind) +
                     " out of bounds");
    }
    entries->push_back(entry);
  }
  // Sections are laid out back to back after the table, so the image must
  // end exactly where the last one does — trailing bytes are corruption.
  const uint64_t end = entries->empty()
                           ? kHeaderBytes + table_bytes
                           : entries->back().offset + entries->back().length;
  if (end != bytes.size()) return Corrupt("trailing bytes after sections");
  if (seq != nullptr) *seq = seq_value;
  if (high_water != nullptr) *high_water = high_water_value;
  return Status::OK();
}

// Finds a section, validates its checksum, and returns its payload view.
Result<std::string_view> SectionPayload(std::string_view bytes,
                                        const std::vector<SectionEntry>& table,
                                        SnapshotSection kind) {
  for (const SectionEntry& entry : table) {
    if (entry.kind != static_cast<uint32_t>(kind)) continue;
    const std::string_view payload = bytes.substr(entry.offset, entry.length);
    if (Crc32c(payload.data(), payload.size()) != entry.crc) {
      return Corrupt("section " + std::to_string(entry.kind) +
                     " checksum mismatch");
    }
    return payload;
  }
  return Corrupt("missing section " +
                 std::to_string(static_cast<uint32_t>(kind)));
}

template <typename T>
Status CopyArraySection(std::string_view payload, std::vector<T>* out,
                        const char* what) {
  if (payload.size() % sizeof(T) != 0 ||
      !ByteReader(payload).ReadArray(payload.size() / sizeof(T), out)) {
    return Corrupt(std::string(what) + " length not a multiple of " +
                   std::to_string(sizeof(T)));
  }
  return Status::OK();
}

}  // namespace

Result<RefreshDurableState> DecodeSnapshot(std::string_view bytes,
                                           uint64_t* seq_out) {
  std::vector<SectionEntry> table;
  uint64_t seq = 0;
  RefreshDurableState state;
  HOPS_RETURN_NOT_OK(ParseHeader(bytes, &seq, &state.high_water_lsn, &table));

  HOPS_ASSIGN_OR_RETURN(std::string_view meta,
                        SectionPayload(bytes, table, SnapshotSection::kMeta));
  uint64_t num_columns = 0;
  if (!ByteReader(meta).Read(&num_columns)) return Corrupt("truncated meta");
  // A column contributes at least its two name-length prefixes, so this
  // bound rejects absurd counts before any allocation.
  HOPS_ASSIGN_OR_RETURN(std::string_view names,
                        SectionPayload(bytes, table, SnapshotSection::kNames));
  HOPS_ASSIGN_OR_RETURN(
      std::string_view columns,
      SectionPayload(bytes, table, SnapshotSection::kColumns));
  if (num_columns > names.size() / 8 + 1 ||
      columns.size() != num_columns * kColumnRecordBytes) {
    return Corrupt("column count disagrees with section sizes");
  }

  std::vector<int64_t> explicit_values;
  std::vector<double> explicit_freqs;
  std::vector<int64_t> ideal_values;
  std::vector<double> ideal_counts;
  {
    HOPS_ASSIGN_OR_RETURN(
        std::string_view payload,
        SectionPayload(bytes, table, SnapshotSection::kExplicitValues));
    HOPS_RETURN_NOT_OK(
        CopyArraySection(payload, &explicit_values, "explicit values"));
    HOPS_ASSIGN_OR_RETURN(
        payload, SectionPayload(bytes, table, SnapshotSection::kExplicitFreqs));
    HOPS_RETURN_NOT_OK(
        CopyArraySection(payload, &explicit_freqs, "explicit freqs"));
    HOPS_ASSIGN_OR_RETURN(
        payload, SectionPayload(bytes, table, SnapshotSection::kIdealValues));
    HOPS_RETURN_NOT_OK(CopyArraySection(payload, &ideal_values, "ideal values"));
    HOPS_ASSIGN_OR_RETURN(
        payload, SectionPayload(bytes, table, SnapshotSection::kIdealCounts));
    HOPS_RETURN_NOT_OK(CopyArraySection(payload, &ideal_counts, "ideal counts"));
  }
  if (explicit_values.size() != explicit_freqs.size()) {
    return Corrupt("explicit arrays disagree in length");
  }
  if (ideal_values.size() != ideal_counts.size()) {
    return Corrupt("ideal arrays disagree in length");
  }

  ByteReader name_reader(names);
  ByteReader records(columns);
  state.columns.resize(num_columns);
  for (uint64_t i = 0; i < num_columns; ++i) {
    ColumnDurableState& c = state.columns[i];
    uint32_t table_len, column_len;
    std::string_view table_name, column_name;
    if (!name_reader.Read(&table_len) || !name_reader.Read(&column_len) ||
        !name_reader.Take(table_len, &table_name) ||
        !name_reader.Take(column_len, &column_name)) {
      return Corrupt("truncated names");
    }
    c.table.assign(table_name);
    c.column.assign(column_name);

    uint32_t flags = 0;
    uint64_t explicit_offset, explicit_count, ideal_offset, ideal_count;
    bool ok = records.Read(&c.default_frequency) &&
              records.Read(&c.num_default_values) &&
              records.Read(&c.maintainer.num_tuples) &&
              records.Read(&c.maintainer.tuples_at_build) &&
              records.Read(&c.maintainer.updates_applied) &&
              records.Read(&c.maintainer.drift) &&
              records.Read(&c.maintainer.hot_value) &&
              records.Read(&c.maintainer.hot_count) &&
              records.Read(&c.tuples_at_build) &&
              records.Read(&c.min_value) && records.Read(&c.max_value) &&
              records.Read(&c.distinct) && records.Read(&c.feedback_ewma) &&
              records.Read(&c.deltas_since_rebuild) &&
              records.Read(&c.rebuilds) && records.Read(&flags) &&
              records.Read(&explicit_offset) &&
              records.Read(&explicit_count) && records.Read(&ideal_offset) &&
              records.Read(&ideal_count);
    if (!ok) return Corrupt("truncated column record");
    c.maintainer.hot_valid = (flags & kFlagHotValid) != 0;
    c.has_feedback = (flags & kFlagHasFeedback) != 0;

    if (explicit_offset > explicit_values.size() ||
        explicit_count > explicit_values.size() - explicit_offset) {
      return Corrupt("explicit cursor of " + c.table + "." + c.column +
                     " out of bounds");
    }
    if (ideal_offset > ideal_values.size() ||
        ideal_count > ideal_values.size() - ideal_offset) {
      return Corrupt("ideal cursor of " + c.table + "." + c.column +
                     " out of bounds");
    }
    c.explicit_values.assign(
        explicit_values.begin() + static_cast<ptrdiff_t>(explicit_offset),
        explicit_values.begin() +
            static_cast<ptrdiff_t>(explicit_offset + explicit_count));
    c.explicit_freqs.assign(
        explicit_freqs.begin() + static_cast<ptrdiff_t>(explicit_offset),
        explicit_freqs.begin() +
            static_cast<ptrdiff_t>(explicit_offset + explicit_count));
    c.ideal_values.assign(
        ideal_values.begin() + static_cast<ptrdiff_t>(ideal_offset),
        ideal_values.begin() +
            static_cast<ptrdiff_t>(ideal_offset + ideal_count));
    c.ideal_counts.assign(
        ideal_counts.begin() + static_cast<ptrdiff_t>(ideal_offset),
        ideal_counts.begin() +
            static_cast<ptrdiff_t>(ideal_offset + ideal_count));
  }
  if (seq_out != nullptr) *seq_out = seq;
  return state;
}

Result<std::string> WriteSnapshotFile(const std::string& dir, uint64_t seq,
                                      const RefreshDurableState& state) {
  const std::string name = SnapshotFileName(seq);
  HOPS_RETURN_NOT_OK(
      WriteFileAtomic(dir, name, EncodeSnapshot(seq, state), true));
  return dir + "/" + name;
}

Result<RefreshDurableState> ReadSnapshotFile(const std::string& path,
                                             uint64_t* seq_out) {
  HOPS_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  return DecodeSnapshot(bytes, seq_out);
}

Result<SnapshotFileInfo> ReadSnapshotInfo(const std::string& path) {
  HOPS_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  SnapshotFileInfo info;
  info.path = path;
  std::vector<SectionEntry> table;
  HOPS_RETURN_NOT_OK(
      ParseHeader(bytes, &info.seq, &info.high_water_lsn, &table));
  return info;
}

Result<std::vector<SnapshotFileInfo>> ListSnapshotFiles(
    const std::string& dir) {
  HOPS_ASSIGN_OR_RETURN(const std::vector<std::string> names, ListDir(dir));
  std::vector<SnapshotFileInfo> out;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (!ParseSnapshotFileName(name, &seq)) continue;
    SnapshotFileInfo info;
    info.path = dir + "/" + name;
    info.seq = seq;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotFileInfo& a, const SnapshotFileInfo& b) {
              return a.seq < b.seq;
            });
  return out;
}

}  // namespace hops::storage
