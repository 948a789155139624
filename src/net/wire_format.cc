// Binary batch codec (net/wire_format.h). Fields are written and read with
// the shared little-endian codec (util/bytes.h), so the frame layout is
// identical on any host.

#include "net/wire_format.h"

#include "util/bytes.h"

namespace hops::net {

namespace {

constexpr std::string_view kRequestMagic = "HOPB";
constexpr std::string_view kResponseMagic = "HOPR";
constexpr size_t kFrameHeaderBytes = 12;
constexpr size_t kSpecPreludeBytes = 32;
constexpr size_t kResultRecordBytes = 16;

constexpr uint8_t kFlagIncludeLow = 1u << 0;
constexpr uint8_t kFlagIncludeHigh = 1u << 1;
constexpr uint8_t kFlagValueIsString = 1u << 2;

Status Malformed(std::string_view detail) {
  return Status::InvalidArgument("malformed batch frame: " +
                                 std::string(detail));
}

}  // namespace

std::string EncodeBatchRequest(std::span<const WireSpec> specs) {
  std::string out;
  // Header + preludes exactly; name bytes grow on top.
  out.reserve(kFrameHeaderBytes + specs.size() * (kSpecPreludeBytes + 16));
  out += kRequestMagic;
  AppendLE(&out, kBatchWireVersion);
  AppendLE<uint16_t>(&out, 0);
  AppendLE(&out, static_cast<uint32_t>(specs.size()));
  for (const WireSpec& spec : specs) {
    const bool join = spec.kind == WireSpec::Kind::kJoin;
    const std::string_view value =
        spec.value_is_string ? std::string_view(spec.value_string)
                             : std::string_view();
    uint8_t flags = 0;
    if (spec.include_low) flags |= kFlagIncludeLow;
    if (spec.include_high) flags |= kFlagIncludeHigh;
    if (spec.value_is_string) flags |= kFlagValueIsString;
    AppendLE(&out, static_cast<uint8_t>(spec.kind));
    AppendLE(&out, flags);
    AppendLE(&out, static_cast<uint16_t>(spec.table.size()));
    AppendLE(&out, static_cast<uint16_t>(spec.column.size()));
    AppendLE(&out, static_cast<uint16_t>(join ? spec.right_table.size() : 0));
    AppendLE(&out, static_cast<uint16_t>(join ? spec.right_column.size() : 0));
    AppendLE(&out, static_cast<uint16_t>(value.size()));
    AppendLE<uint32_t>(&out, 0);
    AppendLE(&out, spec.a);
    AppendLE(&out, spec.b);
    out += spec.table;
    out += spec.column;
    if (join) {
      out += spec.right_table;
      out += spec.right_column;
    }
    out += value;
  }
  return out;
}

Result<std::vector<WireSpec>> DecodeBatchRequest(std::string_view body) {
  ByteReader reader(body);
  std::string_view magic;
  if (!reader.Take(kRequestMagic.size(), &magic) || magic != kRequestMagic) {
    return Malformed("bad magic (want HOPB)");
  }
  uint16_t version = 0, reserved16 = 0;
  uint32_t count = 0;
  if (!reader.Read(&version) || !reader.Read(&reserved16) ||
      !reader.Read(&count)) {
    return Malformed("truncated header");
  }
  if (version != kBatchWireVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  // Each declared spec needs at least its prelude: a cheap bound that stops
  // a hostile count from driving a huge reserve.
  if (count > reader.remaining() / kSpecPreludeBytes) {
    return Malformed("spec_count exceeds frame size");
  }
  std::vector<WireSpec> specs;
  specs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireSpec spec;
    uint8_t kind = 0, flags = 0;
    uint16_t table_len = 0, column_len = 0, right_table_len = 0,
             right_column_len = 0, value_len = 0;
    uint32_t reserved32 = 0;
    if (!reader.Read(&kind) || !reader.Read(&flags) ||
        !reader.Read(&table_len) || !reader.Read(&column_len) ||
        !reader.Read(&right_table_len) || !reader.Read(&right_column_len) ||
        !reader.Read(&value_len) || !reader.Read(&reserved32) ||
        !reader.Read(&spec.a) || !reader.Read(&spec.b)) {
      return Malformed("truncated spec prelude");
    }
    if (kind > static_cast<uint8_t>(WireSpec::Kind::kJoin)) {
      // IN-lists and chains are JSON-only (see the header comment).
      return Malformed("unsupported spec kind " + std::to_string(kind));
    }
    spec.kind = static_cast<WireSpec::Kind>(kind);
    spec.include_low = (flags & kFlagIncludeLow) != 0;
    spec.include_high = (flags & kFlagIncludeHigh) != 0;
    spec.value_is_string = (flags & kFlagValueIsString) != 0;
    const bool join = spec.kind == WireSpec::Kind::kJoin;
    if (!join && (right_table_len != 0 || right_column_len != 0)) {
      return Malformed("right-side names on a non-join spec");
    }
    if (spec.value_is_string && spec.kind != WireSpec::Kind::kEquality &&
        spec.kind != WireSpec::Kind::kNotEquals) {
      return Malformed("string literal on a non-point spec");
    }
    std::string_view bytes;
    if (!reader.Take(table_len, &bytes)) return Malformed("truncated names");
    spec.table = bytes;
    if (!reader.Take(column_len, &bytes)) return Malformed("truncated names");
    spec.column = bytes;
    if (!reader.Take(right_table_len, &bytes)) {
      return Malformed("truncated names");
    }
    spec.right_table = bytes;
    if (!reader.Take(right_column_len, &bytes)) {
      return Malformed("truncated names");
    }
    spec.right_column = bytes;
    if (!reader.Take(value_len, &bytes)) return Malformed("truncated literal");
    if (spec.value_is_string) {
      spec.value_string = bytes;
    } else if (value_len != 0) {
      return Malformed("value bytes without the string flag");
    }
    specs.push_back(std::move(spec));
  }
  if (reader.remaining() != 0) {
    return Malformed("trailing bytes after last spec");
  }
  return specs;
}

std::string EncodeBatchResponse(uint64_t snapshot_version,
                                std::span<const WireResult> results) {
  std::string out;
  out.reserve(kFrameHeaderBytes + 8 + results.size() * kResultRecordBytes);
  out += kResponseMagic;
  AppendLE(&out, kBatchWireVersion);
  AppendLE<uint16_t>(&out, 0);
  AppendLE(&out, static_cast<uint32_t>(results.size()));
  AppendLE(&out, snapshot_version);
  for (const WireResult& result : results) {
    AppendLE(&out, static_cast<uint32_t>(result.status));
    AppendLE<uint32_t>(&out, 0);
    AppendLE(&out, result.status == WireStatus::kOk ? result.estimate : 0.0);
  }
  return out;
}

Result<WireResponse> DecodeBatchResponse(std::string_view body) {
  ByteReader reader(body);
  std::string_view magic;
  if (!reader.Take(kResponseMagic.size(), &magic) || magic != kResponseMagic) {
    return Malformed("bad magic (want HOPR)");
  }
  uint16_t version = 0, reserved16 = 0;
  uint32_t count = 0;
  WireResponse response;
  if (!reader.Read(&version) || !reader.Read(&reserved16) ||
      !reader.Read(&count) || !reader.Read(&response.snapshot_version)) {
    return Malformed("truncated header");
  }
  if (version != kBatchWireVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  if (count != reader.remaining() / kResultRecordBytes ||
      reader.remaining() % kResultRecordBytes != 0) {
    return Malformed("result_count does not match frame size");
  }
  response.results.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireResult result;
    uint32_t status = 0, reserved32 = 0;
    if (!reader.Read(&status) || !reader.Read(&reserved32) ||
        !reader.Read(&result.estimate)) {
      return Malformed("truncated result record");
    }
    if (status > static_cast<uint32_t>(WireStatus::kEstimateFailed)) {
      return Malformed("unknown result status " + std::to_string(status));
    }
    result.status = static_cast<WireStatus>(status);
    response.results.push_back(result);
  }
  return response;
}

}  // namespace hops::net
