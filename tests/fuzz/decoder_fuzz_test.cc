// Seeded mutation fuzzing of the decoders that read outside bytes: the
// HTTP request parser (net/http.h), the JSON reader the /estimate,
// /feedback and /update bodies go through (util/json.h), the binary
// /estimate request and response frames (net/wire_format.h), the catalog
// histogram form (histogram/serialization.h) and the `.hsnp` snapshot image
// (storage/snapshot_file.h). The WAL is walked exhaustively by
// tests/storage/corruption_matrix_test.cc instead.
//
// Each target starts from a valid encoding and applies random multi-byte
// flips, truncations, extensions and splices, with the deterministic PRNG
// and a fixed iteration count, so a failure replays exactly. Every mutated
// input is copied into an allocation of exactly its size, so under
// AddressSanitizer (`scripts/check.sh --asan`) a read past the end is
// caught rather than landing in a string's spare capacity. A decode must
// return a value or a Status; a value it returns must survive its own
// encoder and decoder unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "histogram/serialization.h"
#include "histogram/tuning.h"
#include "net/http.h"
#include "net/wire_format.h"
#include "storage/snapshot_file.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/json.h"
#include "util/random.h"

namespace hops {
namespace {

constexpr int kIterations = 10000;

// One mutation of `bytes`: 1–8 random bytes flipped, a truncation, 1–16
// random bytes appended, or a run replaced by a slice of `donor`.
void MutateOnce(std::string* bytes, std::string_view donor, Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0: {
      if (bytes->empty()) return;
      const uint64_t flips = 1 + rng->NextBounded(8);
      for (uint64_t i = 0; i < flips; ++i) {
        const size_t pos = rng->NextBounded(bytes->size());
        (*bytes)[pos] =
            static_cast<char>((*bytes)[pos] ^ rng->NextInt(1, 255));
      }
      return;
    }
    case 1:
      bytes->resize(rng->NextBounded(bytes->size() + 1));
      return;
    case 2: {
      const uint64_t extra = 1 + rng->NextBounded(16);
      for (uint64_t i = 0; i < extra; ++i) {
        bytes->push_back(static_cast<char>(rng->NextInt(0, 255)));
      }
      return;
    }
    default: {
      if (donor.empty()) return;
      const size_t from = rng->NextBounded(donor.size());
      const size_t length = 1 + rng->NextBounded(donor.size() - from);
      const size_t at = rng->NextBounded(bytes->size() + 1);
      const size_t replaced = rng->NextBounded(bytes->size() - at + 1);
      bytes->replace(at, replaced, donor.substr(from, length));
      return;
    }
  }
}

std::string Mutate(std::string bytes, std::string_view donor, Rng* rng) {
  const uint64_t rounds = 1 + rng->NextBounded(3);
  for (uint64_t i = 0; i < rounds; ++i) MutateOnce(&bytes, donor, rng);
  return bytes;
}

// Owns a copy of some bytes in an allocation of exactly their size.
class ExactBuffer {
 public:
  explicit ExactBuffer(std::string_view bytes)
      : size_(bytes.size()), data_(new char[bytes.size()]) {
    if (size_ != 0) std::memcpy(data_.get(), bytes.data(), size_);
  }
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  size_t size_;
  std::unique_ptr<char[]> data_;
};

// Runs `check(view)` on the valid input, then on kIterations mutations of
// it; `check` decodes and asserts whatever must hold for that target.
template <typename Check>
void FuzzFrom(uint64_t seed, const std::string& valid, std::string_view donor,
              Check check) {
  check(ExactBuffer(valid).view(), /*unmutated=*/true);
  Rng rng(seed);
  for (int i = 0; i < kIterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const std::string mutated = Mutate(valid, donor, &rng);
    check(ExactBuffer(mutated).view(), /*unmutated=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ------------------------------------------------------------ HTTP parser

// Small limits, so mutated lengths reach the 413 and 431 verdicts.
constexpr net::HttpParserLimits kFuzzLimits{/*max_header_bytes=*/256,
                                            /*max_body_bytes=*/128};

std::string PostRequest(const std::string& target, const std::string& extra,
                        const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: hops\r\n" + extra +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

// Everything the parser hands out, in order: each request's fields, then
// the error verdict (if any) that ended the stream.
struct ParseOutcome {
  std::vector<std::string> requests;
  int error_status = 0;
  bool operator==(const ParseOutcome&) const = default;
};

void PrintTo(const ParseOutcome& outcome, std::ostream* out) {
  *out << outcome.requests.size() << " requests, verdict "
       << outcome.error_status;
}

std::string Describe(const net::HttpRequest& request) {
  std::string out = request.method + " " + request.target + " 1." +
                    std::to_string(request.version_minor) +
                    (request.keep_alive ? " keep-alive\n" : " close\n");
  for (const auto& [name, value] : request.headers) {
    out += name + ": " + value + "\n";
  }
  return out + std::to_string(request.body.size()) + ":" + request.body;
}

// Feeds `bytes` in the given piece sizes (the rest in one last piece),
// pulling every complete request after each piece, as a connection does
// after each read. Stops at the first error.
ParseOutcome ParsePieces(std::string_view bytes,
                         const std::vector<size_t>& pieces) {
  net::HttpParser parser(kFuzzLimits);
  ParseOutcome outcome;
  size_t fed = 0;
  for (size_t i = 0; i <= pieces.size() && fed < bytes.size(); ++i) {
    const size_t take = i < pieces.size()
                            ? std::min(pieces[i], bytes.size() - fed)
                            : bytes.size() - fed;
    const ExactBuffer piece(bytes.substr(fed, take));
    parser.Feed(piece.view());
    fed += take;
    net::HttpRequest request;
    net::HttpParser::Event event;
    while ((event = parser.Next(&request)) ==
           net::HttpParser::Event::kRequest) {
      outcome.requests.push_back(Describe(request));
    }
    if (event == net::HttpParser::Event::kError) {
      outcome.error_status = parser.error_status();
      EXPECT_FALSE(parser.error_message().empty());
      // The verdict is final: the parser does not resynchronize.
      parser.Feed("GET / HTTP/1.1\r\n\r\n");
      EXPECT_EQ(parser.Next(&request), net::HttpParser::Event::kError);
      EXPECT_EQ(parser.error_status(), outcome.error_status);
      return outcome;
    }
  }
  return outcome;
}

TEST(DecoderFuzzTest, HttpParser) {
  const std::string estimate = R"({"specs":[{"kind":"equality",)"
                               R"("table":"orders","column":"c","value":7}]})";
  const std::string update =
      R"({"updates":[{"table":"t","column":"c","value":1,"weight":2.5}]})";
  const std::string valid =
      PostRequest("/estimate",
                  "traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-"
                  "00f067aa0ba902b7-01\r\n",
                  estimate) +
      "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" +
      "\r\n" + PostRequest("/update", "Connection: close\r\n", update);
  const std::string donor =
      "GET /metrics HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
      "Content-Length: 99999\r\nX-Pad: " +
      std::string(64, 'p') + "\r\n\r\n";
  Rng splits(0x5B117);
  std::set<int> verdicts;
  FuzzFrom(0x4770, valid, donor, [&](std::string_view bytes, bool unmutated) {
    const ParseOutcome whole = ParsePieces(bytes, {});
    verdicts.insert(whole.error_status);
    if (unmutated) {
      ASSERT_EQ(whole.error_status, 0);
      ASSERT_EQ(whole.requests.size(), 3u);
      EXPECT_NE(whole.requests[0].find(estimate), std::string::npos);
      EXPECT_NE(whole.requests[2].find(update), std::string::npos);
    }
    // However the bytes are split across reads, the parser hands out the
    // same requests and the same verdict.
    std::vector<size_t> pieces;
    for (size_t fed = 0; fed < bytes.size();) {
      pieces.push_back(1 + splits.NextBounded(24));
      fed += pieces.back();
    }
    EXPECT_EQ(ParsePieces(bytes, pieces), whole);
  });
  // Only the documented verdicts occur, and the mutations reach each of
  // them as well as complete streams.
  EXPECT_EQ(verdicts, (std::set<int>{0, 400, 413, 431, 501, 505}));
}

// ------------------------------------------------------------ JSON bodies

void Render(const JsonValue& value, JsonWriter* out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out->Null();
      return;
    case JsonValue::Type::kBool:
      out->Bool(value.AsBool());
      return;
    case JsonValue::Type::kNumber:
      if (value.is_integer()) {
        out->Int(value.AsInt64());
      } else {
        out->Double(value.AsDouble());
      }
      return;
    case JsonValue::Type::kString:
      out->String(value.AsString());
      return;
    case JsonValue::Type::kArray:
      out->BeginArray();
      for (const JsonValue& element : value.AsArray()) Render(element, out);
      out->EndArray();
      return;
    case JsonValue::Type::kObject:
      out->BeginObject();
      for (const auto& [key, member] : value.AsObject()) {
        out->Key(key);
        Render(member, out);
      }
      out->EndObject();
      return;
  }
}

// Structural equality; numbers compare by value (a re-rendered 1.0 reads
// back as the integer 1).
bool SameJson(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.AsBool() == b.AsBool();
    case JsonValue::Type::kNumber:
      return a.AsDouble() == b.AsDouble();
    case JsonValue::Type::kString:
      return a.AsString() == b.AsString();
    case JsonValue::Type::kArray: {
      const JsonValue::Array& x = a.AsArray();
      const JsonValue::Array& y = b.AsArray();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (!SameJson(x[i], y[i])) return false;
      }
      return true;
    }
    case JsonValue::Type::kObject: {
      const JsonValue::Object& x = a.AsObject();
      const JsonValue::Object& y = b.AsObject();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first || !SameJson(x[i].second, y[i].second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

TEST(DecoderFuzzTest, ParseJsonRequestBodies) {
  const std::string estimate =
      R"({"specs": [{"kind": "equality", "table": "orders", "column": )"
      R"("customer_id", "value": -7},)"
      R"( {"kind": "range", "table": "orders", "column": "item_id", )"
      R"("low": 100, "high": 4e2, "include_high": false},)"
      R"( {"kind": "in", "table": "r\u00e9gion", "column": "name", )"
      R"("values": ["EMEA", "tab\tbed", 3]},)"
      R"( {"kind": "join", "left": {"table": "orders", "column": "c"}, )"
      R"("right": {"table": "customers", "column": "id"}}], "explain": null})";
  const std::string feedback =
      R"({"reports": [{"kind": "equality", "table": "orders", "column": )"
      R"("item_id", "value": 3, "estimated": 2.0, "actual": 6e2},)"
      R"( {"kind": "range", "table": "orders", "column": "item_id", )"
      R"("low": -5, "high": 9, "estimated": 0.125, "actual": 1}]})";
  const std::string update =
      R"({"updates": [{"table": "orders", "column": "customer_id", )"
      R"("value": 42, "weight": -2.5}, {"table": "orders", "column": )"
      R"("item_id", "value": "\"quoted\"", "weight": 1E-3}]})";
  const std::string* bodies[] = {&estimate, &feedback, &update};
  for (size_t b = 0; b < 3; ++b) {
    SCOPED_TRACE(b == 0 ? "/estimate" : b == 1 ? "/feedback" : "/update");
    const std::string& valid = *bodies[b];
    const std::string& donor = *bodies[(b + 1) % 3];
    size_t accepted = 0, rejected = 0;
    FuzzFrom(0x750A + b, valid, donor,
             [&](std::string_view bytes, bool unmutated) {
               const Result<JsonValue> parsed = ParseJson(bytes);
               if (unmutated) {
                 ASSERT_TRUE(parsed.ok()) << parsed.status().message();
               } else {
                 ++(parsed.ok() ? accepted : rejected);
               }
               if (!parsed.ok()) {
                 EXPECT_EQ(parsed.status().code(),
                           StatusCode::kInvalidArgument);
                 return;
               }
               // What was accepted renders to a document that reads back
               // the same.
               JsonWriter rendered;
               Render(*parsed, &rendered);
               const Result<JsonValue> again = ParseJson(rendered.str());
               ASSERT_TRUE(again.ok()) << again.status().message() << "\n"
                                       << rendered.str();
               EXPECT_TRUE(SameJson(*parsed, *again)) << rendered.str();
             });
    // Mutations both keep documents well-formed and break them.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

// ------------------------------------------------------------ wire frames

std::vector<net::WireSpec> RequestSpecs() {
  std::vector<net::WireSpec> specs(5);
  specs[0].table = "orders";
  specs[0].column = "customer_id";
  specs[0].a = -42;
  specs[1].kind = net::WireSpec::Kind::kNotEquals;
  specs[1].table = "orders";
  specs[1].column = "region";
  specs[1].value_is_string = true;
  specs[1].value_string = "EMEA";
  specs[2].kind = net::WireSpec::Kind::kRange;
  specs[2].table = "t";
  specs[2].column = "c";
  specs[2].a = -7;
  specs[2].b = 1 << 20;
  specs[2].include_low = false;
  specs[3].kind = net::WireSpec::Kind::kJoin;
  specs[3].table = "orders";
  specs[3].column = "customer_id";
  specs[3].right_table = "customers";
  specs[3].right_column = "id";
  specs[4].table = "";
  specs[4].column = "";
  return specs;
}

TEST(DecoderFuzzTest, DecodeBatchRequest) {
  const std::vector<net::WireSpec> specs = RequestSpecs();
  const std::string valid = net::EncodeBatchRequest(specs);
  const std::string donor =
      net::EncodeBatchRequest(std::span(specs).subspan(2));
  FuzzFrom(0xB10B, valid, donor, [&](std::string_view bytes, bool unmutated) {
    const auto decoded = net::DecodeBatchRequest(bytes);
    if (unmutated) {
      ASSERT_TRUE(decoded.ok()) << decoded.status().message();
      EXPECT_EQ(net::EncodeBatchRequest(*decoded), valid);
    }
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      return;
    }
    // Whatever was accepted re-encodes to a frame that decodes the same.
    const std::string again = net::EncodeBatchRequest(*decoded);
    const auto redecoded = net::DecodeBatchRequest(again);
    ASSERT_TRUE(redecoded.ok()) << redecoded.status().message();
    EXPECT_EQ(net::EncodeBatchRequest(*redecoded), again);
  });
}

TEST(DecoderFuzzTest, DecodeBatchResponse) {
  const std::vector<net::WireResult> results = {
      {net::WireStatus::kOk, 0.1 + 0.2},
      {net::WireStatus::kUnknownColumn, 0.0},
      {net::WireStatus::kOk, -0.0},
      {net::WireStatus::kEstimateFailed, 0.0},
  };
  const std::string valid = net::EncodeBatchResponse(77, results);
  const std::string donor = net::EncodeBatchResponse(
      1, std::span(results).subspan(0, 1));
  FuzzFrom(0xB10C, valid, donor, [&](std::string_view bytes, bool unmutated) {
    const auto decoded = net::DecodeBatchResponse(bytes);
    if (unmutated) {
      ASSERT_TRUE(decoded.ok()) << decoded.status().message();
      EXPECT_EQ(net::EncodeBatchResponse(decoded->snapshot_version,
                                         decoded->results),
                valid);
    }
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      return;
    }
    const std::string again = net::EncodeBatchResponse(
        decoded->snapshot_version, decoded->results);
    const auto redecoded = net::DecodeBatchResponse(again);
    ASSERT_TRUE(redecoded.ok()) << redecoded.status().message();
    EXPECT_EQ(net::EncodeBatchResponse(redecoded->snapshot_version,
                                       redecoded->results),
              again);
  });
}

// ------------------------------------------------------- catalog histogram

CatalogHistogram RefinedHistogram() {
  auto hist = CatalogHistogram::Make(
      {{-3, 9.5}, {42, 1.0}, {1000, 0.0}, {7, 1e300}}, 0.25, 97);
  EXPECT_TRUE(hist.ok());
  auto tree = BucketRefinementTree::MakeUniform(-8, 23, 4);
  EXPECT_TRUE(tree.ok());
  tree->ScaleRange(0, 5, 3.0);
  hist->SetRefinement(
      std::make_shared<const BucketRefinementTree>(*std::move(tree)));
  return *std::move(hist);
}

TEST(DecoderFuzzTest, CatalogHistogramDecode) {
  for (const bool refined : {false, true}) {
    SCOPED_TRACE(refined ? "version 2" : "version 1");
    CatalogHistogram original = RefinedHistogram();
    if (!refined) original.SetRefinement(nullptr);
    const std::string valid = original.Encode();
    auto donor_hist = CatalogHistogram::Make({{5, 2.0}}, 1.5, 3);
    ASSERT_TRUE(donor_hist.ok());
    const std::string donor = donor_hist->Encode();
    FuzzFrom(refined ? 0xC47B : 0xC47A, valid, donor,
             [&](std::string_view bytes, bool unmutated) {
               const auto decoded = CatalogHistogram::Decode(bytes);
               if (unmutated) {
                 ASSERT_TRUE(decoded.ok()) << decoded.status().message();
                 EXPECT_EQ(*decoded, original);
                 EXPECT_EQ(decoded->Encode(), valid);
               }
               if (!decoded.ok()) {
                 EXPECT_EQ(decoded.status().code(),
                           StatusCode::kInvalidArgument);
                 return;
               }
               const auto redecoded =
                   CatalogHistogram::Decode(decoded->Encode());
               ASSERT_TRUE(redecoded.ok()) << redecoded.status().message();
               EXPECT_EQ(*redecoded, *decoded);
             });
  }
}

// --------------------------------------------------------- snapshot image

RefreshDurableState SnapshotState() {
  RefreshDurableState state;
  state.high_water_lsn = 1234;
  ColumnDurableState a;
  a.table = "orders";
  a.column = "customer_id";
  a.explicit_values = {-5, 3, 1000000007};
  a.explicit_freqs = {0.1, 2.0 / 3.0, 123456.789};
  a.default_frequency = 1.0 / 7.0;
  a.num_default_values = 94;
  a.maintainer = {1234.5, 1000.25, 77, -0.125, 42, 17.5, true};
  a.ideal_values = {-5, 0, 3, 9};
  a.ideal_counts = {1.5, 0.0, 2.0 / 3.0, 8.0};
  a.distinct = 97;
  a.has_feedback = true;
  state.columns.push_back(a);
  ColumnDurableState b;
  b.table = "orders";
  b.column = "item_id";
  b.explicit_values = {1};
  b.explicit_freqs = {4.0};
  b.default_frequency = 4.25;
  b.num_default_values = 10;
  state.columns.push_back(b);
  return state;
}

// Re-stamps every in-bounds section CRC and the header CRC of a mutated
// image, so the fuzzer reaches the structural checks behind the checksums
// (counts, cursors, name lengths) instead of stopping at a mismatch.
void RestampChecksums(std::string* image) {
  constexpr size_t kHeaderBytes = 32;
  constexpr size_t kEntryBytes = 32;
  ByteReader header(*image);
  uint32_t magic, version, num_sections;
  uint64_t seq, high_water;
  if (!header.Read(&magic) || !header.Read(&version) || !header.Read(&seq) ||
      !header.Read(&high_water) || !header.Read(&num_sections)) {
    return;
  }
  const uint64_t table_bytes = uint64_t{num_sections} * kEntryBytes;
  if (image->size() < kHeaderBytes + table_bytes) return;
  for (uint32_t i = 0; i < num_sections; ++i) {
    const size_t entry = kHeaderBytes + i * kEntryBytes;
    ByteReader fields(std::string_view(*image).substr(entry + 8));
    uint64_t offset = 0, length = 0;
    if (!fields.Read(&offset) || !fields.Read(&length)) return;
    if (offset > image->size() || length > image->size() - offset) continue;
    StoreLE<uint32_t>(image->data() + entry + 24,
                      Crc32c(image->data() + offset, length));
  }
  uint32_t crc = Crc32c(image->data(), kHeaderBytes - sizeof(uint32_t));
  crc = Crc32cExtend(crc, image->data() + kHeaderBytes, table_bytes);
  StoreLE<uint32_t>(image->data() + kHeaderBytes - sizeof(uint32_t), crc);
}

TEST(DecoderFuzzTest, DecodeSnapshot) {
  const RefreshDurableState state = SnapshotState();
  const std::string valid = storage::EncodeSnapshot(9, state);
  RefreshDurableState donor_state = state;
  donor_state.columns.resize(1);
  const std::string donor = storage::EncodeSnapshot(2, donor_state);
  for (const bool restamp : {false, true}) {
    SCOPED_TRACE(restamp ? "checksums re-stamped" : "checksums as mutated");
    FuzzFrom(restamp ? 0x45A1 : 0x45A0, valid, donor,
             [&](std::string_view bytes, bool unmutated) {
               std::string image(bytes);
               if (restamp && !unmutated) RestampChecksums(&image);
               uint64_t seq = 0;
               const auto decoded =
                   storage::DecodeSnapshot(ExactBuffer(image).view(), &seq);
               if (unmutated) {
                 ASSERT_TRUE(decoded.ok()) << decoded.status().message();
                 EXPECT_EQ(storage::EncodeSnapshot(seq, *decoded), valid);
               }
               if (!decoded.ok()) {
                 EXPECT_EQ(decoded.status().code(), StatusCode::kInternal);
                 return;
               }
               // An accepted image re-encodes to one that decodes the same.
               const std::string again = storage::EncodeSnapshot(seq, *decoded);
               const auto redecoded = storage::DecodeSnapshot(again);
               ASSERT_TRUE(redecoded.ok()) << redecoded.status().message();
               EXPECT_EQ(storage::EncodeSnapshot(seq, *redecoded), again);
             });
  }
}

}  // namespace
}  // namespace hops
