// Seeded mutation fuzzing of the decoders that read outside bytes: the
// binary /estimate request and response frames (net/wire_format.h), the
// catalog histogram form (histogram/serialization.h) and the `.hsnp`
// snapshot image (storage/snapshot_file.h). The WAL is walked exhaustively
// by tests/storage/corruption_matrix_test.cc instead.
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

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "histogram/serialization.h"
#include "histogram/tuning.h"
#include "net/wire_format.h"
#include "storage/snapshot_file.h"
#include "util/bytes.h"
#include "util/crc32c.h"
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
