// The byte codec every binary format here is written with: the catalog
// histogram form (histogram/serialization.h), the `.hsnp` snapshot
// (storage/snapshot_file.h), the WAL (storage/wal.h) and the binary
// /estimate frame (net/wire_format.h).
//
// Byte order is decided here and nowhere else: every fixed-width value is
// little-endian (least significant byte first) on any host. The supported
// hosts are little-endian, where each value is one plain copy; a big-endian
// host reverses the bytes in SwapIfBigEndian below.
//
// Writers append to a std::string (one append per value) or store into a
// buffer the caller has already sized. ByteReader reads bytes that came
// from disk or the network and never runs past their end.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hops {

/// The values the codec carries: fixed-width integers and doubles.
template <typename T>
concept FixedWidthValue = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

namespace bytes_internal {

// Host order <-> little-endian, in place. A no-op on little-endian hosts.
template <size_t N>
inline void SwapIfBigEndian(char* bytes) {
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(bytes, bytes + N);
  }
}

}  // namespace bytes_internal

/// Stores \p v little-endian at \p out, which must hold sizeof(T) bytes.
template <FixedWidthValue T>
inline void StoreLE(char* out, T v) {
  std::memcpy(out, &v, sizeof(T));
  bytes_internal::SwapIfBigEndian<sizeof(T)>(out);
}

/// Appends \p v little-endian to \p out.
template <FixedWidthValue T>
inline void AppendLE(std::string* out, T v) {
  char bytes[sizeof(T)];
  StoreLE(bytes, v);
  out->append(bytes, sizeof(T));
}

/// Appends every element of \p values little-endian, in order, with no
/// padding: one append of the whole array on a little-endian host.
template <FixedWidthValue T>
inline void AppendLEArray(std::string* out, std::span<const T> values) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) {
      out->append(reinterpret_cast<const char*>(values.data()),
                  values.size_bytes());
    }
  } else {
    for (const T v : values) AppendLE(out, v);
  }
}

/// \brief Bounds-checked little-endian cursor over untrusted bytes. A read
/// either consumes exactly what it returns, or — when too few bytes
/// remain — returns false and leaves the cursor and its output untouched.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : rest_(bytes) {}

  /// Reads one little-endian value.
  template <FixedWidthValue T>
  [[nodiscard]] bool Read(T* out) {
    if (rest_.size() < sizeof(T)) return false;
    char bytes[sizeof(T)];
    std::memcpy(bytes, rest_.data(), sizeof(T));
    bytes_internal::SwapIfBigEndian<sizeof(T)>(bytes);
    std::memcpy(out, bytes, sizeof(T));
    rest_.remove_prefix(sizeof(T));
    return true;
  }

  /// Takes the next \p n raw bytes, as a view into the input.
  [[nodiscard]] bool Take(size_t n, std::string_view* out) {
    if (rest_.size() < n) return false;
    *out = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return true;
  }

  /// Reads \p count consecutive little-endian values into \p out (resized
  /// to \p count). Checks the length before allocating, so a hostile count
  /// fails without a large allocation.
  template <FixedWidthValue T>
  [[nodiscard]] bool ReadArray(size_t count, std::vector<T>* out) {
    if (count > rest_.size() / sizeof(T)) return false;
    out->resize(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count != 0) {
        std::memcpy(out->data(), rest_.data(), count * sizeof(T));
      }
      rest_.remove_prefix(count * sizeof(T));
    } else {
      for (T& v : *out) (void)Read(&v);
    }
    return true;
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return rest_.size(); }

 private:
  std::string_view rest_;
};

}  // namespace hops
