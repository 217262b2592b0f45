#ifndef LSMLAB_UTIL_CODING_H_
#define LSMLAB_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/slice.h"

namespace lsmlab {

// Little-endian fixed-width encodings plus LEB128-style varints, the
// byte-level vocabulary of every on-disk structure in lsmlab.

inline void EncodeFixed32(char* dst, uint32_t value) {
  std::memcpy(dst, &value, sizeof(value));  // little-endian hosts only
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  std::memcpy(dst, &value, sizeof(value));
}

inline uint32_t DecodeFixed32(const char* ptr) {
  uint32_t result;
  std::memcpy(&result, ptr, sizeof(result));
  return result;
}

inline uint64_t DecodeFixed64(const char* ptr) {
  uint64_t result;
  std::memcpy(&result, ptr, sizeof(result));
  return result;
}

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);

/// Appends a varint32 to `dst` (1-5 bytes).
void PutVarint32(std::string* dst, uint32_t value);
/// Appends a varint64 to `dst` (1-10 bytes).
void PutVarint64(std::string* dst, uint64_t value);
/// Appends varint32(len) followed by the bytes of `value`.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

/// Parses a varint32 from the front of `input`, advancing it. Returns false
/// on malformed input.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

/// Parses a fixed32/64 from the front of `input`, advancing it.
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);

/// GetVarint32Ptr's multi-byte path.
const char* GetVarint32PtrFallback(const char* p, const char* limit,
                                   uint32_t* value);

/// Low-level varint32 decoder over [p, limit); returns pointer past the
/// encoded value or nullptr on error. Inline with a one-byte fast path:
/// every memtable key comparison decodes a length prefix below 128.
inline const char* GetVarint32Ptr(const char* p, const char* limit,
                                  uint32_t* value) {
  if (p < limit) {
    const uint32_t result = *reinterpret_cast<const unsigned char*>(p);
    if ((result & 128) == 0) {
      *value = result;
      return p + 1;
    }
  }
  return GetVarint32PtrFallback(p, limit, value);
}
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* v);

/// Number of bytes PutVarint32/64 would append.
int VarintLength(uint64_t v);

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_CODING_H_
