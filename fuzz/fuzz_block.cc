/// Fuzz harness for the SSTable block decoder (restart array parsing, entry
/// header varints, shared-prefix reconstruction) plus the raw varint
/// decoders. Invariants: no crash and no over-read — a malformed block
/// yields an invalid/Corruption iterator, never UB — and Block::Seek, the
/// in-place search, agrees with the iterator's Seek. The uint32 overflow in
/// DecodeEntry's bounds check (non_shared + value_length wrapping) was
/// found by exactly this surface.

#include <cstdint>
#include <cstdlib>
#include <string>

#include "table/block.h"
#include "table/iterator.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/slice.h"
#include "util/status.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace lsmlab;

  const char* chars = reinterpret_cast<const char*>(data);

  // Raw varint decoders on the same bytes: must respect `limit` exactly.
  {
    uint32_t v32;
    uint64_t v64;
    const char* p = chars;
    const char* limit = chars + size;
    while (p != nullptr && p < limit) {
      p = GetVarint32Ptr(p, limit, &v32);
    }
    p = chars;
    while (p != nullptr && p < limit) {
      p = GetVarint64Ptr(p, limit, &v64);
    }
  }

  Block block{std::string(chars, size)};
  const Comparator* cmp = BytewiseComparator();

  // Full forward scan.
  {
    auto iter = block.NewIterator(cmp);
    size_t entries = 0;
    for (iter->SeekToFirst(); iter->Valid() && entries < 100000; iter->Next()) {
      (void)iter->key();
      (void)iter->value();
      ++entries;
    }
    (void)iter->status();
  }

  // Seeks: a key sliced from the input exercises the restart-point binary
  // search against whatever restart array the input declares. The in-place
  // search that point lookups run must land exactly where the iterator
  // does: same validity, status code, key and value.
  {
    auto iter = block.NewIterator(cmp);
    Slice target(chars, size < 16 ? size : 16);
    iter->Seek(target);
    BlockKeyBuffer key;
    Slice value;
    Status s;
    const bool found = block.Seek(*cmp, target, &key, &value, &s);
    if (found != iter->Valid() || s.code() != iter->status().code() ||
        (found && (key.slice() != iter->key() || value != iter->value()))) {
      std::abort();
    }
    if (iter->Valid()) {
      iter->Next();
    }
    (void)iter->status();
  }
  return 0;
}
