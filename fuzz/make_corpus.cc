/// Generates the checked-in seed corpus under fuzz/corpus/<harness>/ from
/// the real encoders, so every fuzzer starts from well-formed inputs and
/// mutation explores the format's edge instead of random noise.
///
///   make_corpus <output-root>     (e.g. make_corpus fuzz/corpus)

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>

#include "db/dbformat.h"
#include "db/wal_record.h"
#include "db/write_batch.h"
#include "io/env.h"
#include "io/mem_env.h"
#include "io/wal_writer.h"
#include "table/block_builder.h"
#include "table/learned_index.h"
#include "util/comparator.h"
#include "version/version_edit.h"

namespace {

using namespace lsmlab;

void WriteSeed(const std::filesystem::path& root, const std::string& harness,
               const std::string& name, const std::string& bytes) {
  std::filesystem::path dir = root / harness;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string SampleBatchRep(uint64_t seq) {
  WriteBatch batch;
  batch.SetSequence(seq);
  batch.Put("user.0001", "value-one");
  batch.Put("user.0002", std::string(200, 'x'));
  batch.Delete("user.0001");
  batch.SingleDelete("user.0003");
  batch.Merge("counter", "+1");
  batch.PutTyped(kTypeVlogPointer, "blob.key", "\x01\x02\x03\x04");
  return batch.rep();
}

std::string WalFile(MemEnv* env, const std::string& name,
                    const std::vector<std::string>& records) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(name, &file);
  if (!s.ok()) {
    std::abort();
  }
  wal::Writer writer(file.get());
  for (const std::string& rec : records) {
    if (!writer.AddRecord(rec).ok()) {
      std::abort();
    }
  }
  std::string contents;
  if (!ReadFileToString(env, name, &contents).ok()) {
    std::abort();
  }
  return contents;
}

/// A fuzz_db_iter input: the configuration byte, then (opcode, argument)
/// pairs (the format is documented in fuzz_db_iter.cc).
std::string IterOps(uint8_t config,
                    std::initializer_list<std::pair<uint8_t, uint8_t>> ops) {
  std::string bytes(1, static_cast<char>(config));
  for (const auto& [opcode, arg] : ops) {
    bytes.push_back(static_cast<char>(opcode));
    bytes.push_back(static_cast<char>(arg));
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-root>\n", argv[0]);
    return 2;
  }
  std::filesystem::path root(argv[1]);
  MemEnv env;

  // --- fuzz_write_batch -------------------------------------------------
  WriteSeed(root, "fuzz_write_batch", "seed-basic.bin", SampleBatchRep(100));
  {
    WriteBatch empty;
    WriteSeed(root, "fuzz_write_batch", "seed-empty.bin", empty.rep());
  }

  // --- fuzz_wal_reader --------------------------------------------------
  WriteSeed(root, "fuzz_wal_reader", "seed-normal.bin",
            WalFile(&env, "normal", {SampleBatchRep(1), SampleBatchRep(7)}));
  {
    // Cross-shard shape: a slice of batch 9 (the tag, then its batch), then
    // a plain record.
    std::string slice;
    PutCrossShardTag(&slice, 9);
    slice += SampleBatchRep(42);
    WriteSeed(root, "fuzz_wal_reader", "seed-2pc.bin",
              WalFile(&env, "twopc", {slice, SampleBatchRep(50)}));
  }
  {
    // Torn tail: a valid record followed by half of another.
    std::string whole =
        WalFile(&env, "torn", {SampleBatchRep(1), SampleBatchRep(2)});
    WriteSeed(root, "fuzz_wal_reader", "seed-torn-tail.bin",
              whole.substr(0, whole.size() - whole.size() / 4));
  }

  // --- fuzz_version_edit ------------------------------------------------
  {
    VersionEdit edit;
    edit.SetComparatorName("leveldb.BytewiseComparator");
    edit.SetLogNumber(12);
    edit.SetNextFileNumber(33);
    edit.SetLastSequence(777);
    FileMetaData f;
    f.file_number = 19;
    f.file_size = 4096;
    f.smallest = InternalKey("apple", 5, kTypeValue);
    f.largest = InternalKey("zebra", 90, kTypeDeletion);
    f.num_entries = 12;
    f.num_tombstones = 1;
    f.oldest_vlog = 11;
    edit.AddFile(2, f);
    edit.RemoveFile(1, 7);
    std::string bytes;
    edit.EncodeTo(&bytes);
    WriteSeed(root, "fuzz_version_edit", "seed-full.bin", bytes);
  }
  {
    VersionEdit edit;
    edit.SetLogNumber(3);
    edit.SetNextFileNumber(4);
    edit.SetLastSequence(5);
    std::string bytes;
    edit.EncodeTo(&bytes);
    WriteSeed(root, "fuzz_version_edit", "seed-meta-only.bin", bytes);
  }

  // --- fuzz_block -------------------------------------------------------
  {
    BlockBuilder builder(BytewiseComparator(), /*restart_interval=*/4);
    char key[16];
    for (int i = 0; i < 40; ++i) {
      std::snprintf(key, sizeof(key), "key%04d", i);
      builder.Add(key, std::string(static_cast<size_t>(i % 17), 'v'));
    }
    Slice finished = builder.Finish();
    WriteSeed(root, "fuzz_block", "seed-block.bin", finished.ToString());
  }
  {
    // Several restart intervals of long keys sharing long prefixes: the
    // in-place search rebuilds keys past BlockKeyBuffer's inline bytes.
    BlockBuilder builder(BytewiseComparator(), /*restart_interval=*/3);
    for (int i = 0; i < 24; ++i) {
      std::string key(static_cast<size_t>(40 + 6 * i), 'p');
      char suffix[16];
      std::snprintf(suffix, sizeof(suffix), "%04d", i);
      key += suffix;
      builder.Add(key, std::string(static_cast<size_t>(i % 5), 'v'));
    }
    WriteSeed(root, "fuzz_block", "seed-long-keys.bin",
              builder.Finish().ToString());
  }
  {
    BlockBuilder builder(BytewiseComparator(), /*restart_interval=*/16);
    builder.Add("only", "entry");
    WriteSeed(root, "fuzz_block", "seed-tiny.bin",
              builder.Finish().ToString());
  }

  // --- fuzz_learned_index -----------------------------------------------
  {
    LearnedIndexBuilder builder(/*epsilon=*/8);
    uint64_t offset = 0;
    char fence[24];
    for (int i = 0; i < 60; ++i) {
      std::snprintf(fence, sizeof(fence), "user%06d", i * 37);
      builder.AddBlock(fence, offset);
      offset += 900 + static_cast<uint64_t>(i % 13) * 40;
    }
    std::string bytes;
    uint64_t segments = 0;
    if (!builder.Finish(offset, &bytes, &segments)) {
      std::abort();
    }
    WriteSeed(root, "fuzz_learned_index", "seed-plr.bin", bytes);
  }
  {
    LearnedIndexBuilder builder(/*epsilon=*/1);
    builder.AddBlock("only-fence", 0);
    std::string bytes;
    uint64_t segments = 0;
    if (!builder.Finish(512, &bytes, &segments)) {
      std::abort();
    }
    WriteSeed(root, "fuzz_learned_index", "seed-single-block.bin", bytes);
  }

  // --- fuzz_db_iter -----------------------------------------------------
  // Opcodes: 0 put, 3 delete, 4 hot-key burst, 5 snapshot (an even
  // argument takes one, an odd one releases one), 6 flush, 7 compact.
  // Put/delete argument: key slot (arg % 8; 0 is the empty key, 3-5 the hot
  // key) plus arg / 8 bytes of value padding.
  WriteSeed(root, "fuzz_db_iter", "seed-empty-key-twice.bin",
            IterOps(0, {{0, 0}, {0, 8}, {0, 1}}));
  WriteSeed(root, "fuzz_db_iter", "seed-snapshot-before-first-write.bin",
            IterOps(0, {{5, 0}, {4, 9}, {0, 1}, {6, 0}, {0, 2}}));
  WriteSeed(root, "fuzz_db_iter", "seed-hot-history.bin",
            IterOps(0, {{4, 31}, {5, 0}, {4, 31}, {3, 3}, {4, 12}, {6, 0},
                        {4, 31}, {5, 2}, {0, 0}, {3, 0}, {4, 20}, {7, 0},
                        {4, 31}, {5, 1}, {0, 9}, {6, 0}}));
  // Tiering with the vector rep, then leveling with the hash-linklist rep:
  // snapshots held across flushes and compactions of a hot key.
  WriteSeed(root, "fuzz_db_iter", "seed-tiered-vector.bin",
            IterOps(6, {{0, 1}, {0, 2}, {4, 15}, {5, 0}, {4, 15}, {3, 4},
                        {6, 0}, {4, 31}, {0, 7}, {6, 0}, {5, 0}, {3, 7},
                        {4, 9}, {7, 0}, {0, 6}}));
  WriteSeed(root, "fuzz_db_iter", "seed-leveled-hashlinklist.bin",
            IterOps(13, {{4, 31}, {4, 31}, {5, 0}, {0, 96}, {0, 200},
                         {6, 0}, {3, 5}, {4, 31}, {5, 0}, {7, 0}, {4, 31},
                         {5, 3}, {6, 0}}));
  // A flush is a merge: it drops the hot key's versions below the oldest
  // snapshot. A snapshot taken mid-burst must still read its version after
  // the flush, and once released, a second flush drops that version too.
  WriteSeed(root, "fuzz_db_iter", "seed-snapshot-mid-burst-flush.bin",
            IterOps(0, {{0, 1}, {4, 15}, {5, 0}, {4, 15}, {3, 1}, {6, 0}}));
  WriteSeed(root, "fuzz_db_iter", "seed-snapshot-released-second-flush.bin",
            IterOps(1, {{0, 1}, {4, 15}, {5, 0}, {4, 15}, {6, 0}, {5, 1},
                        {4, 15}, {0, 9}, {6, 0}, {7, 0}}));

  std::printf("seed corpus written under %s\n", root.c_str());
  return 0;
}
