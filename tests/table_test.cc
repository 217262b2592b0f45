#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "db/statistics.h"
#include "filter/filter_policy.h"
#include "io/counting_env.h"
#include "io/mem_env.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "table/learned_index.h"
#include "table/merging_iterator.h"
#include "table/table_builder.h"
#include "table/table_reader.h"
#include "util/coding.h"
#include "util/random.h"

namespace lsmlab {
namespace {

// ---------------------------------------------------------------- Block ----

TEST(BlockTest, BuildAndIterate) {
  BlockBuilder builder(BytewiseComparator(), 4);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%04d", i);
    std::string value = "value" + std::to_string(i);
    model[key] = value;
    builder.Add(key, value);
  }
  Block block(builder.Finish().ToString());

  auto iter = block.NewIterator(BytewiseComparator());
  iter->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(key, iter->key().ToString());
    EXPECT_EQ(value, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST(BlockTest, SeekLowerBound) {
  BlockBuilder builder(BytewiseComparator(), 2);
  builder.Add("b", "1");
  builder.Add("d", "2");
  builder.Add("f", "3");
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator(BytewiseComparator());

  iter->Seek("a");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("b", iter->key().ToString());

  iter->Seek("d");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("d", iter->key().ToString());

  iter->Seek("e");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("f", iter->key().ToString());

  iter->Seek("g");
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, EmptyBlock) {
  BlockBuilder builder(BytewiseComparator(), 16);
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator(BytewiseComparator());
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, PrefixCompressionShrinksBlock) {
  // Keys sharing long prefixes must compress well vs restart-every-entry.
  auto build_size = [](int restart_interval) {
    BlockBuilder builder(BytewiseComparator(), restart_interval);
    for (int i = 0; i < 500; ++i) {
      char key[64];
      snprintf(key, sizeof(key), "a/very/long/shared/key/prefix/%06d", i);
      builder.Add(key, "v");
    }
    return builder.Finish().size();
  };
  EXPECT_LT(build_size(16), build_size(1) * 2 / 3);
}

TEST(BlockTest, RandomizedSeekMatchesModel) {
  Random rnd(1234);
  BlockBuilder builder(BytewiseComparator(), 8);
  std::map<std::string, std::string> model;
  std::string prev;
  for (int i = 0; i < 300; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "%08llu",
             static_cast<unsigned long long>(rnd.Uniform(1000000)));
    if (model.count(key)) continue;
    model[key] = std::to_string(i);
  }
  for (const auto& [key, value] : model) {
    builder.Add(key, value);
  }
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator(BytewiseComparator());

  for (int probe = 0; probe < 500; ++probe) {
    char target[32];
    snprintf(target, sizeof(target), "%08llu",
             static_cast<unsigned long long>(rnd.Uniform(1000000)));
    iter->Seek(target);
    auto expect = model.lower_bound(target);
    if (expect == model.end()) {
      EXPECT_FALSE(iter->Valid());
    } else {
      ASSERT_TRUE(iter->Valid());
      EXPECT_EQ(expect->first, iter->key().ToString());
      EXPECT_EQ(expect->second, iter->value().ToString());
    }
  }
}

TEST(BlockTest, OverflowingEntryHeaderReportsCorruption) {
  // Fuzzer-derived regression (fuzz_block): an entry header encoding
  // non_shared=0xffffffff with value_length=1 wrapped the old 32-bit bounds
  // check (0xffffffff + 1 == 0), letting DecodeEntry approve a ~4 GiB
  // over-read. The widened check must reject it as a bad entry instead.
  std::string contents;
  contents.push_back('\x00');  // shared = 0
  contents.append("\xff\xff\xff\xff\x0f", 5);  // non_shared = 0xffffffff
  contents.push_back('\x01');  // value_length = 1
  contents.push_back('k');  // Far less payload than claimed.
  PutFixed32(&contents, 0);  // restart[0]
  PutFixed32(&contents, 1);  // num_restarts
  Block block(std::move(contents));

  auto iter = block.NewIterator(BytewiseComparator());
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsCorruption());
  iter->Seek("k");
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsCorruption());
}

// Block::Seek, the in-place search point lookups run, lands exactly where
// the iterator's Seek does, with keys long enough to leave BlockKeyBuffer's
// inline bytes, and through both of its comparator instantiations.
TEST(BlockTest, InPlaceSeekMatchesIterator) {
  InternalKeyComparator icmp(BytewiseComparator());
  const Comparator& virtual_cmp = icmp;
  auto user_key = [](int i) {
    char suffix[16];
    snprintf(suffix, sizeof(suffix), "%06d", i);
    return std::string(static_cast<size_t>(30 + (i % 7) * 20), 'p') + suffix;
  };
  auto internal_key = [](const std::string& user, SequenceNumber seq) {
    std::string ikey;
    AppendInternalKey(&ikey, ParsedInternalKey(user, seq, kTypeValue));
    return ikey;
  };
  std::map<std::string, std::string> model;  // User key -> value.
  for (int i = 0; i < 400; i += 2) {
    model[user_key(i)] = "v" + std::to_string(i);
  }
  BlockBuilder builder(&icmp, 4);
  for (const auto& [key, value] : model) {
    builder.Add(internal_key(key, 7), value);
  }
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator(&icmp);

  Random rnd(77);
  for (int probe = 0; probe < 600; ++probe) {
    // Entries carry sequence 7: a target at a higher sequence sorts before
    // its user key's entry, one at 7 is that entry, one below sorts after.
    const std::string user = user_key(static_cast<int>(rnd.Uniform(402)));
    const SequenceNumber seq = (probe % 3 == 0)   ? kMaxSequenceNumber
                               : (probe % 3 == 1) ? 7
                                                  : 3;
    const std::string target = internal_key(user, seq);
    const auto expect =
        seq >= 7 ? model.lower_bound(user) : model.upper_bound(user);
    iter->Seek(target);
    ASSERT_TRUE(iter->status().ok());
    ASSERT_EQ(expect != model.end(), iter->Valid()) << probe;
    for (const bool inlined : {true, false}) {
      BlockKeyBuffer key;
      Slice value;
      Status s;
      const bool found =
          inlined ? block.Seek(icmp, target, &key, &value, &s)
                  : block.Seek(virtual_cmp, target, &key, &value, &s);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(expect != model.end(), found) << probe;
      if (found) {
        EXPECT_EQ(expect->first, ExtractUserKey(key.slice()).ToString());
        EXPECT_EQ(expect->second, value.ToString());
        EXPECT_EQ(iter->key(), key.slice());
        EXPECT_EQ(iter->value(), value);
      }
    }
  }
}

// ----------------------------------------------------------- BlockHandle ----

TEST(FormatTest, BlockHandleRoundTrip) {
  BlockHandle handle;
  handle.set_offset(123456789);
  handle.set_size(987654);
  std::string encoded;
  handle.EncodeTo(&encoded);
  BlockHandle decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(123456789u, decoded.offset());
  EXPECT_EQ(987654u, decoded.size());
}

TEST(FormatTest, FooterRoundTrip) {
  Footer footer;
  BlockHandle meta, index;
  meta.set_offset(100);
  meta.set_size(50);
  index.set_offset(200);
  index.set_size(60);
  footer.set_metaindex_handle(meta);
  footer.set_index_handle(index);
  std::string encoded;
  footer.EncodeTo(&encoded);
  EXPECT_EQ(Footer::kEncodedLength, encoded.size());

  Footer decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(100u, decoded.metaindex_handle().offset());
  EXPECT_EQ(60u, decoded.index_handle().size());
}

TEST(FormatTest, FooterRejectsBadMagic) {
  std::string encoded(Footer::kEncodedLength, '\x07');
  Footer footer;
  Slice input(encoded);
  EXPECT_TRUE(footer.DecodeFrom(&input).IsCorruption());
}

// ---------------------------------------------------------------- Table ----

class TableTest : public ::testing::Test {
 protected:
  TableTest() : icmp_(BytewiseComparator()) {}

  // Builds a table from `entries` (user_key -> value), all at seq 1..n.
  void BuildTable(const std::map<std::string, std::string>& entries,
                  std::shared_ptr<const FilterPolicy> filter_policy = nullptr,
                  LruCache* cache = nullptr) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_.NewWritableFile("/t.sst", &file).ok());
    TableBuilderOptions topt;
    topt.comparator = &icmp_;
    topt.filter_policy = filter_policy;
    topt.block_size = 256;  // Small blocks exercise the index.
    topt.index_type = index_type_;
    topt.learned_index_epsilon = epsilon_;
    TableBuilder builder(topt, file.get());
    SequenceNumber seq = 1;
    for (const auto& [key, value] : entries) {
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(key, seq++, kTypeValue));
      builder.Add(ikey, value);
    }
    ASSERT_TRUE(builder.Finish().ok()) << builder.status().ToString();
    ASSERT_TRUE(file->Close().ok());

    uint64_t size;
    ASSERT_TRUE(env_.GetFileSize("/t.sst", &size).ok());
    std::unique_ptr<RandomAccessFile> read_file;
    ASSERT_TRUE(env_.NewRandomAccessFile("/t.sst", &read_file).ok());
    TableReaderOptions ropt;
    ropt.comparator = &icmp_;
    ropt.filter_policy = filter_policy;
    ropt.block_cache = cache;
    ropt.statistics = &stats_;
    ropt.verify_checksums = true;
    ASSERT_TRUE(TableReader::Open(ropt, std::move(read_file), size, 1,
                                  &reader_)
                    .ok());
  }

  // Point lookup through the reader.
  bool Lookup(const std::string& user_key, std::string* value) {
    std::string ikey;
    AppendInternalKey(
        &ikey, ParsedInternalKey(user_key, kMaxSequenceNumber,
                                 kValueTypeForSeek));
    bool found = false;
    std::string fkey;
    Status s = reader_->InternalGet(ReadOptions(), ikey, &found, &fkey, value);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return found;
  }

  MemEnv env_;
  InternalKeyComparator icmp_;
  std::unique_ptr<TableReader> reader_;
  Statistics stats_;
  IndexType index_type_ = IndexType::kBinarySearchFence;
  uint32_t epsilon_ = 8;
};

TEST_F(TableTest, BuildAndGet) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value" + std::to_string(i);
  }
  BuildTable(entries);

  std::string value;
  EXPECT_TRUE(Lookup("key000000", &value));
  EXPECT_EQ("value0", value);
  EXPECT_TRUE(Lookup("key000999", &value));
  EXPECT_EQ("value999", value);
  EXPECT_TRUE(Lookup("key000500", &value));
  EXPECT_EQ("value500", value);
  EXPECT_FALSE(Lookup("nonexistent", &value));
  EXPECT_FALSE(Lookup("key001000", &value));
}

TEST_F(TableTest, FullScanMatchesModel) {
  std::map<std::string, std::string> entries;
  Random rnd(7);
  for (int i = 0; i < 2000; ++i) {
    entries["k" + std::to_string(rnd.Uniform(100000))] =
        std::string(rnd.Uniform(64) + 1, 'v');
  }
  BuildTable(entries);

  auto iter = reader_->NewIterator(ReadOptions());
  iter->SeekToFirst();
  for (const auto& [key, value] : entries) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(key, ExtractUserKey(iter->key()).ToString());
    EXPECT_EQ(value, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, IteratorSeek) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i * 10);
    entries[key] = std::to_string(i);
  }
  BuildTable(entries);

  auto iter = reader_->NewIterator(ReadOptions());
  std::string target;
  AppendInternalKey(&target, ParsedInternalKey("k0005", kMaxSequenceNumber,
                                               kValueTypeForSeek));
  iter->Seek(target);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("k0010", ExtractUserKey(iter->key()).ToString());
}

TEST_F(TableTest, PropertiesPersisted) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 321; ++i) {
    entries["key" + std::to_string(i)] = "v";
  }
  BuildTable(entries);
  EXPECT_EQ(321u, reader_->properties().num_entries);
  EXPECT_EQ(0u, reader_->properties().num_tombstones);
  EXPECT_GT(reader_->properties().num_data_blocks, 1u);
  EXPECT_GT(reader_->properties().raw_key_bytes, 0u);
}

TEST_F(TableTest, TombstonesCountedInProperties) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewWritableFile("/t.sst", &file).ok());
  TableBuilderOptions topt;
  topt.comparator = &icmp_;
  TableBuilder builder(topt, file.get());
  std::string ikey;
  AppendInternalKey(&ikey, ParsedInternalKey("a", 1, kTypeValue));
  builder.Add(ikey, "v");
  ikey.clear();
  AppendInternalKey(&ikey, ParsedInternalKey("b", 2, kTypeDeletion));
  builder.Add(ikey, "");
  ikey.clear();
  AppendInternalKey(&ikey, ParsedInternalKey("c", 3, kTypeSingleDeletion));
  builder.Add(ikey, "");
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(3u, builder.properties().num_entries);
  EXPECT_EQ(2u, builder.properties().num_tombstones);
}

TEST_F(TableTest, FilterSkipsAbsentKeys) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 1000; ++i) {
    entries["present" + std::to_string(i)] = "v";
  }
  BuildTable(entries, NewBloomFilterPolicy(10.0));

  // Present keys can never be ruled out.
  for (int i = 0; i < 1000; i += 97) {
    EXPECT_FALSE(
        reader_->KeyDefinitelyAbsent("present" + std::to_string(i)));
  }
  // Most absent keys are ruled out without touching data blocks.
  int ruled_out = 0;
  for (int i = 0; i < 1000; ++i) {
    if (reader_->KeyDefinitelyAbsent("absent" + std::to_string(i))) {
      ++ruled_out;
    }
  }
  EXPECT_GT(ruled_out, 950);
}

TEST_F(TableTest, BlockCachePopulatedAndHit) {
  LruCache cache(1 << 20, 1);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value";
  }
  BuildTable(entries, nullptr, &cache);

  std::string value;
  EXPECT_TRUE(Lookup("key000123", &value));
  CacheStats stats1 = cache.GetStats();
  EXPECT_GE(stats1.inserts, 1u);

  // Same block again: served from cache.
  EXPECT_TRUE(Lookup("key000123", &value));
  CacheStats stats2 = cache.GetStats();
  EXPECT_GT(stats2.hits, stats1.hits);
}

TEST_F(TableTest, SeekInsideTheOpenBlockKeepsIt) {
  LruCache cache(1 << 20, 1);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value";
  }
  BuildTable(entries, nullptr, &cache);
  auto lookups = [&] {
    const CacheStats stats = cache.GetStats();
    return stats.hits + stats.misses;
  };
  auto iter = reader_->NewIterator(ReadOptions());
  auto seek = [&](const std::string& user_key) {
    std::string target;
    AppendInternalKey(&target, ParsedInternalKey(user_key, kMaxSequenceNumber,
                                                 kValueTypeForSeek));
    iter->Seek(target);
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(user_key, ExtractUserKey(iter->key()).ToString());
  };
  seek("key000123");
  const uint64_t opened = lookups();
  // The index lands on the block already open: no block-cache lookup.
  seek("key000123");
  iter->Next();
  seek("key000123");
  EXPECT_EQ(opened, lookups());
  // Another block is fetched, and so is the first one again after it.
  seek("key000400");
  EXPECT_EQ(opened + 1, lookups());
  seek("key000123");
  EXPECT_EQ(opened + 2, lookups());
}

TEST_F(TableTest, WarmCacheLoadsAllDataBlocks) {
  LruCache cache(4 << 20, 1);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value";
  }
  BuildTable(entries, nullptr, &cache);
  reader_->WarmCache();
  EXPECT_GE(cache.GetStats().inserts, reader_->properties().num_data_blocks);
}

TEST_F(TableTest, CorruptBlockDetectedWithChecksums) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value" + std::to_string(i);
  }
  BuildTable(entries);

  // Flip a byte early in the file (inside the first data block).
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/t.sst", &contents).ok());
  contents[10] ^= 0x1;
  ASSERT_TRUE(WriteStringToFile(&env_, contents, "/t.sst").ok());

  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize("/t.sst", &size).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_.NewRandomAccessFile("/t.sst", &file).ok());
  TableReaderOptions ropt;
  ropt.comparator = &icmp_;
  ropt.verify_checksums = true;
  std::unique_ptr<TableReader> reader;
  ASSERT_TRUE(TableReader::Open(ropt, std::move(file), size, 2, &reader).ok());

  std::string ikey;
  AppendInternalKey(&ikey, ParsedInternalKey("key000000", kMaxSequenceNumber,
                                             kValueTypeForSeek));
  bool found;
  std::string fkey, value;
  ReadOptions read_options;
  read_options.verify_checksums = true;
  Status s = reader->InternalGet(read_options, ikey, &found, &fkey, &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// A read that returns fewer bytes than the block and its trailer must be
// refused, not built into a block: the read buffers are not zero-filled.
TEST_F(TableTest, ShortBlockReadIsRejected) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value" + std::to_string(i);
  }
  BuildTable(entries);
  std::string ikey;
  AppendInternalKey(&ikey, ParsedInternalKey("key000100", kMaxSequenceNumber,
                                             kValueTypeForSeek));
  BlockHandle handle;
  Status s;
  ASSERT_TRUE(reader_->LocateDataBlock(ikey, &handle, &s)) << s.ToString();
  std::string file;
  ASSERT_TRUE(ReadFileToString(&env_, "/t.sst", &file).ok());
  const Slice whole(file.data() + handle.offset(),
                    handle.size() + kBlockTrailerSize);
  const auto ctx = reader_->MakeFetchContext(ReadOptions());

  std::shared_ptr<const Block> block;
  std::unique_ptr<char[]> buf = NewBlockReadBuffer(handle);
  s = reader_->FinishBatchedBlockRead(
      ctx, handle, Slice(whole.data(), whole.size() - 1), &buf, &block);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(nullptr, block);

  s = reader_->FinishBatchedBlockRead(ctx, handle, whole, &buf, &block);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_NE(nullptr, block);
  bool found = false;
  BlockKeyBuffer key;
  Slice value;
  ASSERT_TRUE(reader_->SearchBlock(*block, ikey, &found, &key, &value).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ("value100", value.ToString());
}

// --------------------------------------------------------- Learned index ----

TEST(LearnedIndexTest, DigestTransformIsMonotone) {
  Random rnd(301);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    std::string k;
    size_t len = rnd.Uniform(24) + 1;
    for (size_t j = 0; j < len; ++j) {
      k.push_back(static_cast<char>(rnd.Uniform(256)));
    }
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LE(LearnedKeyDigest(keys[i - 1], 0), LearnedKeyDigest(keys[i], 0));
  }
}

TEST(LearnedIndexTest, ModelRoundTrip) {
  LearnedIndexBuilder builder(4);
  char key[32];
  uint64_t offset = 0;
  for (int i = 0; i < 500; ++i) {
    snprintf(key, sizeof(key), "user%08d", i * 7);
    builder.AddBlock(key, offset);
    offset += 100 + static_cast<uint64_t>(i % 13);
  }
  std::string encoded;
  uint64_t segments = 0;
  ASSERT_TRUE(builder.Finish(offset, &encoded, &segments));
  EXPECT_GE(segments, 1u);

  LearnedIndexModel model;
  ASSERT_TRUE(LearnedIndexModel::DecodeFrom(encoded, &model).ok());
  EXPECT_EQ(4u, model.epsilon);
  EXPECT_EQ(500u, model.num_blocks);
  EXPECT_EQ(501u, model.offsets.size());
  EXPECT_EQ(500u, model.digests.size());
  EXPECT_EQ(segments, model.segments.size());
  EXPECT_EQ(offset, model.offsets.back());

  // Re-encoding the decoded model reproduces the bytes exactly.
  std::string reencoded;
  model.EncodeTo(&reencoded);
  EXPECT_EQ(encoded, reencoded);
}

TEST(LearnedIndexTest, PredictionsWithinEpsilon) {
  const uint32_t eps = 8;
  LearnedIndexBuilder builder(eps);
  Random rnd(17);
  uint64_t offset = 0;
  std::vector<std::string> fences;
  std::string k;
  for (int i = 0; i < 1000; ++i) {
    // Uneven key spacing so the fit needs several segments.
    k.clear();
    uint64_t v = static_cast<uint64_t>(i) * 1000 + rnd.Uniform(900);
    if (i > 400) {
      v += 4000000;  // A distribution break.
    }
    char buf[32];
    snprintf(buf, sizeof(buf), "%012llu", static_cast<unsigned long long>(v));
    fences.emplace_back(buf);
    builder.AddBlock(fences.back(), offset);
    offset += 200;
  }
  std::string encoded;
  uint64_t segments = 0;
  ASSERT_TRUE(builder.Finish(offset, &encoded, &segments));
  LearnedIndexModel model;
  ASSERT_TRUE(LearnedIndexModel::DecodeFrom(encoded, &model).ok());

  for (size_t i = 0; i < fences.size(); ++i) {
    uint64_t x = model.QueryDigest(fences[i]);
    if ((i > 0 && model.digests[i] == model.digests[i - 1]) ||
        (i + 1 < model.digests.size() &&
         model.digests[i] == model.digests[i + 1])) {
      continue;  // Tied digests are fence-fallback territory, not the model's.
    }
    uint64_t pred = model.PredictBlock(x);
    uint64_t lo = pred > eps ? pred - eps : 0;
    EXPECT_GE(i, lo) << "block " << i;
    EXPECT_LE(i, pred + eps) << "block " << i;
  }
}

TEST(LearnedIndexTest, BuilderDeclinesDefeatedKeyspace) {
  // Adjacent fences share their first 8 post-prefix bytes almost everywhere:
  // the digest transform cannot discriminate, so the builder must decline.
  LearnedIndexBuilder builder(8);
  char key[40];
  for (int i = 0; i < 100; ++i) {
    snprintf(key, sizeof(key), "%c00000000%04d", i < 50 ? 'a' : 'b', i);
    builder.AddBlock(key, static_cast<uint64_t>(i) * 100);
  }
  std::string encoded;
  uint64_t segments = 0;
  EXPECT_FALSE(builder.Finish(100 * 100, &encoded, &segments));
  EXPECT_TRUE(encoded.empty());
}

TEST(LearnedIndexTest, DecodeRejectsCorruption) {
  LearnedIndexBuilder builder(8);
  char key[32];
  for (int i = 0; i < 64; ++i) {
    snprintf(key, sizeof(key), "key%06d", i * 11);
    builder.AddBlock(key, static_cast<uint64_t>(i) * 300);
  }
  std::string good;
  uint64_t segments = 0;
  ASSERT_TRUE(builder.Finish(64 * 300, &good, &segments));
  LearnedIndexModel model;
  ASSERT_TRUE(LearnedIndexModel::DecodeFrom(good, &model).ok());

  // Every truncation fails cleanly.
  for (size_t len = 0; len < good.size(); ++len) {
    LearnedIndexModel m;
    Status s = LearnedIndexModel::DecodeFrom(Slice(good.data(), len), &m);
    EXPECT_TRUE(s.IsCorruption()) << "length " << len;
  }
  // Trailing garbage is rejected (exact-length segment region).
  {
    std::string padded = good + "x";
    LearnedIndexModel m;
    EXPECT_TRUE(LearnedIndexModel::DecodeFrom(padded, &m).IsCorruption());
  }
  // Random single-byte flips either fail or decode into a *valid* model —
  // never crash, never over-read (the fuzz harness hammers this further).
  Random rnd(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = good;
    mutated[rnd.Uniform(static_cast<int>(mutated.size()))] ^=
        static_cast<char>(1 + rnd.Uniform(255));
    LearnedIndexModel m;
    Status s = LearnedIndexModel::DecodeFrom(mutated, &m);
    if (s.ok()) {
      for (size_t i = 1; i < m.digests.size(); ++i) {
        ASSERT_LE(m.digests[i - 1], m.digests[i]);
      }
      for (const auto& seg : m.segments) {
        ASSERT_TRUE(std::isfinite(seg.slope));
        ASSERT_TRUE(std::isfinite(seg.intercept));
      }
    }
  }
}

TEST(TablePropertiesTest, IndexFieldsRoundTrip) {
  TableProperties props;
  props.num_entries = 1000;
  props.num_data_blocks = 40;
  props.index_type = 1;
  props.learned_index_epsilon = 16;
  props.learned_index_segments = 7;
  props.learned_index_bytes = 1234;
  props.fence_index_bytes = 5678;
  props.learned_index_fallback = 0;
  std::string encoded;
  props.EncodeTo(&encoded);

  TableProperties decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  EXPECT_EQ(1u, decoded.index_type);
  EXPECT_EQ(16u, decoded.learned_index_epsilon);
  EXPECT_EQ(7u, decoded.learned_index_segments);
  EXPECT_EQ(1234u, decoded.learned_index_bytes);
  EXPECT_EQ(5678u, decoded.fence_index_bytes);
  EXPECT_EQ(0u, decoded.learned_index_fallback);

  // Pre-index-era properties (7 fields) still decode, with zero defaults.
  std::string old_format;
  PutVarint64(&old_format, 1000);  // num_entries
  for (int i = 0; i < 6; ++i) {
    PutVarint64(&old_format, 0);
  }
  TableProperties old_decoded;
  ASSERT_TRUE(old_decoded.DecodeFrom(old_format).ok());
  EXPECT_EQ(1000u, old_decoded.num_entries);
  EXPECT_EQ(0u, old_decoded.index_type);

  // Trailing garbage after the full field set is corruption.
  std::string padded = encoded + "zz";
  TableProperties bad;
  EXPECT_TRUE(bad.DecodeFrom(padded).IsCorruption());
}

TEST_F(TableTest, LearnedBuildAndGet) {
  index_type_ = IndexType::kLearnedPLR;
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value" + std::to_string(i);
  }
  BuildTable(entries);

  EXPECT_EQ(IndexType::kLearnedPLR, reader_->index_type());
  const TableProperties& props = reader_->properties();
  EXPECT_EQ(1u, props.index_type);
  EXPECT_EQ(8u, props.learned_index_epsilon);
  EXPECT_GE(props.learned_index_segments, 1u);
  EXPECT_GT(props.learned_index_bytes, 0u);
  EXPECT_GT(props.fence_index_bytes, 0u);
  EXPECT_EQ(0u, props.learned_index_fallback);

  std::string value;
  EXPECT_TRUE(Lookup("key000000", &value));
  EXPECT_EQ("value0", value);
  EXPECT_TRUE(Lookup("key000999", &value));
  EXPECT_EQ("value999", value);
  EXPECT_FALSE(Lookup("nonexistent", &value));
  EXPECT_FALSE(Lookup("key001000", &value));
  EXPECT_GT(stats_.learned_index_hits.load(), 0u);
}

TEST_F(TableTest, LearnedFullScanMatchesModel) {
  index_type_ = IndexType::kLearnedPLR;
  std::map<std::string, std::string> entries;
  Random rnd(7);
  for (int i = 0; i < 2000; ++i) {
    entries["k" + std::to_string(rnd.Uniform(100000))] =
        std::string(rnd.Uniform(64) + 1, 'v');
  }
  BuildTable(entries);
  EXPECT_EQ(IndexType::kLearnedPLR, reader_->index_type());

  auto iter = reader_->NewIterator(ReadOptions());
  iter->SeekToFirst();
  for (const auto& [key, value] : entries) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(key, ExtractUserKey(iter->key()).ToString());
    EXPECT_EQ(value, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, LearnedMatchesFenceRandomized) {
  // The equivalence oracle: identical tables built under both index types
  // must answer every Get and Seek identically.
  Random rnd(42);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 3000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "u%010u", static_cast<unsigned>(rnd.Uniform(1u << 30)));
    entries[key] = std::to_string(i);
  }

  index_type_ = IndexType::kBinarySearchFence;
  BuildTable(entries);
  std::unique_ptr<TableReader> fence_reader = std::move(reader_);

  index_type_ = IndexType::kLearnedPLR;
  epsilon_ = 4;
  BuildTable(entries);
  ASSERT_EQ(IndexType::kLearnedPLR, reader_->index_type());

  auto lookup = [&](TableReader* reader, const std::string& user_key,
                    bool* found, std::string* value) {
    std::string ikey;
    AppendInternalKey(&ikey, ParsedInternalKey(user_key, kMaxSequenceNumber,
                                               kValueTypeForSeek));
    std::string fkey;
    ASSERT_TRUE(
        reader->InternalGet(ReadOptions(), ikey, found, &fkey, value).ok());
  };

  for (int trial = 0; trial < 2000; ++trial) {
    char key[32];
    snprintf(key, sizeof(key), "u%010u", static_cast<unsigned>(rnd.Uniform(1u << 30)));
    bool f1 = false, f2 = false;
    std::string v1, v2;
    lookup(fence_reader.get(), key, &f1, &v1);
    lookup(reader_.get(), key, &f2, &v2);
    ASSERT_EQ(f1, f2) << key;
    if (f1) {
      ASSERT_EQ(v1, v2) << key;
    }
  }

  // Seeks agree too.
  auto fence_iter = fence_reader->NewIterator(ReadOptions());
  auto learned_iter = reader_->NewIterator(ReadOptions());
  for (int trial = 0; trial < 500; ++trial) {
    char key[32];
    snprintf(key, sizeof(key), "u%010u", static_cast<unsigned>(rnd.Uniform(1u << 30)));
    std::string target;
    AppendInternalKey(&target, ParsedInternalKey(key, kMaxSequenceNumber,
                                                 kValueTypeForSeek));
    fence_iter->Seek(target);
    learned_iter->Seek(target);
    ASSERT_EQ(fence_iter->Valid(), learned_iter->Valid()) << key;
    if (fence_iter->Valid()) {
      ASSERT_EQ(fence_iter->key().ToString(), learned_iter->key().ToString());
      ASSERT_EQ(fence_iter->value().ToString(),
                learned_iter->value().ToString());
    }
  }
}

TEST_F(TableTest, LearnedDigestTiesFallBackToFences) {
  index_type_ = IndexType::kLearnedPLR;
  epsilon_ = 2;
  std::map<std::string, std::string> entries;
  char key[40];
  // Most keys vary within the digest window...
  for (int i = 0; i < 900; ++i) {
    snprintf(key, sizeof(key), "k%06d", i);
    entries[key] = "plain" + std::to_string(i);
  }
  // ...but one cluster shares its first 8 post-prefix bytes entirely, so
  // every lookup into it lands on tied digests and must take the fence
  // fallback.
  for (int i = 0; i < 300; ++i) {
    snprintf(key, sizeof(key), "kzzzzzzzz%04d", i);
    entries[key] = "tied" + std::to_string(i);
  }
  BuildTable(entries);
  ASSERT_EQ(IndexType::kLearnedPLR, reader_->index_type())
      << "cluster too heavy: builder declined the model";

  std::string value;
  for (int i = 0; i < 300; ++i) {
    snprintf(key, sizeof(key), "kzzzzzzzz%04d", i);
    ASSERT_TRUE(Lookup(key, &value)) << key;
    ASSERT_EQ("tied" + std::to_string(i), value);
  }
  for (int i = 0; i < 900; i += 7) {
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(Lookup(key, &value)) << key;
  }
  EXPECT_GT(stats_.learned_index_fallbacks.load(), 0u);
  EXPECT_GT(stats_.learned_index_hits.load(), 0u);
}

TEST_F(TableTest, LearnedDefeatedTableFallsBackPerTable) {
  index_type_ = IndexType::kLearnedPLR;
  std::map<std::string, std::string> entries;
  char key[40];
  // Two flat clusters: nearly every fence digest ties, so the builder
  // declines and the table ships fence pointers only.
  for (int i = 0; i < 500; ++i) {
    snprintf(key, sizeof(key), "%c00000000%04d", i < 250 ? 'a' : 'b', i);
    entries[key] = std::to_string(i);
  }
  BuildTable(entries);

  EXPECT_EQ(IndexType::kBinarySearchFence, reader_->index_type());
  EXPECT_EQ(0u, reader_->properties().index_type);
  EXPECT_EQ(1u, reader_->properties().learned_index_fallback);

  std::string value;
  for (int i = 0; i < 500; i += 11) {
    snprintf(key, sizeof(key), "%c00000000%04d", i < 250 ? 'a' : 'b', i);
    ASSERT_TRUE(Lookup(key, &value)) << key;
    ASSERT_EQ(std::to_string(i), value);
  }
}

TEST_F(TableTest, LearnedIndexPinsFewerBytesThanFences) {
  index_type_ = IndexType::kLearnedPLR;
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 5000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%012d", i * 3);
    entries[key] = "v" + std::to_string(i);
  }
  BuildTable(entries);
  ASSERT_EQ(IndexType::kLearnedPLR, reader_->index_type());

  const TableProperties& props = reader_->properties();
  // The acceptance bar for the bottommost level: >= 2x fewer index bytes.
  EXPECT_LE(props.learned_index_bytes * 2, props.fence_index_bytes)
      << "learned=" << props.learned_index_bytes
      << " fence=" << props.fence_index_bytes;
  // And the reader pins only the model until a fallback happens.
  EXPECT_LT(reader_->IndexMemoryUsage(), props.fence_index_bytes);
}

TEST_F(TableTest, CorruptLearnedBlockFailsOpen) {
  index_type_ = IndexType::kLearnedPLR;
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "v";
  }
  BuildTable(entries);
  ASSERT_EQ(IndexType::kLearnedPLR, reader_->index_type());

  // Locate the learned block in the file by re-encoding the model the
  // reader decoded... simpler: flip bytes across the whole file tail (meta
  // region) and require that every resulting open either fails or yields a
  // reader that still answers correctly.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/t.sst", &contents).ok());
  Random rnd(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = contents;
    // Mutate within the last quarter (metaindex/learned/properties/index).
    size_t start = mutated.size() - mutated.size() / 4;
    size_t pos = start + rnd.Uniform(static_cast<int>(mutated.size() - start));
    mutated[pos] ^= static_cast<char>(1 + rnd.Uniform(255));
    ASSERT_TRUE(WriteStringToFile(&env_, mutated, "/corrupt.sst").ok());

    uint64_t size;
    ASSERT_TRUE(env_.GetFileSize("/corrupt.sst", &size).ok());
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env_.NewRandomAccessFile("/corrupt.sst", &file).ok());
    TableReaderOptions ropt;
    ropt.comparator = &icmp_;
    ropt.verify_checksums = true;
    std::unique_ptr<TableReader> reader;
    Status s = TableReader::Open(ropt, std::move(file), size, 3, &reader);
    if (!s.ok()) {
      continue;  // Rejected — the expected outcome for meta corruption.
    }
    std::string ikey, fkey, value;
    AppendInternalKey(&ikey, ParsedInternalKey("key000123", kMaxSequenceNumber,
                                               kValueTypeForSeek));
    bool found = false;
    s = reader->InternalGet(ReadOptions(), ikey, &found, &fkey, &value);
    if (s.ok() && found) {
      EXPECT_EQ("v", value);
    }
  }
}

// ------------------------------------------------------- MergingIterator ----

std::unique_ptr<Iterator> BlockIterOver(
    const std::vector<std::pair<std::string, std::string>>& entries,
    std::shared_ptr<Block>* out_block) {
  BlockBuilder builder(BytewiseComparator(), 4);
  for (const auto& [key, value] : entries) {
    builder.Add(key, value);
  }
  *out_block = std::make_shared<Block>(builder.Finish().ToString());
  return (*out_block)->NewIterator(BytewiseComparator());
}

TEST(MergingIteratorTest, MergesSortedStreams) {
  std::shared_ptr<Block> b1, b2, b3;
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(BlockIterOver({{"a", "1"}, {"d", "4"}, {"g", "7"}}, &b1));
  children.push_back(BlockIterOver({{"b", "2"}, {"e", "5"}}, &b2));
  children.push_back(BlockIterOver({{"c", "3"}, {"f", "6"}, {"h", "8"}}, &b3));

  auto merged = NewMergingIterator(BytewiseComparator(), std::move(children));
  merged->SeekToFirst();
  std::string got;
  while (merged->Valid()) {
    got += merged->key().ToString();
    merged->Next();
  }
  EXPECT_EQ("abcdefgh", got);
}

TEST(MergingIteratorTest, TieBreaksByChildOrder) {
  // Children with equal keys must surface the first (newest) child's entry
  // first — the LSM shadowing rule.
  std::shared_ptr<Block> b1, b2;
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(BlockIterOver({{"k", "new"}}, &b1));
  children.push_back(BlockIterOver({{"k", "old"}}, &b2));
  auto merged = NewMergingIterator(BytewiseComparator(), std::move(children));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("new", merged->value().ToString());
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("old", merged->value().ToString());
}

TEST(MergingIteratorTest, SeekAcrossChildren) {
  std::shared_ptr<Block> b1, b2;
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(BlockIterOver({{"a", "1"}, {"m", "2"}}, &b1));
  children.push_back(BlockIterOver({{"c", "3"}, {"z", "4"}}, &b2));
  auto merged = NewMergingIterator(BytewiseComparator(), std::move(children));
  merged->Seek("b");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("c", merged->key().ToString());
  merged->Seek("n");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("z", merged->key().ToString());
}

TEST(MergingIteratorTest, EmptyChildrenYieldEmpty) {
  auto merged = NewMergingIterator(BytewiseComparator(), {});
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
}

}  // namespace
}  // namespace lsmlab
