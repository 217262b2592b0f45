/// Differential fuzz harness for the user-facing iterator (DBIter over the
/// merged memtables and sorted runs). The input is an operation stream run
/// against a DB on MemEnv and against a std::map model that keeps every
/// version of every key; after each flush, compaction or snapshot change
/// and at the end, every scan must match the model:
///   - a full scan of the latest state, duplicates included;
///   - Seek + Next walks from targets on and between the keys, re-seeking
///     one iterator;
///   - a full scan at every held snapshot.
///
/// Input format: byte 0 picks the configuration (data layout, memtable
/// rep), then each operation is an (opcode, argument) byte pair:
///   opcode % 8 = 0..2  Put(key(arg), a value padded by arg / 8 bytes)
///                3     Delete(key(arg))
///                4     arg % 32 + 1 Puts of the hot key
///                5     even arg: GetSnapshot; odd: ReleaseSnapshot
///                6     Flush
///                7     CompactRange
/// Every write and every flush or compaction is followed by
/// WaitForBackgroundWork(), so the tree's shape depends on the input alone
/// and a failing input replays.
///
/// A few keys take every write: the empty key, neighbours that differ only
/// in a trailing NUL byte, and one hot key (three of the eight key slots),
/// so a key's history quickly outgrows the iterator's 8-step skip limit.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "db/db.h"
#include "io/mem_env.h"

namespace {

using namespace lsmlab;

const std::string kHotKey = "hot";
const std::string kKeys[8] = {"",     "a",     "b",    kHotKey,
                              kHotKey, kHotKey, "x", std::string("x\0", 2)};
// Seek targets: every key, and strings between and around them.
const std::string kTargets[] = {"",
                                std::string("\0", 1),
                                "a",
                                std::string("a\0", 2),
                                "b",
                                "c",
                                kHotKey,
                                std::string("hot\0", 4),
                                "x",
                                std::string("x\0", 2),
                                std::string("x\0\0", 3),
                                "y"};
constexpr size_t kMaxOps = 512;
constexpr size_t kMaxSnapshots = 8;

using Entries = std::vector<std::pair<std::string, std::string>>;

[[noreturn]] void Fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "fuzz_db_iter: %s: %s\n", what, detail.c_str());
  std::abort();
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    Fail(what, s.ToString());
  }
}

/// Entries as "[key]=value " pairs, with unprintable key bytes as \xNN.
std::string Describe(const Entries& entries) {
  std::string out;
  for (const auto& [key, value] : entries) {
    out += "[";
    for (char c : key) {
      if (c >= 0x20 && c < 0x7f) {
        out += c;
      } else {
        char hex[5];
        std::snprintf(hex, sizeof(hex), "\\x%02x",
                      static_cast<unsigned char>(c));
        out += hex;
      }
    }
    out += "]=" + value + " ";
  }
  return out;
}

/// Every version of every key, in write order; std::nullopt is a delete.
class Model {
 public:
  void Write(const std::string& key, std::optional<std::string> value) {
    history_[key].emplace_back(++writes_, std::move(value));
  }
  uint64_t writes() const { return writes_; }

  /// The live keys and values after the first `writes` writes.
  std::map<std::string, std::string> At(uint64_t writes) const {
    std::map<std::string, std::string> state;
    for (const auto& [key, versions] : history_) {
      const std::optional<std::string>* newest = nullptr;
      for (const auto& [write, value] : versions) {
        if (write <= writes) {
          newest = &value;
        }
      }
      if (newest != nullptr && newest->has_value()) {
        state[key] = **newest;
      }
    }
    return state;
  }

 private:
  std::map<std::string, std::vector<std::pair<uint64_t, std::optional<std::string>>>>
      history_;
  uint64_t writes_ = 0;
};

/// Drains `iter` from where it stands, at most `limit` entries.
Entries Drain(Iterator* iter, size_t limit) {
  Entries out;
  for (; iter->Valid() && out.size() < limit; iter->Next()) {
    out.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  Check(iter->status(), "iterator status");
  return out;
}

Entries Tail(const std::map<std::string, std::string>& state,
             const std::string& target) {
  return Entries(state.lower_bound(target), state.end());
}

class Harness {
 public:
  explicit Harness(uint8_t config) {
    options_.env = &env_;
    options_.write_buffer_size = 1024;
    options_.target_file_size = 1024;
    options_.max_bytes_for_level_base = 4096;
    options_.block_size = 256;
    options_.size_ratio = 3;
    options_.filter_policy = NewBloomFilterPolicy(10.0);
    static constexpr DataLayout kLayouts[] = {
        DataLayout::kOneLeveling, DataLayout::kLeveling, DataLayout::kTiering,
        DataLayout::kLazyLeveling};
    static constexpr MemTableRepType kReps[] = {
        MemTableRepType::kSkipList, MemTableRepType::kVector,
        MemTableRepType::kHashSkipList, MemTableRepType::kHashLinkList};
    options_.data_layout = kLayouts[config % 4];
    options_.memtable_rep = kReps[(config / 4) % 4];
    Check(DB::Open(options_, "/db", &db_), "open");
  }

  ~Harness() {
    for (const auto& [snapshot, writes] : snapshots_) {
      db_->ReleaseSnapshot(snapshot);
    }
  }

  void Put(const std::string& key, size_t padding) {
    std::string value = "v" + std::to_string(model_.writes() + 1);
    value.append(padding, '.');
    Check(db_->Put(WriteOptions(), key, value), "put");
    model_.Write(key, value);
    Check(db_->WaitForBackgroundWork(), "background work after put");
  }

  void Delete(const std::string& key) {
    Check(db_->Delete(WriteOptions(), key), "delete");
    model_.Write(key, std::nullopt);
    Check(db_->WaitForBackgroundWork(), "background work after delete");
  }

  void SnapshotOp(uint8_t arg) {
    if (arg % 2 == 0) {
      if (snapshots_.size() < kMaxSnapshots) {
        snapshots_.emplace_back(db_->GetSnapshot(), model_.writes());
      }
    } else if (!snapshots_.empty()) {
      const size_t i = (arg / 2) % snapshots_.size();
      db_->ReleaseSnapshot(snapshots_[i].first);
      snapshots_.erase(snapshots_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  void Flush() {
    Check(db_->Flush(), "flush");
    Check(db_->WaitForBackgroundWork(), "background work after flush");
  }

  void CompactRange() {
    Check(db_->CompactRange(), "compact range");
    Check(db_->WaitForBackgroundWork(), "background work after compaction");
  }

  void CheckScans(uint64_t walk_seed) {
    const std::map<std::string, std::string> latest =
        model_.At(model_.writes());
    auto iter = db_->NewIterator(ReadOptions());
    iter->SeekToFirst();
    Expect("full scan", Tail(latest, ""), Drain(iter.get(), SIZE_MAX));

    // Seek + Next walks, in an order and to a depth the input decides.
    constexpr size_t kNumTargets = sizeof(kTargets) / sizeof(kTargets[0]);
    for (size_t i = 0; i < kNumTargets; ++i) {
      walk_seed = walk_seed * 6364136223846793005ull + 1442695040888963407ull;
      const std::string& target = kTargets[(walk_seed >> 33) % kNumTargets];
      const size_t depth = 1 + (walk_seed >> 50) % 4;
      iter->Seek(target);
      Entries expected = Tail(latest, target);
      if (expected.size() > depth) {
        expected.resize(depth);
      }
      Expect(("walk from " + Describe({{target, ""}})).c_str(), expected,
             Drain(iter.get(), depth));
    }

    for (const auto& [snapshot, writes] : snapshots_) {
      ReadOptions at;
      at.snapshot_seqno = snapshot;
      auto snapshot_iter = db_->NewIterator(at);
      snapshot_iter->SeekToFirst();
      Expect("snapshot scan", Tail(model_.At(writes), ""),
             Drain(snapshot_iter.get(), SIZE_MAX));
    }
  }

 private:
  static void Expect(const char* what, const Entries& expected,
                     const Entries& got) {
    if (expected != got) {
      Fail(what, "expected " + Describe(expected) + "got " + Describe(got));
    }
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
  Model model_;
  std::vector<std::pair<SequenceNumber, uint64_t>> snapshots_;  // (handle, writes)
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) {
    return 0;
  }
  Harness harness(data[0]);
  uint64_t walk_seed = size;
  size_t ops = 0;
  for (size_t pos = 1; pos < size && ops < kMaxOps; pos += 2, ++ops) {
    const uint8_t opcode = data[pos];
    const uint8_t arg = pos + 1 < size ? data[pos + 1] : 0;
    walk_seed = walk_seed * 31 + opcode * 256u + arg;
    switch (opcode % 8) {
      case 0:
      case 1:
      case 2:
        harness.Put(kKeys[arg % 8], arg / 8);
        break;
      case 3:
        harness.Delete(kKeys[arg % 8]);
        break;
      case 4:
        for (int i = 0; i <= arg % 32; ++i) {
          harness.Put(kHotKey, 0);
        }
        break;
      case 5:
        harness.SnapshotOp(arg);
        harness.CheckScans(walk_seed);
        break;
      case 6:
        harness.Flush();
        harness.CheckScans(walk_seed);
        break;
      default:
        harness.CompactRange();
        harness.CheckScans(walk_seed);
        break;
    }
  }
  harness.CheckScans(walk_seed);
  return 0;
}
