#include "workload.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "util/random.h"
#include "workload/workload.h"

namespace lsmbench {

namespace {

const WorkloadSpec kWorkloads[] = {
    // 50k keys (~5.6 MiB of SSTs) fit the 8 MiB block cache: the CPU-bound
    // read path. A round's 16k puts stay below one memtable, so the tree the
    // reads see is the one the set-up built.
    {"readmostly_hot", 50000, false, 0.99, 0.88, 0.05, 0.02, 0.0, UINT32_MAX,
     320000, 64000, 250000},
    // 1M keys (~113 MiB of SSTs, 14x the cache): the cache-miss path. Run on
    // demand only; too noisy on a shared box for a regression bound.
    {"readmostly_cold", 1000000, false, 0.0, 0.88, 0.05, 0.02, 0.1, 20000,
     400000, 50000, 60000},
    // A flushed 40k-key base growing by 360k keys to ~45 MiB under puts,
    // with reads beside the flush and compaction churn. The base makes set-up
    // a bulk load and flush: an empty DB's open is ~1 ms of fsyncs, whose
    // time drifted by a third from one set of runs to the next.
    {"ingest", 40000, true, 0.0, 0.08, 0.01, 0.01, 0.0, 0, 400000, 400000,
     100000},
};

constexpr int kMinRounds = 3;

// Filler the value tail is cut from; printable so dumps stay readable.
const char* Filler() {
  static const std::string filler = [] {
    std::string s(256, 'a');
    lsmlab::Random rnd(0xf111e5);
    for (char& c : s) {
      c = static_cast<char>('a' + rnd.Uniform(26));
    }
    return s;
  }();
  return filler.data();
}

constexpr size_t kStampSize = 8;

// Draws key indices in [0, n): Zipf-skewed with hot keys scattered over the
// key space (the engine's own YCSB generator), or uniform.
class KeyChooser {
 public:
  KeyChooser(uint32_t n, double theta, uint64_t seed) : n_(n), rnd_(seed) {
    if (theta > 0) {
      zipf_ = std::make_unique<lsmlab::ZipfianGenerator>(n, theta, seed ^ 0x9e3779b9);
    }
  }
  uint32_t Next() {
    return static_cast<uint32_t>(zipf_ ? zipf_->Next() : rnd_.Uniform(n_));
  }

 private:
  uint32_t n_;
  lsmlab::Random rnd_;
  std::unique_ptr<lsmlab::ZipfianGenerator> zipf_;
};

}  // namespace

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kGet:
      return "get";
    case OpType::kMultiGet:
      return "multiget";
    case OpType::kScan:
      return "scan";
    case OpType::kPut:
      return "put";
  }
  return "?";
}

KeyTable::KeyTable(uint32_t n) : n_(n), buf_(size_t{n} * kKeySize, '\0') {
  for (uint32_t i = 0; i < n; ++i) {
    std::string k = lsmlab::WorkloadGenerator::FormatKey(2 * uint64_t{i});
    std::memcpy(buf_.data() + size_t{i} * kKeySize, k.data(), kKeySize);
  }
}

void EncodeValue(uint32_t key, uint32_t version, char* out) {
  std::memcpy(out, &key, 4);
  std::memcpy(out + 4, &version, 4);
  size_t offset = (key * 2654435761u + version * 40503u) & 127u;
  std::memcpy(out + kStampSize, Filler() + offset, kValueSize - kStampSize);
}

bool ValueMatches(const Slice& value, uint32_t key, uint32_t version) {
  if (value.size() != kValueSize) {
    return false;
  }
  char expected[kValueSize];
  EncodeValue(key, version, expected);
  return std::memcmp(value.data(), expected, kValueSize) == 0;
}

void Model::ExpectedScan(uint32_t start, int limit,
                         std::vector<uint32_t>* keys) const {
  keys->clear();
  for (size_t k = start; k < versions_.size() && keys->size() < size_t(limit); ++k) {
    if (versions_[k] != 0) {
      keys->push_back(static_cast<uint32_t>(k));
    }
  }
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

WorkloadSpec SmokeVariant(const WorkloadSpec& spec) {
  WorkloadSpec smoke = spec;
  smoke.preload_keys = std::min<uint32_t>(spec.preload_keys, 20000);
  smoke.warm_gets = std::min<uint32_t>(spec.warm_gets, 2000);
  smoke.ops_per_round = 5000;
  smoke.slice_ops = 2500;
  smoke.nominal_ops_per_second = 5000;
  return smoke;
}

int RoundsFor(const WorkloadSpec& spec, double seconds) {
  double rounds = seconds * spec.nominal_ops_per_second / spec.ops_per_round;
  return std::max(kMinRounds, static_cast<int>(rounds + 0.5));
}

uint32_t KeySpaceSize(const WorkloadSpec& spec) {
  return spec.ingest ? spec.preload_keys + spec.ops_per_round : spec.preload_keys;
}

void GenerateStream(const WorkloadSpec& spec, uint64_t seed, OpStream* stream) {
  const uint32_t n = KeySpaceSize(spec);
  const uint32_t num_ops = spec.ops_per_round;
  lsmlab::Random rnd(seed);
  KeyChooser chooser(std::max<uint32_t>(n, 1), spec.zipf_theta, seed * 31 + 7);

  // Preload order (read workloads) or insertion order (ingest).
  stream->load_order.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    stream->load_order[i] = i;
  }
  for (uint32_t i = n; i > 1; --i) {
    std::swap(stream->load_order[i - 1],
              stream->load_order[rnd.Uniform(i)]);
  }

  stream->warm_keys.clear();
  if (spec.warm_gets == UINT32_MAX) {
    for (uint32_t i = 0; i < n; ++i) {
      stream->warm_keys.push_back(i);
    }
  } else {
    for (uint32_t i = 0; i < spec.warm_gets; ++i) {
      stream->warm_keys.push_back(chooser.Next());
    }
  }

  stream->ops.clear();
  stream->ops.reserve(num_ops);
  stream->batch_keys.clear();
  stream->absent_keys.clear();
  uint32_t inserted = spec.ingest ? spec.preload_keys : 0;
  // An existing key: from the distribution, or for ingest uniformly among
  // those already inserted.
  auto existing = [&]() -> uint32_t {
    return spec.ingest ? stream->load_order[rnd.Uniform(inserted)]
                       : chooser.Next();
  };
  for (uint32_t i = 0; i < num_ops; ++i) {
    Op op;
    double dice = rnd.NextDouble();
    bool can_read = !spec.ingest || inserted > 0;
    if (can_read && dice < spec.get_share) {
      op.type = OpType::kGet;
      op.key = existing();
      if (spec.absent_get_share > 0 && rnd.NextDouble() < spec.absent_get_share) {
        op.absent = true;
        op.arg = static_cast<uint32_t>(stream->absent_keys.size() / kKeySize);
        stream->absent_keys += lsmlab::WorkloadGenerator::FormatKey(2 * uint64_t{op.key} + 1);
      }
    } else if (can_read && dice < spec.get_share + spec.multiget_share) {
      op.type = OpType::kMultiGet;
      op.arg = static_cast<uint32_t>(stream->batch_keys.size());
      for (int k = 0; k < kMultiGetKeys; ++k) {
        stream->batch_keys.push_back(existing());
      }
      op.key = stream->batch_keys[op.arg];
    } else if (can_read &&
               dice < spec.get_share + spec.multiget_share + spec.scan_share) {
      op.type = OpType::kScan;
      op.key = existing();
    } else {
      op.type = OpType::kPut;
      op.key = spec.ingest ? stream->load_order[inserted++] : chooser.Next();
    }
    stream->ops.push_back(op);
  }
}

}  // namespace lsmbench
