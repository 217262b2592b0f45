#ifndef LSMBENCH_WORKLOAD_H_
#define LSMBENCH_WORKLOAD_H_

// Workload definitions, the pre-generated operation stream, and the client's
// expected-state model (the correctness oracle). Everything here runs before
// or between timed API calls; the engine only ever sees the generated keys
// and values.

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"

namespace lsmbench {

using lsmlab::Slice;

enum class OpType : uint8_t { kGet, kMultiGet, kScan, kPut };
constexpr int kNumOpTypes = 4;
const char* OpName(OpType type);

constexpr size_t kKeySize = 20;  // "user%016llu"
constexpr size_t kValueSize = 100;
constexpr int kMultiGetKeys = 16;
constexpr int kScanKeys = 50;

/// One closed-loop client operation. Keys are indices into a KeyTable.
struct Op {
  OpType type = OpType::kGet;
  /// Get of a key inside the key range that is never written.
  bool absent = false;
  uint32_t key = 0;
  /// MultiGet: offset of its kMultiGetKeys key indices in
  /// OpStream::batch_keys. Absent Get: index into OpStream::absent_keys.
  uint32_t arg = 0;
};

/// Fixed-width key strings: index i is WorkloadGenerator::FormatKey(2 * i),
/// so FormatKey(2 * i + 1) sorts between two written keys and never exists.
class KeyTable {
 public:
  explicit KeyTable(uint32_t n);
  Slice Key(uint32_t i) const { return Slice(buf_.data() + i * kKeySize, kKeySize); }
  uint32_t size() const { return n_; }

 private:
  uint32_t n_;
  std::string buf_;
};

/// Fills `out` (kValueSize bytes) with the value of version `version` of
/// key `key`: the pair is stamped in the first 8 bytes, the rest is filler
/// that also depends on both.
void EncodeValue(uint32_t key, uint32_t version, char* out);
bool ValueMatches(const Slice& value, uint32_t key, uint32_t version);

/// Expected state: the current version of every key (0 = never written).
class Model {
 public:
  explicit Model(uint32_t n) : versions_(n, 0) {}
  uint32_t version(uint32_t key) const { return versions_[key]; }
  void set(uint32_t key, uint32_t version) { versions_[key] = version; }
  /// The first `limit` written keys >= `start`, ascending.
  void ExpectedScan(uint32_t start, int limit, std::vector<uint32_t>* keys) const;

 private:
  std::vector<uint32_t> versions_;
};

struct WorkloadSpec {
  const char* name;
  /// Keys the set-up writes (in shuffled order) before the timed phase.
  uint32_t preload_keys;
  /// Ingest only: the phase's puts insert new keys in shuffled order and
  /// its reads target keys already inserted.
  bool ingest;
  /// Zipf skew of key choice; 0 draws uniformly.
  double zipf_theta;
  /// Op mix of the phase; the remainder are puts.
  double get_share, multiget_share, scan_share;
  /// Share of gets that target an absent key inside the key range.
  double absent_get_share;
  /// Set-up reads after the preload: 0 skips, UINT32_MAX reads every key.
  uint32_t warm_gets;
  /// Phase ops of one round: a fixed amount of work, so amplification
  /// figures do not depend on speed or on --seconds.
  uint32_t ops_per_round;
  /// The phase runs in slices of this many ops, each closed by
  /// WaitForBackgroundWork; latency and throughput are figured per slice.
  /// Large enough for over 1000 samples of every op type.
  uint32_t slice_ops;
  /// Throughput on the reference machine (a shared 4-vCPU VM). Only turns
  /// --seconds into a round count, so a run there measures about --seconds
  /// of phase time.
  uint32_t nominal_ops_per_second;
};

/// The benchmark's workloads; nullptr if `name` is unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Rounds a run of `seconds` makes: enough for about that much phase time,
/// and never fewer than three so the reported medians reject one disturbed
/// round.
int RoundsFor(const WorkloadSpec& spec, double seconds);
/// A seconds-scale variant of `spec` with the same mix, for the smoke test.
WorkloadSpec SmokeVariant(const WorkloadSpec& spec);

/// Everything one round sends to the engine, generated up front.
struct OpStream {
  std::vector<uint32_t> load_order;  // Preload, then (ingest) insertion order.
  std::vector<Op> ops;
  std::vector<uint32_t> batch_keys;
  std::string absent_keys;  // kKeySize bytes each.
  std::vector<uint32_t> warm_keys;

  Slice AbsentKey(uint32_t i) const {
    return Slice(absent_keys.data() + i * kKeySize, kKeySize);
  }
};

/// Key-space size a round of `spec` needs.
uint32_t KeySpaceSize(const WorkloadSpec& spec);
/// Generates one round's stream from `seed`; the same seed gives the same
/// stream.
void GenerateStream(const WorkloadSpec& spec, uint64_t seed, OpStream* stream);

}  // namespace lsmbench

#endif  // LSMBENCH_WORKLOAD_H_
