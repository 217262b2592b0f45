#ifndef LSMLAB_DB_WRITE_BATCH_H_
#define LSMLAB_DB_WRITE_BATCH_H_

#include <cstdint>
#include <string>

#include "db/dbformat.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// WriteBatch collects updates that apply atomically: all of them become
/// visible at once, and recovery replays all or none (one WAL record holds
/// the whole batch). It is also the engine's internal unit of logging —
/// single writes are one-element batches.
///
/// Serialized representation (also the WAL record payload):
///   fixed64(starting_sequence) | fixed32(count) |
///   { byte(type) | varint-key | varint-value }*
class WriteBatch {
 public:
  WriteBatch();

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  void SingleDelete(const Slice& key);
  void Merge(const Slice& key, const Slice& operand);

  /// Appends all of `other`'s records to this batch, preserving their order
  /// and this batch's sequence number. The group-commit write path uses this
  /// to coalesce the queued writers' batches into one WAL record.
  void Append(const WriteBatch& other);

  void Clear();

  /// Number of operations in the batch.
  uint32_t Count() const;

  /// Serialized size in bytes.
  size_t ApproximateSize() const { return rep_.size(); }

  /// Handler for Iterate: receives each operation in insertion order.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void Put(const Slice& key, const Slice& value) = 0;
    virtual void Delete(const Slice& key) = 0;
    virtual void SingleDelete(const Slice& key) = 0;
    virtual void Merge(const Slice& key, const Slice& operand) = 0;
    /// Raw access for handlers that need the type tag (e.g. vlog-pointer
    /// entries re-logged during recovery). Default dispatches to the typed
    /// callbacks above.
    virtual void TypedRecord(ValueType type, const Slice& key,
                             const Slice& value);
  };

  /// Replays the batch into `handler`; Corruption on malformed bytes.
  Status Iterate(Handler* handler) const;

  // --- Internal plumbing (DB + recovery) -----------------------------------
  SequenceNumber sequence() const;
  void SetSequence(SequenceNumber seq);
  const std::string& rep() const { return rep_; }
  /// Adopts serialized contents (WAL replay). Validates the header only;
  /// record-level corruption surfaces from Iterate.
  Status SetRep(const Slice& contents);
  /// Appends a record with an explicit type tag (used for vlog pointers).
  void PutTyped(ValueType type, const Slice& key, const Slice& value);
  /// Grows the buffer, at most once, to fit one more record of `key` and
  /// `value`, so appending it allocates no more.
  void ReserveRecord(const Slice& key, const Slice& value);

 private:
  static constexpr size_t kHeaderSize = 12;  // seq(8) + count(4).

  std::string rep_;
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_WRITE_BATCH_H_
