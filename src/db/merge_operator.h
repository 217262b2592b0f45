#ifndef LSMLAB_DB_MERGE_OPERATOR_H_
#define LSMLAB_DB_MERGE_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// MergeOperator gives the engine read-modify-write semantics without a
/// read-modify-write on the write path (tutorial §2.2.6): DB::Merge buffers
/// an *operand*; reads (and bottommost compactions) combine the newest base
/// value with all younger operands through this operator.
class MergeOperator {
 public:
  virtual ~MergeOperator() = default;

  /// Name persisted conceptually with the DB; mixing operators across runs
  /// of the same database is a caller bug.
  virtual const char* Name() const = 0;

  /// Combines `base_value` (nullptr if the key had no base value) with
  /// `operands`, ordered oldest first. Returns false on irrecoverable
  /// operand corruption, which surfaces as Status::Corruption to readers.
  virtual bool Merge(const Slice& key, const Slice* base_value,
                     const std::vector<Slice>& operands,
                     std::string* result) const = 0;
};

/// What every entry point returns for a Merge record or a stored merge
/// operand when Options::merge_operator is unset.
inline Status MergeOperatorMissing() {
  return Status::InvalidArgument("Merge requires Options::merge_operator");
}

/// Interprets base and operands as decimal int64 strings and sums them —
/// the classic counter use case.
std::shared_ptr<const MergeOperator> NewInt64AddOperator();

/// Appends operands to the base value with `delimiter` between pieces.
std::shared_ptr<const MergeOperator> NewStringAppendOperator(char delimiter);

}  // namespace lsmlab

#endif  // LSMLAB_DB_MERGE_OPERATOR_H_
