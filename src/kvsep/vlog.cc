#include "kvsep/vlog.h"

#include "db/filename.h"
#include "util/coding.h"

namespace lsmlab {

void VlogPointer::EncodeTo(std::string* dst) const {
  PutVarint64(dst, file_number);
  PutVarint64(dst, offset);
  PutVarint64(dst, size);
}

bool VlogPointer::DecodeFrom(Slice input) {
  return GetVarint64(&input, &file_number) && GetVarint64(&input, &offset) &&
         GetVarint64(&input, &size);
}

VlogManager::VlogManager(std::string dbname, Env* env)
    : dbname_(std::move(dbname)), env_(env) {}

Status VlogManager::OpenActive(uint64_t file_number) {
  MutexLock lock(&mu_);
  // The outgoing log stops being the one Sync() covers, while tables and
  // WALs may still point into it: make it durable before rolling away.
  if (active_file_ != nullptr && synced_offset_ != active_offset_) {
    Status s = active_file_->Sync();
    if (!s.ok()) {
      return s;
    }
    synced_offset_ = active_offset_;
  }
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(VlogFileName(dbname_, file_number), &file);
  if (s.ok()) {
    active_file_ = std::move(file);
    active_file_number_ = file_number;
    active_offset_ = 0;
    synced_offset_ = 0;
    append_error_ = Status::OK();
  }
  return s;
}

Status VlogManager::Append(const Slice& key, const Slice& value,
                           VlogPointer* ptr) {
  MutexLock lock(&mu_);
  if (active_file_ == nullptr) {
    return Status::IOError("no active vlog");
  }
  if (!append_error_.ok()) {
    return append_error_;
  }
  std::string record;
  PutVarint32(&record, static_cast<uint32_t>(key.size()));
  PutVarint32(&record, static_cast<uint32_t>(value.size()));
  record.append(value.data(), value.size());
  record.append(key.data(), key.size());

  ptr->file_number = active_file_number_;
  // Offset points at the record header; size is the payload length.
  ptr->offset = active_offset_;
  ptr->size = value.size();

  // Flushed per record: Read() opens the log by name, so a pointer handed
  // out here must already resolve through a fresh reader.
  Status s = active_file_->Append(record);
  if (s.ok()) {
    s = active_file_->Flush();
  }
  if (s.ok()) {
    active_offset_ += record.size();
  } else {
    append_error_ = s;
  }
  return s;
}

Status VlogManager::Read(const VlogPointer& ptr, const Slice& expected_key,
                         std::string* value,
                         std::unique_ptr<RandomAccessFile>* file) {
  // Without `file`, open a fresh reader per read; Envs cache cheaply and
  // this keeps the manager lock-free on the read path.
  std::unique_ptr<RandomAccessFile> fresh;
  file = file != nullptr ? file : &fresh;
  Status s;
  if (*file == nullptr) {
    s = env_->NewRandomAccessFile(VlogFileName(dbname_, ptr.file_number),
                                  file);
    if (!s.ok()) {
      return s;
    }
  }
  // Header is at most 10 bytes; read header + key + value in one shot.
  size_t max_len =
      10 + expected_key.size() + static_cast<size_t>(ptr.size) + 10;
  std::string scratch(max_len, '\0');
  Slice record;
  s = (*file)->Read(ptr.offset, max_len, &record, scratch.data());
  if (!s.ok()) {
    return s;
  }
  uint32_t key_len, value_len;
  Slice input = record;
  if (!GetVarint32(&input, &key_len) || !GetVarint32(&input, &value_len) ||
      value_len != ptr.size || input.size() < key_len + value_len) {
    return Status::Corruption("bad vlog record");
  }
  Slice stored_key(input.data() + value_len, key_len);
  if (stored_key != expected_key) {
    return Status::Corruption("vlog key mismatch");
  }
  value->assign(input.data(), value_len);
  return Status::OK();
}

Status VlogManager::ForEachRecord(
    uint64_t file_number,
    const std::function<bool(const Slice& key, const Slice& value,
                             const VlogPointer& ptr)>& callback) {
  std::string contents;
  Status s = ReadFileToString(
      env_, VlogFileName(dbname_, file_number), &contents);
  if (!s.ok()) {
    return s;
  }
  Slice input(contents);
  uint64_t offset = 0;
  while (!input.empty()) {
    Slice at_record = input;
    uint32_t key_len, value_len;
    if (!GetVarint32(&input, &key_len) || !GetVarint32(&input, &value_len)) {
      if (at_record.size() >= 10) {
        // Room for both lengths (two varint32s, 5 bytes at most each), yet
        // they do not parse.
        return Status::Corruption("bad vlog record header");
      }
      break;  // A header cut off by the end of the log: a torn tail.
    }
    if (input.size() < static_cast<uint64_t>(key_len) + value_len) {
      // A record that runs past the end of the log is a torn tail, which
      // ends the log as it ends WAL replay.
      break;
    }
    Slice value(input.data(), value_len);
    Slice key(input.data() + value_len, key_len);
    input.remove_prefix(value_len + key_len);

    VlogPointer ptr;
    ptr.file_number = file_number;
    ptr.offset = offset;
    ptr.size = value_len;
    offset += static_cast<uint64_t>(at_record.size() - input.size());
    if (!callback(key, value, ptr)) {
      break;
    }
  }
  return Status::OK();
}

Status VlogManager::Sync() {
  MutexLock lock(&mu_);
  // Every synced write group calls this, whether or not it appended a
  // value; skipping a clean log keeps a group without one at one fsync.
  if (active_file_ == nullptr || synced_offset_ == active_offset_) {
    return Status::OK();
  }
  Status s = active_file_->Sync();
  if (s.ok()) {
    synced_offset_ = active_offset_;
  }
  return s;
}

}  // namespace lsmlab
