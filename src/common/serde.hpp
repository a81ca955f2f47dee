// Minimal binary codec. Every protocol message is encoded through a Writer
// before being "sent" and decoded through a Reader on arrival, so digests and
// MACs are computed over real wire bytes and message sizes feed the latency
// model. Encoding is little-endian fixed-width; no varints — simplicity and
// determinism over compactness. Because every field is fixed-width, an
// encoder knows its message's size up front; the per-message encoders
// reserve it, so encoding one of those messages costs one allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"

namespace byzcast {

/// Appends primitive values to a byte buffer.
class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void i32(std::int32_t v) { put_raw(&v, sizeof v); }
  void i64(std::int64_t v) { put_raw(&v, sizeof v); }

  void process_id(ProcessId p) { i32(p.value); }
  void group_id(GroupId g) { i32(g.value); }
  void message_id(const MessageId& m) {
    process_id(m.origin);
    u64(m.seq);
  }

  /// Length-prefixed byte string.
  void bytes(BytesView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Appends raw bytes with no length prefix (splicing an already-encoded
  /// fragment, e.g. an encoded batch into a PROPOSE).
  void raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  /// Pre-sizes the underlying buffer for `n` more bytes.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void str(const std::string& s) {
    bytes(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                    s.size()));
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& items, Fn&& encode_one) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) encode_one(*this, item);
  }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  Bytes buf_;
};

/// Consumes primitive values from a byte buffer. Out-of-bounds reads abort:
/// inside the simulation all messages come from our own encoders, so a short
/// read is an invariant violation, not an input-validation concern.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}
  /// Reads a shared wire buffer: buffer() then hands out length-prefixed
  /// fields as slices that share its storage instead of copies. `wire` must
  /// outlive the Reader (the slices need not).
  explicit Reader(const Buffer& wire) : data_(wire.view()), wire_(&wire) {}
  /// Bytes converts to both BytesView and Buffer; reading it means the view.
  explicit Reader(const Bytes& data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    BZC_EXPECTS(pos_ + 1 <= data_.size());
    return data_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() { return get_raw<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get_raw<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() { return get_raw<std::int32_t>(); }
  [[nodiscard]] std::int64_t i64() { return get_raw<std::int64_t>(); }

  [[nodiscard]] ProcessId process_id() { return ProcessId{i32()}; }
  [[nodiscard]] GroupId group_id() { return GroupId{i32()}; }
  [[nodiscard]] MessageId message_id() {
    MessageId m;
    m.origin = process_id();
    m.seq = u64();
    return m;
  }

  /// Length-prefixed byte string, viewed in place (valid while the input is).
  [[nodiscard]] BytesView bytes_view() {
    const auto n = u32();
    BZC_EXPECTS(pos_ + n <= data_.size());
    const BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Length-prefixed byte string, copied out.
  [[nodiscard]] Bytes bytes() {
    const BytesView raw = bytes_view();
    return Bytes(raw.begin(), raw.end());
  }

  /// Length-prefixed byte string as a Buffer: a slice of the wire buffer
  /// when this Reader reads one (no copy, no materialization), else a copy.
  [[nodiscard]] Buffer buffer() {
    const BytesView raw = bytes_view();
    if (wire_ == nullptr) return Buffer::copy_of(raw);
    return wire_->slice(static_cast<std::size_t>(raw.data() - data_.data()),
                        raw.size());
  }

  [[nodiscard]] std::string str() {
    const auto raw = bytes();
    return std::string(raw.begin(), raw.end());
  }

  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> vec(Fn&& decode_one) {
    const auto n = u32();
    std::vector<T> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(decode_one(*this));
    return out;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T get_raw() {
    BZC_EXPECTS(pos_ + sizeof(T) <= data_.size());
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  BytesView data_;
  const Buffer* wire_ = nullptr;  // set when data_ is a Buffer's view
  std::size_t pos_ = 0;
};

}  // namespace byzcast
