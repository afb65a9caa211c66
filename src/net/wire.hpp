// Wire format for messages exchanged between activities.
//
// Payloads are sequences of typed fields. Pids get their own field type
// because the transport must find and remap every pid embedded in a message
// when it crosses a machine boundary (§6 Example 1: "The resolution rule is
// implemented by mapping the embedded pid"). Name fields (path strings)
// likewise get a type of their own so experiments can ask "which names were
// exchanged" without parsing application payloads.
//
// Encoding: each field is a 1-byte type tag followed by the value;
// integers are LEB128 varints, strings are length-prefixed bytes, pids are
// three varints. A payload is preceded by its field count.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/name.hpp"
#include "net/address.hpp"
#include "util/status.hpp"

namespace namecoh {

enum class FieldType : std::uint8_t {
  kU64 = 1,
  kString = 2,
  kPid = 3,
  kName = 4,  ///< a path string exchanged as a *name* (not opaque bytes)
};

/// One typed payload field.
struct Field {
  FieldType type;
  std::variant<std::uint64_t, std::string, Pid> value;

  static Field u64(std::uint64_t v) { return {FieldType::kU64, v}; }
  static Field str(std::string v) { return {FieldType::kString, std::move(v)}; }
  static Field pid(Pid v) { return {FieldType::kPid, v}; }
  static Field name(std::string path) {
    return {FieldType::kName, std::move(path)};
  }

  friend bool operator==(const Field&, const Field&) = default;
};

/// An ordered sequence of typed fields.
class Payload {
 public:
  Payload() = default;

  /// Make room for `fields` fields, so a builder that knows its field
  /// count appends without regrowing.
  Payload& reserve(std::size_t fields) {
    fields_.reserve(fields);
    return *this;
  }
  Payload& add_u64(std::uint64_t v);
  Payload& add_string(std::string v);
  Payload& add_pid(Pid v);
  Payload& add_name(std::string path);
  /// Encode a component slice as a name field. Renders the *text* — name
  /// atoms (NameId) are node-local and never cross the wire; the receiver
  /// re-interns on decode via compound_at() (docs/INTERNING.md).
  Payload& add_name(NameSlice name);

  [[nodiscard]] std::size_t size() const { return fields_.size(); }
  [[nodiscard]] bool empty() const { return fields_.empty(); }
  [[nodiscard]] const Field& at(std::size_t i) const { return fields_.at(i); }
  [[nodiscard]] FieldType type_at(std::size_t i) const {
    return fields_.at(i).type;
  }

  /// Typed accessors; throw PreconditionError on type mismatch (caller bug).
  [[nodiscard]] std::uint64_t u64_at(std::size_t i) const;
  [[nodiscard]] const std::string& string_at(std::size_t i) const;
  [[nodiscard]] Pid pid_at(std::size_t i) const;
  [[nodiscard]] const std::string& name_at(std::size_t i) const;
  /// Decode a name field into this process's atom space: parses the text as
  /// a bare component sequence and interns each component. This is the one
  /// place remote names enter the NameTable.
  [[nodiscard]] Result<CompoundName> compound_at(std::size_t i) const;

  /// All pid fields (indices), for remapping at transport boundaries.
  [[nodiscard]] std::vector<std::size_t> pid_indices() const;
  void set_pid(std::size_t i, Pid v);

  /// All name fields (indices), for the experiments that track exchanged
  /// names.
  [[nodiscard]] std::vector<std::size_t> name_indices() const;
  void set_name(std::size_t i, std::string path);

  /// The frame, sized first and allocated once.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Replace `out`'s contents with the frame. Reuses `out`'s capacity, so
  /// a buffer kept across messages stops allocating once it has grown to
  /// the largest frame it carries.
  void encode_into(std::vector<std::uint8_t>& out) const;
  /// Parse a frame. The field vector is reserved up front, but never for
  /// more fields than the remaining bytes could hold, so a hostile field
  /// count cannot force a large allocation.
  static Result<Payload> decode(std::span<const std::uint8_t> bytes);

  friend bool operator==(const Payload&, const Payload&) = default;

 private:
  /// Exact length of the frame, computed without encoding.
  [[nodiscard]] std::size_t encoded_size() const;

  std::vector<Field> fields_;
};

/// Low-level primitives, exposed for tests and for the message header.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
Result<std::uint64_t> get_varint(std::span<const std::uint8_t>& in);
void put_bytes(std::vector<std::uint8_t>& out, std::string_view bytes);
Result<std::string> get_bytes(std::span<const std::uint8_t>& in);
void put_pid(std::vector<std::uint8_t>& out, const Pid& pid);
Result<Pid> get_pid(std::span<const std::uint8_t>& in);

}  // namespace namecoh
